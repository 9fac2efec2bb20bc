package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostProbe times a fixed pure-Go loop: a diagnostic of how fast this
// host runs right now, recorded next to the measurements (host.probe_ms)
// so host drift can be told apart from benchmark noise. It is never an
// end-to-end metric. The median of five passes is reported.
func hostProbe() float64 {
	var passes []float64
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		x := uint64(p + 1)
		for i := 0; i < 40_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		probeSink = x
		passes = append(passes, ms(time.Since(t0)))
	}
	return median(passes)
}

var probeSink uint64

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes").Uint64() }

// gcCycles is the number of completed GC cycles.
func gcCycles() uint64 { return readMetric("/gc/cycles/total:gc-cycles").Uint64() }

// gcPauseMS is the total stop-the-world pause time so far.
func gcPauseMS() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.PauseTotalNs) / 1e6
}

// retainedMB forces a collection and reports the live heap in MB.
func retainedMB() float64 {
	runtime.GC()
	return float64(readMetric("/memory/classes/heap/objects:bytes").Uint64()) / 1e6
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
