package core

import (
	"math"

	"repro/internal/pmu"
)

// WindowMetrics summarizes one profile window — the period of time it took
// the System Sample Buffer to fill. The phase detector works exclusively on
// these three values, exactly as in §2.3 of the paper.
type WindowMetrics struct {
	Seq      int
	CPI      float64
	DPI      float64
	PCCenter float64
	PCDev    float64 // stddev of sample PCs after outlier removal

	StartCycle uint64
	EndCycle   uint64
	Retired    uint64 // instructions retired within the window
	DearEvents int
}

// UEB is the User Event Buffer: a circular store of the last W profile
// windows, each holding the raw samples plus derived metrics.
type UEB struct {
	w       int
	windows []windowData
	seq     int

	prevCycles  uint64
	prevRetired uint64
	prevDMiss   uint64
	havePrev    bool
}

type windowData struct {
	samples []pmu.Sample
	metrics WindowMetrics
}

// NewUEB returns a buffer holding w windows.
func NewUEB(w int) *UEB {
	return &UEB{w: w}
}

// AddWindow ingests one SSB-overflow delivery (the signal handler's copy).
// It computes the window's metrics from the accumulative counters.
func (u *UEB) AddWindow(samples []pmu.Sample) WindowMetrics {
	cp := make([]pmu.Sample, len(samples))
	copy(cp, samples)

	m := WindowMetrics{Seq: u.seq}
	u.seq++
	if len(cp) > 0 {
		last := cp[len(cp)-1]
		startCyc, startRet, startMiss := last.Cycles, last.Retired, last.DMiss
		if u.havePrev {
			startCyc, startRet, startMiss = u.prevCycles, u.prevRetired, u.prevDMiss
		} else {
			first := cp[0]
			startCyc, startRet, startMiss = first.Cycles, first.Retired, first.DMiss
		}
		dCyc := float64(last.Cycles - startCyc)
		dRet := float64(last.Retired - startRet)
		dMiss := float64(last.DMiss - startMiss)
		if dRet > 0 {
			m.CPI = dCyc / dRet
			m.DPI = dMiss / dRet
		}
		m.StartCycle = startCyc
		m.EndCycle = last.Cycles
		m.Retired = uint64(dRet)
		u.prevCycles, u.prevRetired, u.prevDMiss = last.Cycles, last.Retired, last.DMiss
		u.havePrev = true
	}
	m.PCCenter, m.PCDev = pcCenter(cp)
	for _, s := range cp {
		if s.DEAR.Valid {
			m.DearEvents++
		}
	}

	u.windows = append(u.windows, windowData{samples: cp, metrics: m})
	if len(u.windows) > u.w {
		u.windows = u.windows[len(u.windows)-u.w:]
	}
	return m
}

// pcCenter estimates the center of the code area of a window: the
// arithmetic mean of sample PCs after removing noise (samples more than
// two standard deviations from the raw mean).
func pcCenter(samples []pmu.Sample) (center, dev float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	mean, sd := meanStddevPC(samples, nil)
	if sd > 0 {
		keep := make([]bool, len(samples))
		kept := 0
		for i, s := range samples {
			if math.Abs(float64(s.PC)-mean) <= 2*sd {
				keep[i] = true
				kept++
			}
		}
		if kept > 0 && kept < len(samples) {
			mean, sd = meanStddevPC(samples, keep)
		}
	}
	return mean, sd
}

func meanStddevPC(samples []pmu.Sample, keep []bool) (mean, sd float64) {
	n := 0
	var sum float64
	for i, s := range samples {
		if keep != nil && !keep[i] {
			continue
		}
		sum += float64(s.PC)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	var ss float64
	for i, s := range samples {
		if keep != nil && !keep[i] {
			continue
		}
		d := float64(s.PC) - mean
		ss += d * d
	}
	sd = math.Sqrt(ss / float64(n))
	return mean, sd
}

// Windows returns the metrics of the buffered windows, oldest first.
func (u *UEB) Windows() []WindowMetrics {
	out := make([]WindowMetrics, len(u.windows))
	for i, w := range u.windows {
		out[i] = w.metrics
	}
	return out
}

// Seq returns the total number of windows ever ingested.
func (u *UEB) Seq() int { return u.seq }

// Samples returns all buffered samples, oldest window first.
func (u *UEB) Samples() []pmu.Sample {
	var out []pmu.Sample
	for _, w := range u.windows {
		out = append(out, w.samples...)
	}
	return out
}

// SamplesSince returns the samples of every buffered window with sequence
// number >= seq — used to scope delinquent-load identification to exactly
// the windows that established a stable phase.
func (u *UEB) SamplesSince(seq int) []pmu.Sample {
	var out []pmu.Sample
	for _, w := range u.windows {
		if w.metrics.Seq >= seq {
			out = append(out, w.samples...)
		}
	}
	return out
}
