// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output, and prints one JSON
// object as the last line of standard output: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a separate traced run.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
//
// Every workload repeats a fixed unit of work (an iteration) on a freshly
// set-up instance until --seconds have passed, with at least two
// iterations so the exact simulated counts can be compared between them.
// Timings are medians over iterations or percentiles over ops; see
// README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A workload sets up fresh instances; each instance runs one iteration.
type workload struct {
	name string
	// setUp builds one instance: everything before the measured phase.
	setUp func(ctx context.Context, seed int64, tr *tracer) (instance, error)
	// probe times single-layer calls for the traced run's per-layer
	// metrics, on a freshly set-up instance. Nil when there are none.
	probe func(ctx context.Context, inst instance, tr *tracer, out layerValues) error
}

// instance is one set-up copy of a workload's system.
type instance interface {
	run(ctx context.Context, tr *tracer) (*iteration, error)
	close()
}

// iteration is what one fixed unit of work measured.
type iteration struct {
	ops       []float64     // op times, ms
	misses    []float64     // op times of the ops that ran a simulation, ms
	simInsts  uint64        // simulated instructions served ...
	simTime   time.Duration // ... over this much host time (0: the iteration's wall)
	attempted int
	failed    int
	exact     []exactCount  // must repeat bit-for-bit between iterations
	layer     layerValues   // per-layer values of this iteration
	wall      time.Duration // set by the runner
	alloc     uint64        // heap bytes allocated, set by the runner
}

type exactCount struct {
	name  string
	value uint64
}

// layerValues collects per-layer metrics by name.
type layerValues map[string]float64

// spec is the part of BENCHMARK.json the program reads: the metric lists
// it must print, in that order, with their units.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &spec{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var workloadsByName = map[string]workload{
	"paper-sweep": paperSweep,
	"policy-fork": policyFork,
	"serve-hot":   serveHot,
	"serve-mixed": serveMixed,
}

const (
	minIterations = 2 // exact counts are compared between iterations
	// setup_s is the median of at least minSetups set-ups, and of more
	// (up to maxSetups) until they add up to setupBudget.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, policy-fork, serve-hot or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: print per-layer metrics of a traced run instead of end-to-end metrics")
	out := flag.String("out", ".bench_build/trace", "directory the traced run writes its spans and CPU profile to")
	flag.Parse()

	w, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the root of the repository)\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var values layerValues
	var rep *report
	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		rep, values, err = traced(ctx, w, *seed, budget, *out)
	} else {
		rep, values, err = untraced(ctx, w, *seed, budget)
	}
	if err == nil {
		err = fillMetrics(rep, sp, values, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// phase is the outcome of repeating a workload's iteration.
type phase struct {
	iters    []*iteration
	setups   []float64 // seconds per set-up
	retained float64   // MB live after a forced GC, last instance alive
}

// runPhase sets up and runs iterations until budget has passed (never
// starting one that would end more than a tenth past it), with at least
// minIters of them, then tops up the set-ups (see minSetups).
func runPhase(ctx context.Context, w workload, seed int64, budget time.Duration, minIters int, tr *tracer) (*phase, error) {
	p := &phase{}
	// Each set-up draws its own inputs from a seed derived from the run's,
	// so one run averages over several input streams.
	seeds := rand.New(rand.NewSource(seed))
	start := time.Now()
	for done := false; !done; {
		inst, err := timedSetUp(ctx, w, seeds.Int63(), tr, p)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		a0, c0 := heapAllocs(), cpuSeconds()
		t0 := time.Now()
		it, err := inst.run(ctx, tr)
		if err != nil {
			inst.close()
			return nil, err
		}
		it.wall = time.Since(t0)
		it.alloc = heapAllocs() - a0
		p.iters = append(p.iters, it)
		fmt.Fprintf(os.Stderr, "perfbench: %s: iteration %d: %.3f s wall, %.3f s CPU, %d ops\n",
			w.name, len(p.iters), it.wall.Seconds(), cpuSeconds()-c0, len(it.ops))
		done = len(p.iters) >= minIters && time.Since(start)+it.wall > budget+budget/10
		if done {
			p.retained = retainedMB()
		}
		inst.close()
	}
	// The extra set-ups are untraced, so a traced phase's spans are its
	// iterations and their own set-ups.
	for len(p.setups) < minSetups || (len(p.setups) < maxSetups && sum(p.setups) < setupBudget.Seconds()) {
		inst, err := timedSetUp(ctx, w, seeds.Int63(), nil, p)
		if err != nil {
			return nil, err
		}
		inst.close()
	}
	return p, nil
}

func timedSetUp(ctx context.Context, w workload, seed int64, tr *tracer, p *phase) (instance, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setUp(ctx, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.setups = append(p.setups, time.Since(t0).Seconds())
	return inst, nil
}

// fillMetrics puts every metric BENCHMARK.json lists for the run's kind
// into the report, and refuses values it does not list.
func fillMetrics(rep *report, sp *spec, values layerValues, perLayer bool) error {
	list := sp.EndToEnd
	if perLayer {
		list = sp.PerLayer
	}
	rep.Metrics = map[string]metric{}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !perLayer {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if !perLayer && !(v > 0) {
			return fmt.Errorf("end-to-end metric %s is %v; every end-to-end metric must be positive", m.Name, v)
		}
		rep.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return fmt.Errorf("measured %s, which BENCHMARK.json does not list", name)
		}
	}
	return nil
}

// untraced is the measured run: every end-to-end metric.
func untraced(ctx context.Context, w workload, seed int64, budget time.Duration) (*report, layerValues, error) {
	probeMS := hostProbe()
	p, err := runPhase(ctx, w, seed, budget, minIterations, nil)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{}
	checkPhases(w.name, rep, p)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d iterations, host probe %.1f ms\n", w.name, len(p.iters), probeMS)

	var walls, rates, allocs []float64
	var ops, misses []float64
	for _, it := range p.iters {
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, float64(it.alloc)/1e6)
		simTime := it.simTime
		if simTime == 0 {
			simTime = it.wall
		}
		rates = append(rates, float64(it.simInsts)/simTime.Seconds()/1e6)
		ops = append(ops, it.ops...)
		misses = append(misses, it.misses...)
	}
	return rep, layerValues{
		"setup_s":          median(p.setups),
		"wall_s":           median(walls),
		"op_p50_ms":        percentile(ops, 50),
		"op_p90_ms":        percentile(ops, 90),
		"sim_mips":         median(rates),
		"miss_p50_ms":      percentile(misses, 50),
		"alloc_mb":         median(allocs),
		"retained_heap_mb": p.retained,
		"peak_rss_mb":      peakRSSMB(),
	}, nil
}

// checkPhases fills the output-check fields: failed ops and failed checks
// of every iteration, plus one failure per iteration whose exact counts
// differ from the first iteration's.
func checkPhases(name string, rep *report, phases ...*phase) {
	var ref []exactCount
	for _, p := range phases {
		for i, it := range p.iters {
			rep.Attempted += it.attempted
			rep.Failed += it.failed
			if ref == nil {
				ref = it.exact
				fmt.Fprintf(os.Stderr, "perfbench: %s: exact counts %s\n", name, formatExact(ref))
				continue
			}
			if diff := diffExact(ref, it.exact); diff != "" {
				rep.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: iteration %d: exact counts differ: %s\n", name, i, diff)
			}
		}
	}
	if rep.Failed > rep.Attempted {
		rep.Failed = rep.Attempted
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
}

func formatExact(c []exactCount) string {
	parts := make([]string, len(c))
	for i, e := range c {
		parts[i] = fmt.Sprintf("%s=%d", e.name, e.value)
	}
	return strings.Join(parts, " ")
}

func diffExact(want, got []exactCount) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d counts, want %d", len(got), len(want))
	}
	var diffs []string
	for i := range want {
		if want[i] != got[i] {
			diffs = append(diffs, fmt.Sprintf("%s=%d (want %s=%d)", got[i].name, got[i].value, want[i].name, want[i].value))
		}
	}
	return strings.Join(diffs, ", ")
}

// failf records one failed output check.
func (it *iteration) failf(format string, args ...any) {
	it.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// median of a sample: the middle value, or the mean of the two middle
// values (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
