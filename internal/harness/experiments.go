package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// ExpConfig parameterizes a whole experiment sweep.
type ExpConfig struct {
	Scale float64     // workload scale factor (1.0 = full runs)
	Core  core.Config // ADORE configuration

	// Hierarchy, when non-nil, replaces the default memory hierarchy in
	// every run of the sweep — the knob the golden-corpus perturbation
	// tests turn to prove the corpus actually constrains the model.
	Hierarchy *memsys.HierarchyConfig

	// Engine schedules the sweep's jobs. Nil uses a fresh default engine
	// (GOMAXPROCS workers, no progress output); share one engine across
	// sweeps to also share its build cache.
	Engine *Engine
}

// DefaultExpConfig runs the full-scale experiments.
func DefaultExpConfig() ExpConfig {
	return ExpConfig{Scale: 1.0, Core: core.DefaultConfig()}
}

func (c ExpConfig) engine() *Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return NewEngine(EngineConfig{})
}

// runConfig is DefaultRunConfig with the sweep-level overrides applied.
func (c ExpConfig) runConfig() RunConfig {
	rc := DefaultRunConfig()
	if c.Hierarchy != nil {
		rc.Hierarchy = *c.Hierarchy
	}
	return rc
}

// monitorConfig is Fig. 11's monitor run: the full ADORE pipeline with
// patch insertion off, capturing every sampled DEAR event. The
// controller's work runs free on the second processor and only patch
// installs charge cycles, so this run simulates the same machine as a
// sample-only run of the same binary, and its DEAR capture doubles as
// Table 1's training profile: on a shared engine the two experiments share
// one simulation through the result cache.
func (c ExpConfig) monitorConfig() RunConfig {
	rc := c.runConfig()
	rc.ADORE = true
	rc.Core = c.Core
	rc.Core.DisableInsertion = true
	rc.CaptureDear = true
	return rc
}

// benchSpec is the cache-keyed compile spec for one benchmark under the
// standard experiment settings (restricted: no SWP, registers reserved).
// The key carries the workload scale — the same benchmark at two scales is
// two different kernels.
func benchSpec(b workloads.Benchmark, scale float64, level compiler.OptLevel) CompileSpec {
	opts := compiler.DefaultOptions()
	opts.Level = level
	return CompileSpec{
		Name:    fmt.Sprintf("%s@%g", b.Name, scale),
		Kernel:  b.Kernel,
		Options: opts,
	}
}

// SpeedupRow is one bar of Fig. 7.
type SpeedupRow struct {
	Name    string
	Base    uint64 // cycles without runtime prefetching
	ADORE   uint64 // cycles with runtime prefetching
	Speedup float64
	Stats   core.Stats
}

// Fig7Result is the Fig. 7(a) or 7(b) sweep.
type Fig7Result struct {
	Level compiler.OptLevel
	Rows  []SpeedupRow
}

// RunFig7Context reproduces Fig. 7: speedup of runtime prefetching over
// the plain binary at the given optimization level, across the 17
// benchmarks. Each benchmark contributes a base job and an ADORE job
// (sharing one compile through the build cache), and rows keep the
// workloads.All order whatever the completion order.
func RunFig7Context(ctx context.Context, cfg ExpConfig, level compiler.OptLevel) (*Fig7Result, error) {
	benches := workloads.All(cfg.Scale)
	jobs := make([]Job, 0, 2*len(benches))
	for _, b := range benches {
		sp := benchSpec(b, cfg.Scale, level)
		adore := cfg.runConfig()
		adore.ADORE = true
		adore.Core = cfg.Core
		jobs = append(jobs,
			Job{Name: b.Name + "/base", Compile: sp, Config: cfg.runConfig()},
			Job{Name: b.Name + "/adore", Compile: sp, Config: adore},
		)
	}
	runs, err := cfg.engine().RunJobs(ctx, "fig7/"+level.String(), jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Level: level}
	for i, b := range benches {
		base, adore := runs[2*i], runs[2*i+1]
		res.Rows = append(res.Rows, SpeedupRow{
			Name:    b.Name,
			Base:    base.CPU.Cycles,
			ADORE:   adore.CPU.Cycles,
			Speedup: Speedup(base.CPU.Cycles, adore.CPU.Cycles),
			Stats:   *adore.Core,
		})
	}
	return res, nil
}

// Render prints the figure as a text bar table.
func (f *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Speedup of %s + Runtime Prefetching over %s\n", f.Level, f.Level)
	fmt.Fprintf(&b, "%-10s %12s %12s %9s\n", "benchmark", "base cycles", "adore cycles", "speedup")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %8.1f%%  %s\n",
			r.Name, r.Base, r.ADORE, r.Speedup*100, bar(r.Speedup))
	}
	return b.String()
}

// bar geometry: barCharsPerUnit characters per 1.0 of speedup (one '#' per
// 2%), clamped so extreme rows stay on one terminal line.
const (
	barCharsPerUnit = 50
	barMaxChars     = 40  // longest positive bar
	barMinChars     = -10 // longest negative bar
)

func bar(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	n := int(v * barCharsPerUnit)
	switch {
	case n > barMaxChars:
		n = barMaxChars
	case n < barMinChars:
		n = barMinChars
	}
	if n >= 0 {
		return strings.Repeat("#", n)
	}
	return strings.Repeat("-", -n)
}

// Table1Row is one row of Table 1: profile-guided static prefetching.
type Table1Row struct {
	Name            string
	LoopsO3         int     // loops scheduled for prefetch at plain O3
	LoopsProfile    int     // ... under profile guidance
	NormExecTime    float64 // profile-guided time / O3 time
	NormBinarySize  float64 // profile-guided bundles / O3 bundles
	ProfileCoverage float64 // fraction of sampled latency the kept loops cover
}

// Table1Result is the Table 1 sweep.
type Table1Result struct {
	Rows []Table1Row
}

// table1CoverTarget is the profile-coverage cut. The paper cuts at 90%;
// our synthetic profiles are far more concentrated than SPEC's, so the
// equivalent cut that keeps every loop whose prefetch matters is 98%.
const table1CoverTarget = 0.98

// RunTable1Context reproduces Table 1: collect a sampling profile of the
// O2 binary, keep the loops whose delinquent loads cover the bulk of the
// total miss latency, recompile O3 prefetching only those, and compare
// execution time and binary size against plain O3.
//
// The chain runs as two rounds of engine jobs, because each filtered
// compile needs its benchmark's profile: first the O2 training runs, then
// every benchmark's O3 base run and profile-filtered O3 run. On a shared
// engine two of the three runs come from the result cache: the training
// run is Fig. 11's monitor job and the O3 base run Fig. 7(b)'s base job.
func RunTable1Context(ctx context.Context, cfg ExpConfig) (*Table1Result, error) {
	e := cfg.engine()
	benches := workloads.All(cfg.Scale)
	// The profile comes from the un-prefetched (O2) binary: profiling the
	// O3 binary would hide exactly the loops whose static prefetches work.
	// Loop IDs are stable across levels.
	train := make([]Job, len(benches))
	for i, b := range benches {
		train[i] = Job{Name: b.Name + "/profile", Compile: benchSpec(b, cfg.Scale, compiler.O2), Config: cfg.monitorConfig()}
	}
	profiles, err := e.RunJobs(ctx, "table1/profile", train)
	if err != nil {
		return nil, err
	}

	rows := make([]Table1Row, len(benches))
	jobs := make([]Job, 0, 2*len(benches))
	for i, b := range benches {
		noPf, err := e.Cache().Build(train[i].Compile)
		if err != nil {
			return nil, err
		}
		keep, coverage := selectLoops(profiles[i], noPf, table1CoverTarget)
		o3 := benchSpec(b, cfg.Scale, compiler.O3)
		filtered := o3
		filtered.Options.PrefetchLoops = keep
		rows[i] = Table1Row{Name: b.Name, ProfileCoverage: coverage}
		jobs = append(jobs,
			Job{Name: b.Name + "/o3", Compile: o3, Config: cfg.runConfig()},
			Job{Name: b.Name + "/filtered", Compile: filtered, Config: cfg.runConfig()},
		)
	}
	runs, err := e.RunJobs(ctx, "table1/o3", jobs)
	if err != nil {
		return nil, err
	}

	for i := range rows {
		full, err := e.Cache().Build(jobs[2*i].Compile)
		if err != nil {
			return nil, err
		}
		filtered, err := e.Cache().Build(jobs[2*i+1].Compile)
		if err != nil {
			return nil, err
		}
		base, filt := runs[2*i], runs[2*i+1]
		r := &rows[i]
		r.LoopsO3 = full.LoopsPrefetched
		r.LoopsProfile = filtered.LoopsPrefetched
		r.NormExecTime = float64(filt.CPU.Cycles) / float64(base.CPU.Cycles)
		r.NormBinarySize = float64(filtered.Image.BundleCount) / float64(full.Image.BundleCount)
	}
	return &Table1Result{Rows: rows}, nil
}

// FilteredFraction reports the average fraction of prefetch-scheduled loops
// the profile filtered out (the paper reports 83%).
func (t *Table1Result) FilteredFraction() float64 {
	var kept, total float64
	for _, r := range t.Rows {
		kept += float64(r.LoopsProfile)
		total += float64(r.LoopsO3)
	}
	if total == 0 {
		return 0
	}
	return 1 - kept/total
}

// Render prints Table 1.
func (t *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: Profile Guided Static Prefetching\n")
	fmt.Fprintf(&b, "%-10s %16s %16s %14s %14s\n",
		"benchmark", "loops@O3", "loops@O3+prof", "norm time", "norm size")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %16d %16d %14.3f %14.3f\n",
			r.Name, r.LoopsO3, r.LoopsProfile, r.NormExecTime, r.NormBinarySize)
	}
	fmt.Fprintf(&b, "average fraction of prefetch loops filtered out: %.0f%% (paper: 83%%)\n",
		t.FilteredFraction()*100)
	return b.String()
}

// Table2Row is one column of the paper's Table 2.
type Table2Row struct {
	Name     string
	Direct   int
	Indirect int
	Pointer  int
	Phases   int
}

// Table2Result is the prefetching data analysis of Table 2.
type Table2Result struct {
	Rows []Table2Row
}

// RunTable2Context reproduces Table 2 from the Fig. 7(a) ADORE runs (O2
// binaries): the number of prefetches inserted per reference pattern and
// the number of optimized phases. With a shared engine the underlying
// Fig. 7(a) runs come straight from the engine's caches.
func RunTable2Context(ctx context.Context, cfg ExpConfig) (*Table2Result, error) {
	fig7, err := RunFig7Context(ctx, cfg, compiler.O2)
	if err != nil {
		return nil, err
	}
	return Table2FromFig7(fig7), nil
}

// Table2FromFig7 extracts Table 2 from an existing Fig. 7(a) sweep.
func Table2FromFig7(f *Fig7Result) *Table2Result {
	res := &Table2Result{}
	for _, r := range f.Rows {
		res.Rows = append(res.Rows, Table2Row{
			Name:     r.Name,
			Direct:   r.Stats.DirectPrefetches,
			Indirect: r.Stats.IndirectPrefetches,
			Pointer:  r.Stats.PointerPrefetches,
			Phases:   r.Stats.PhasesOptimized,
		})
	}
	return res
}

// Render prints Table 2.
func (t *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: Prefetching Data Analysis (O2 binaries)\n")
	fmt.Fprintf(&b, "%-10s %8s %9s %16s %8s\n", "benchmark", "direct", "indirect", "pointer-chasing", "phases")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %8d %9d %16d %8d\n", r.Name, r.Direct, r.Indirect, r.Pointer, r.Phases)
	}
	return b.String()
}

// SeriesResult holds the Fig. 8/9 time-series pair for one benchmark.
type SeriesResult struct {
	Name    string
	With    []SeriesPoint
	Without []SeriesPoint
}

// RunSeriesContext reproduces Fig. 8 (art) or Fig. 9 (mcf): CPI and DEAR
// events per 1000 instructions over execution time, with and without
// runtime prefetching, on the O2 binary. The with/without runs are two
// jobs over one cached compile.
func RunSeriesContext(ctx context.Context, cfg ExpConfig, name string) (*SeriesResult, error) {
	b, err := workloads.ByName(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sp := benchSpec(b, cfg.Scale, compiler.O2)
	// The "no runtime prefetching" side is Fig. 11's monitor run: the
	// same PMU sampling, with patch insertion off.
	without := cfg.monitorConfig()
	without.CaptureDear = false
	without.RecordSeries = true
	with := cfg.runConfig()
	with.ADORE = true
	with.Core = cfg.Core
	with.RecordSeries = true
	runs, err := cfg.engine().RunJobs(ctx, "series/"+name, []Job{
		{Name: name + "/without", Compile: sp, Config: without},
		{Name: name + "/with", Compile: sp, Config: with},
	})
	if err != nil {
		return nil, err
	}
	return &SeriesResult{Name: name, With: runs[1].Series, Without: runs[0].Series}, nil
}

// MeanCPI returns the average CPI of a series segment [from, to) as
// fractions of its length.
func MeanCPI(s []SeriesPoint, from, to float64) float64 {
	if len(s) == 0 {
		return 0
	}
	lo, hi := int(from*float64(len(s))), int(to*float64(len(s)))
	if hi > len(s) {
		hi = len(s)
	}
	var sum float64
	n := 0
	for _, p := range s[lo:hi] {
		sum += p.CPI
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the two curves as text columns.
func (s *SeriesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8/9 series for %s: CPI and DEAR/1000-inst over time\n", s.Name)
	b.WriteString("without runtime prefetching:\n")
	renderSeries(&b, s.Without)
	b.WriteString("with runtime prefetching:\n")
	renderSeries(&b, s.With)
	return b.String()
}

func renderSeries(b *strings.Builder, pts []SeriesPoint) {
	step := len(pts)/40 + 1
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		fmt.Fprintf(b, "  cyc=%-12d CPI=%-6.2f %-30s dear/k=%.2f\n",
			p.Cycle, p.CPI, strings.Repeat("*", clampInt(int(p.CPI*8), 0, 30)), p.DearPerK)
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Fig10Row compares the original O2 (software pipelining on, no reserved
// registers) with the restricted O2 used for runtime prefetching.
type Fig10Row struct {
	Name       string
	Restricted uint64  // cycles: no SWP + 4 GRs reserved
	Original   uint64  // cycles: SWP + full register file
	Impact     float64 // restricted/original - 1: cost of the restriction
}

// Fig10Result is the register/SWP impact sweep.
type Fig10Result struct {
	Rows []Fig10Row
}

// RunFig10Context reproduces Fig. 10: the cost of reserving four
// registers and disabling software pipelining, measured without any
// runtime optimization. Each benchmark contributes one restricted-O2 job
// (the compile shared with Fig. 7(a) via the cache) and one original-O2
// job.
func RunFig10Context(ctx context.Context, cfg ExpConfig) (*Fig10Result, error) {
	benches := workloads.All(cfg.Scale)
	jobs := make([]Job, 0, 2*len(benches))
	for _, b := range benches {
		orig := benchSpec(b, cfg.Scale, compiler.O2)
		orig.Options.SWP = true
		orig.Options.ReserveRegs = false
		jobs = append(jobs,
			Job{Name: b.Name + "/restricted", Compile: benchSpec(b, cfg.Scale, compiler.O2), Config: cfg.runConfig()},
			Job{Name: b.Name + "/original", Compile: orig, Config: cfg.runConfig()},
		)
	}
	runs, err := cfg.engine().RunJobs(ctx, "fig10", jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	for i, b := range benches {
		rr, or := runs[2*i], runs[2*i+1]
		res.Rows = append(res.Rows, Fig10Row{
			Name:       b.Name,
			Restricted: rr.CPU.Cycles,
			Original:   or.CPU.Cycles,
			Impact:     float64(rr.CPU.Cycles)/float64(or.CPU.Cycles) - 1,
		})
	}
	return res, nil
}

// Render prints Fig. 10.
func (f *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: Impact of register reservation and disabled SWP (original O2 vs restricted O2)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %8s\n", "benchmark", "restricted", "original O2", "cost")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %14d %14d %7.1f%%  %s\n", r.Name, r.Restricted, r.Original, r.Impact*100, bar(r.Impact))
	}
	return b.String()
}

// Fig11Row measures the ADORE system overhead with prefetch insertion
// disabled.
type Fig11Row struct {
	Name     string
	Plain    uint64 // O2 cycles without ADORE
	Monitor  uint64 // O2 cycles with ADORE attached, insertion disabled
	Overhead float64
}

// Fig11Result is the overhead sweep.
type Fig11Result struct {
	Rows []Fig11Row
}

// RunFig11Context reproduces Fig. 11: execution time with the full ADORE
// pipeline running (sampling, phase detection, trace selection,
// optimization) but no patches installed — isolating the system overhead,
// which the paper measures at 1-2%. Each benchmark contributes a plain job
// and a monitor-only job over one shared O2 compile. On a shared
// engine the plain jobs are Fig. 7(a)'s base runs and the monitor jobs
// Table 1's training runs, all served by the result cache.
func RunFig11Context(ctx context.Context, cfg ExpConfig) (*Fig11Result, error) {
	benches := workloads.All(cfg.Scale)
	jobs := make([]Job, 0, 2*len(benches))
	for _, b := range benches {
		sp := benchSpec(b, cfg.Scale, compiler.O2)
		jobs = append(jobs,
			Job{Name: b.Name + "/plain", Compile: sp, Config: cfg.runConfig()},
			Job{Name: b.Name + "/monitor", Compile: sp, Config: cfg.monitorConfig()},
		)
	}
	runs, err := cfg.engine().RunJobs(ctx, "fig11", jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for i, b := range benches {
		plain, mon := runs[2*i], runs[2*i+1]
		res.Rows = append(res.Rows, Fig11Row{
			Name:     b.Name,
			Plain:    plain.CPU.Cycles,
			Monitor:  mon.CPU.Cycles,
			Overhead: float64(mon.CPU.Cycles)/float64(plain.CPU.Cycles) - 1,
		})
	}
	return res, nil
}

// MaxOverhead reports the largest overhead across the suite.
func (f *Fig11Result) MaxOverhead() float64 {
	var m float64
	for _, r := range f.Rows {
		if r.Overhead > m {
			m = r.Overhead
		}
	}
	return m
}

// Render prints Fig. 11.
func (f *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: Overhead of runtime system without prefetch insertion\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %9s\n", "benchmark", "O2 cycles", "O2+monitor", "overhead")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %14d %14d %8.2f%%\n", r.Name, r.Plain, r.Monitor, r.Overhead*100)
	}
	return b.String()
}

// selectLoops maps the run's DEAR profile back to compiler loops and keeps
// the hottest loops covering the given fraction of miss latency.
func selectLoops(pr *RunResult, build *compiler.BuildResult, coverTarget float64) (map[int]bool, float64) {
	// Paper's procedure: sort the delinquent loads by total miss
	// latency, take loads until they cover 90% of the total, then
	// prefetch every loop containing at least one listed load. Only
	// loads inside prefetchable loops compete — the static prefetcher
	// cannot act on the others anyway.
	perPC := map[uint64]uint64{}
	pcLoop := map[uint64]int{}
	var total uint64
	for _, ev := range pr.DearEvents {
		if l, ok := build.Image.LoopAt(ev.PC); ok && l.Prefetchable {
			perPC[ev.PC] += uint64(ev.Latency)
			pcLoop[ev.PC] = l.ID
			total += uint64(ev.Latency)
		}
	}
	type loadLat struct {
		pc  uint64
		lat uint64
	}
	ranked := make([]loadLat, 0, len(perPC))
	for pc, lat := range perPC {
		ranked = append(ranked, loadLat{pc, lat})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].lat != ranked[j].lat {
			return ranked[i].lat > ranked[j].lat
		}
		return ranked[i].pc < ranked[j].pc
	})
	keep := map[int]bool{}
	if total == 0 {
		return keep, 0
	}
	var covered uint64
	for _, ll := range ranked {
		if float64(covered) >= coverTarget*float64(total) {
			break
		}
		keep[pcLoop[ll.pc]] = true
		covered += ll.lat
	}
	return keep, float64(covered) / float64(total)
}
