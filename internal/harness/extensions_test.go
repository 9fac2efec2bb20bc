package harness

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/workloads"
)

func extCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.Sampling = pmu.Config{SampleInterval: 2000, SSBSize: 64, DearLatencyMin: 8, HandlerCyclesPerSample: 30}
	cfg.W = 8
	cfg.PollInterval = 20_000
	cfg.StableWindows = 3
	return cfg
}

// §6 extension: optimizing software-pipelined loops. A SWP-compiled
// streaming workload is refused by the stock optimizer but optimized (and
// sped up) with OptimizeSWPLoops.
func TestExtensionOptimizeSWPLoops(t *testing.T) {
	b, err := workloads.ByName("swim", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opts := compiler.DefaultOptions()
	opts.SWP = true // swim's stencil qualifies for the pipelined schedule
	build, err := compiler.Build(b.Kernel, opts)
	if err != nil {
		t.Fatal(err)
	}

	rc := DefaultRunConfig()
	base, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}

	rc.ADORE = true
	rc.Core = extCore()
	stock, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if stock.CPU.Prefetches > base.CPU.Retired/1000 {
		t.Fatalf("stock optimizer prefetched a SWP loop: %d lfetches, %+v",
			stock.CPU.Prefetches, *stock.Core)
	}

	rc.Core.OptimizeSWPLoops = true
	ext, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Core.DirectPrefetches == 0 || ext.CPU.Prefetches <= stock.CPU.Prefetches {
		t.Fatalf("extension did not optimize the SWP loop: %+v (pf %d vs %d)",
			*ext.Core, ext.CPU.Prefetches, stock.CPU.Prefetches)
	}
	sp := Speedup(stock.CPU.Cycles, ext.CPU.Cycles)
	if sp < 0.03 {
		t.Fatalf("SWP-loop prefetching speedup = %.3f over stock, want >= 0.03", sp)
	}
	t.Logf("SWP extension: +%.1f%% over the stock optimizer on the pipelined binary", sp*100)
}

// rapidPhases builds a workload alternating between two loops faster than
// the stock detector can confirm stability, but slowly enough that each
// recurrence is worth optimizing once recognized.
func rapidPhases() *compiler.Kernel {
	mk := func(name, arr string) compiler.Phase {
		return compiler.Phase{
			Name:   name,
			Repeat: 1, // short visits: ~2 profile windows each
			Loops: []*compiler.Loop{{
				Name:      name,
				OuterTrip: 1,
				InnerTrip: 1 << 16,
				Body: []compiler.Stmt{
					{Kind: compiler.SLoadInt, Dst: "v", Size: 8,
						Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: arr, InnerStride: 8}},
					{Kind: compiler.SAdd, Dst: "s", A: "s", B: "v"},
				},
				Inits: []compiler.Init{{Temp: "s", IsImm: true, Imm: 0}},
			}},
		}
	}
	var phases []compiler.Phase
	for i := 0; i < 60; i++ {
		phases = append(phases, mk("a", "wa"), mk("b", "wb"))
	}
	return &compiler.Kernel{
		Name: "rapid",
		Arrays: []compiler.Array{
			{Name: "wa", Elem: 8, N: 1 << 18, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 3}},
			{Name: "wb", Elem: 8, N: 1 << 18, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 5}},
		},
		Phases: phases,
	}
}

// §6 extension: the phase-signature table recognizes recurring phases from
// a single window, recovering optimizations the stock detector misses on
// rapid phase changes.
func TestExtensionPhaseTable(t *testing.T) {
	build, err := compiler.Build(rapidPhases(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = extCore()
	stock, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}

	rc.Core.PhaseTable = true
	ext, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Core.TableHits == 0 || stock.Core.TableHits != 0 {
		t.Fatalf("table hits: ext %d, stock %d", ext.Core.TableHits, stock.Core.TableHits)
	}
	// Patches persist once installed, so end-to-end the table must at
	// minimum never lose; the mechanism-level latency win is asserted in
	// the detector unit tests (internal/core).
	if float64(ext.CPU.Cycles) > 1.01*float64(stock.CPU.Cycles) {
		t.Fatalf("phase table regressed: %d vs %d cycles", ext.CPU.Cycles, stock.CPU.Cycles)
	}
	t.Logf("phase table: hits %d, first patch %d vs %d, cycles %d vs %d",
		ext.Core.TableHits, ext.Core.FirstPatchCycle, stock.Core.FirstPatchCycle,
		ext.CPU.Cycles, stock.CPU.Cycles)
}

// cvtStride builds a vpr-like loop whose delinquent load's address passes
// through an fp-int conversion (slice fails) but whose actual address
// stream has a constant 40-byte stride — discoverable only by
// instrumentation.
func cvtStride() *compiler.Kernel {
	return &compiler.Kernel{
		Name: "cvt",
		Arrays: []compiler.Array{
			{Name: "xs", Elem: 8, N: 1 << 13, Float: true,
				Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 5, Mod: 1 << 18}},
			{Name: "grid", Elem: 8, N: 1 << 19, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 13}},
		},
		Phases: []compiler.Phase{{
			Name:   "place",
			Repeat: 30,
			Loops: []*compiler.Loop{{
				Name:      "cost",
				OuterTrip: 1,
				InnerTrip: 1 << 13,
				Body: []compiler.Stmt{
					{Kind: compiler.SLoadFloat, Dst: "x",
						Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "xs", InnerStride: 8}},
					{Kind: compiler.SCvtFI, Dst: "gi", A: "x"},
					{Kind: compiler.SLoadInt, Dst: "g", Size: 8,
						Ref: &compiler.Ref{Kind: compiler.RefIndirect, Array: "grid", IndexTemp: "gi", Scale: 8}},
					{Kind: compiler.SAdd, Dst: "acc", A: "acc", B: "g"},
				},
				Inits: []compiler.Init{{Temp: "acc", IsImm: true, Imm: 0}},
			}},
		}},
	}
}

// §6 extension: selective runtime instrumentation discovers the hidden
// constant stride behind the fp-int conversion and prefetches it.
func TestExtensionStrideProfiling(t *testing.T) {
	build, err := compiler.Build(cvtStride(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	base, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}

	rc.ADORE = true
	rc.Core = extCore()
	stock, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if stock.Core.AnalysisFailures == 0 {
		t.Fatalf("stock optimizer should fail on the cvt address: %+v", *stock.Core)
	}
	if stock.Core.StrideProfiled != 0 {
		t.Fatal("stock optimizer ran instrumentation")
	}

	rc.Core.StrideProfiling = true
	rc.Observe = true
	ext, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Core.StrideProfiled == 0 {
		t.Fatalf("no instrumentation experiment started: %+v", *ext.Core)
	}
	if ext.Core.StrideFound == 0 {
		t.Fatalf("hidden 40-byte stride not discovered: %+v", *ext.Core)
	}
	// The reinstall with the profiled prefetch is a patch like any other:
	// one PatchInstalled event per patch Stats counts.
	installs := 0
	for _, e := range ext.Obs.Events {
		if e.Kind == obs.KindPatchInstalled {
			installs++
		}
	}
	if installs != ext.Core.TracesPatched {
		t.Errorf("%d PatchInstalled events, Stats counts %d patches", installs, ext.Core.TracesPatched)
	}
	_ = base
	sp := Speedup(stock.CPU.Cycles, ext.CPU.Cycles)
	if sp < 0.05 {
		t.Fatalf("profiled prefetch speedup over stock = %.3f, want >= 0.05", sp)
	}
	t.Logf("stride profiling: experiments %d, strides found %d, speedup +%.1f%%",
		ext.Core.StrideProfiled, ext.Core.StrideFound, sp*100)
}

// An irregular address stream must not fool the instrumentation into a
// bogus prefetch: the experiment ends with no dominant stride.
func TestExtensionStrideProfilingRejectsIrregular(t *testing.T) {
	k := cvtStride()
	// Genuinely irregular coordinates: pseudo-random index stream (note
	// that a linear-congruential stream would NOT do — it has a constant
	// stride modulo wraparound, which the instrumentation correctly
	// discovers and prefetches).
	k.Arrays[0].Init = compiler.InitSpec{Kind: compiler.InitRandom, Mod: 1 << 18, Seed: 1234}
	build, err := compiler.Build(k, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = extCore()
	rc.Core.StrideProfiling = true
	ext, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Core.StrideProfiled == 0 {
		t.Fatalf("no experiment started: %+v", *ext.Core)
	}
	if ext.Core.StrideFound != 0 {
		t.Fatalf("irregular stream produced a 'dominant' stride: %+v", *ext.Core)
	}
}
