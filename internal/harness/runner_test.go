package harness

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/pmu"
)

// fastCore returns ADORE parameters scaled for small test runs.
func fastCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.Sampling = pmu.Config{SampleInterval: 2000, SSBSize: 64, DearLatencyMin: 8, HandlerCyclesPerSample: 30}
	cfg.W = 8
	cfg.PollInterval = 20_000
	cfg.StableWindows = 3
	return cfg
}

// streamKernel reads a large int array with unit stride, repeatedly — the
// direct-array pattern.
func streamKernel(elems, reps int64) *compiler.Kernel {
	return &compiler.Kernel{
		Name: "stream",
		Arrays: []compiler.Array{
			{Name: "a", Elem: 8, N: elems, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 1}},
		},
		Phases: []compiler.Phase{{
			Name:   "main",
			Repeat: reps,
			Loops: []*compiler.Loop{{
				Name:      "stream",
				OuterTrip: 1,
				InnerTrip: elems,
				Body: []compiler.Stmt{
					{Kind: compiler.SLoadInt, Dst: "v", Size: 8, Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "a", InnerStride: 8}},
					{Kind: compiler.SAdd, Dst: "s", A: "s", B: "v"},
				},
				Inits: []compiler.Init{{Temp: "s", IsImm: true, Imm: 0}},
			}},
		}},
	}
}

// chaseKernel walks a regular pointer chain — the pointer-chasing pattern.
func chaseKernel(nodes, reps int64) *compiler.Kernel {
	return &compiler.Kernel{
		Name: "chase",
		Arrays: []compiler.Array{
			{Name: "chain", N: nodes, Init: compiler.InitSpec{Kind: compiler.InitChain, NodeSize: 128, NextOff: 8}},
		},
		Phases: []compiler.Phase{{
			Name:   "main",
			Repeat: reps,
			Loops: []*compiler.Loop{{
				Name:      "walk",
				OuterTrip: 1,
				InnerTrip: nodes,
				Body: []compiler.Stmt{
					{Kind: compiler.SLoadInt, Dst: "pay", Size: 8, Ref: &compiler.Ref{Kind: compiler.RefPointer, PtrTemp: "p", Offset: 0}},
					{Kind: compiler.SLoadInt, Dst: "p", Size: 8, Ref: &compiler.Ref{Kind: compiler.RefPointer, PtrTemp: "p", Offset: 8}},
					{Kind: compiler.SAdd, Dst: "s", A: "s", B: "pay"},
				},
				Inits: []compiler.Init{
					{Temp: "p", Array: "chain", Offset: 0},
					{Temp: "s", IsImm: true, Imm: 0},
				},
			}},
		}},
	}
}

// gatherKernel does c[i] += b[a[i]] with a huge b — the indirect pattern.
func gatherKernel(n, targetN, reps int64) *compiler.Kernel {
	return &compiler.Kernel{
		Name: "gather",
		Arrays: []compiler.Array{
			{Name: "idx", Elem: 4, N: n, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 97, Mod: targetN}},
			{Name: "b", Elem: 8, N: targetN, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 5}},
		},
		Phases: []compiler.Phase{{
			Name:   "main",
			Repeat: reps,
			Loops: []*compiler.Loop{{
				Name:      "gather",
				OuterTrip: 1,
				InnerTrip: n,
				Body: []compiler.Stmt{
					{Kind: compiler.SLoadInt, Dst: "i", Size: 4, Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "idx", InnerStride: 4}},
					{Kind: compiler.SLoadInt, Dst: "v", Size: 8, Ref: &compiler.Ref{Kind: compiler.RefIndirect, Array: "b", IndexTemp: "i", Scale: 8}},
					{Kind: compiler.SAdd, Dst: "s", A: "s", B: "v"},
				},
				Inits: []compiler.Init{{Temp: "s", IsImm: true, Imm: 0}},
			}},
		}},
	}
}

func buildO2(t *testing.T, k *compiler.Kernel) *compiler.BuildResult {
	t.Helper()
	res, err := compiler.Build(k, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runPair(t *testing.T, b *compiler.BuildResult) (base, adore *RunResult) {
	t.Helper()
	cfg := DefaultRunConfig()
	var err error
	base, err = RunContext(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ADORE = true
	cfg.Core = fastCore()
	adore, err = RunContext(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return base, adore
}

func TestADOREDirectPrefetchSpeedsUpStream(t *testing.T) {
	b := buildO2(t, streamKernel(1<<17, 12)) // 1 MiB array, streams past L3? (8 MiB footprint > 1.5 MiB L3)
	base, adore := runPair(t, b)
	if adore.Core.DirectPrefetches == 0 {
		t.Fatalf("no direct prefetches inserted: %+v", *adore.Core)
	}
	if adore.Core.TracesPatched == 0 {
		t.Fatal("no trace patched")
	}
	sp := Speedup(base.CPU.Cycles, adore.CPU.Cycles)
	if sp < 0.10 {
		t.Fatalf("speedup = %.3f, want >= 0.10 (base %d, adore %d)", sp, base.CPU.Cycles, adore.CPU.Cycles)
	}
	t.Logf("stream: speedup %.1f%%, stats %+v", sp*100, *adore.Core)
}

func TestADOREPointerPrefetchSpeedsUpChase(t *testing.T) {
	b := buildO2(t, chaseKernel(1<<15, 12)) // 4 MiB chain
	base, adore := runPair(t, b)
	if adore.Core.PointerPrefetches == 0 {
		t.Fatalf("no pointer prefetches inserted: %+v", *adore.Core)
	}
	sp := Speedup(base.CPU.Cycles, adore.CPU.Cycles)
	if sp < 0.10 {
		t.Fatalf("speedup = %.3f, want >= 0.10 (base %d, adore %d)", sp, base.CPU.Cycles, adore.CPU.Cycles)
	}
	t.Logf("chase: speedup %.1f%%, stats %+v", sp*100, *adore.Core)
}

func TestADOREIndirectPrefetchSpeedsUpGather(t *testing.T) {
	b := buildO2(t, gatherKernel(1<<15, 1<<19, 12))
	base, adore := runPair(t, b)
	if adore.Core.IndirectPrefetches == 0 {
		t.Fatalf("no indirect prefetches inserted: %+v", *adore.Core)
	}
	sp := Speedup(base.CPU.Cycles, adore.CPU.Cycles)
	if sp < 0.05 {
		t.Fatalf("speedup = %.3f, want >= 0.05 (base %d, adore %d)", sp, base.CPU.Cycles, adore.CPU.Cycles)
	}
	t.Logf("gather: speedup %.1f%%, stats %+v", sp*100, *adore.Core)
}

func TestDisableInsertionLowOverhead(t *testing.T) {
	b := buildO2(t, streamKernel(1<<16, 10))
	cfg := DefaultRunConfig()
	base, err := RunContext(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ADORE = true
	cfg.Core = fastCore()
	cfg.Core.DisableInsertion = true
	noins, err := RunContext(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noins.Core.TracesPatched != 0 {
		t.Fatal("DisableInsertion patched traces")
	}
	overhead := float64(noins.CPU.Cycles)/float64(base.CPU.Cycles) - 1
	if overhead > 0.05 {
		t.Fatalf("overhead = %.3f, want <= 0.05", overhead)
	}
	t.Logf("monitoring-only overhead: %.2f%%", overhead*100)
}

func TestSemanticsPreservedUnderADORE(t *testing.T) {
	// The chase kernel's payload sum is order-dependent; run both
	// machines and compare memory-visible results by re-running with a
	// store. Simplest check: the patched run halts, retires the same
	// instruction count modulo prefetch code, and the same loads.
	b := buildO2(t, chaseKernel(1<<13, 6))
	base, adore := runPair(t, b)
	if adore.CPU.Loads < base.CPU.Loads {
		t.Fatalf("patched run lost loads: %d vs %d", adore.CPU.Loads, base.CPU.Loads)
	}
	if adore.CPU.Prefetches == 0 {
		t.Fatal("no prefetches executed despite patching")
	}
}

func TestSeriesRecording(t *testing.T) {
	b := buildO2(t, streamKernel(1<<15, 8))
	// A monitor run: the series comes from PMU sampling alone.
	cfg := DefaultRunConfig()
	cfg.ADORE = true
	cfg.Core = fastCore()
	cfg.Core.DisableInsertion = true
	cfg.RecordSeries = true
	r, err := RunContext(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) < 4 {
		t.Fatalf("series points = %d", len(r.Series))
	}
	for i := 1; i < len(r.Series); i++ {
		if r.Series[i].Cycle < r.Series[i-1].Cycle {
			t.Fatal("series not time-ordered")
		}
	}
}
