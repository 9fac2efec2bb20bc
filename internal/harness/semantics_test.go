package harness

import (
	"context"
	"testing"

	"repro/internal/compiler"
)

// resultKernel streams a large array and stores a value derived from every
// element — the final contents of "out" witness every iteration of every
// phase, so any mis-patching (lost iterations, clobbered registers, wrong
// prefetch side effects) changes observable results.
func resultKernel() *compiler.Kernel {
	n := int64(1 << 16)
	return &compiler.Kernel{
		Name: "witness",
		Arrays: []compiler.Array{
			{Name: "a", Elem: 8, N: n, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 7, Add: 3}},
			{Name: "idx", Elem: 4, N: n, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 97, Mod: n}},
			{Name: "b", Elem: 8, N: n, Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 5}},
			{Name: "chain", N: 1 << 12, Init: compiler.InitSpec{Kind: compiler.InitChain, NodeSize: 128, NextOff: 8, ShufflePct: 10, Seed: 3}},
			{Name: "out", Elem: 8, N: n, Init: compiler.InitSpec{Kind: compiler.InitZero}},
		},
		Phases: []compiler.Phase{
			{
				Name:   "direct-indirect",
				Repeat: 12,
				Loops: []*compiler.Loop{{
					Name:      "mix",
					OuterTrip: 1,
					InnerTrip: n,
					Body: []compiler.Stmt{
						{Kind: compiler.SLoadInt, Dst: "v", Size: 8,
							Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "a", InnerStride: 8}},
						{Kind: compiler.SLoadInt, Dst: "i", Size: 4,
							Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "idx", InnerStride: 4}},
						{Kind: compiler.SLoadInt, Dst: "g", Size: 8,
							Ref: &compiler.Ref{Kind: compiler.RefIndirect, Array: "b", IndexTemp: "i", Scale: 8}},
						{Kind: compiler.SAdd, Dst: "s", A: "s", B: "v"},
						{Kind: compiler.SAdd, Dst: "s", A: "s", B: "g"},
						{Kind: compiler.SStoreInt, A: "s", Size: 8,
							Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "out", InnerStride: 8}},
					},
					Inits: []compiler.Init{{Temp: "s", IsImm: true, Imm: 0}},
				}},
			},
			{
				Name:   "chase",
				Repeat: 12,
				Loops: []*compiler.Loop{{
					Name:      "walk",
					OuterTrip: 1,
					InnerTrip: 1 << 12,
					Body: []compiler.Stmt{
						{Kind: compiler.SLoadInt, Dst: "pay", Size: 8,
							Ref: &compiler.Ref{Kind: compiler.RefPointer, PtrTemp: "p", Offset: 0}},
						{Kind: compiler.SLoadInt, Dst: "p", Size: 8,
							Ref: &compiler.Ref{Kind: compiler.RefPointer, PtrTemp: "p", Offset: 8}},
						{Kind: compiler.SAdd, Dst: "q", A: "q", B: "pay"},
						{Kind: compiler.SStoreInt, A: "q", Size: 8,
							Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "out", InnerStride: 8}},
					},
					Inits: []compiler.Init{
						{Temp: "p", Array: "chain", Offset: 0},
						{Temp: "q", IsImm: true, Imm: 0},
					},
				}},
			},
		},
	}
}

// TestPatchingPreservesSemantics is the end-to-end safety property of §3.6:
// "the original program's execution sequence has not been changed." Every
// memory-visible result of a heavily patched run must equal the plain
// run's, for all three reference patterns, across phase transitions,
// patching, and prefetch execution.
func TestPatchingPreservesSemantics(t *testing.T) {
	build, err := compiler.Build(resultKernel(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunContext(context.Background(), build, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = fastCore()
	opt, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Core.TracesPatched == 0 {
		t.Fatalf("run was not patched; test is vacuous: %+v", *opt.Core)
	}
	outBase := build.Layout.Base["out"]
	n := int64(1 << 16)
	for i := int64(0); i < n; i++ {
		a := base.CPU
		_ = a
		want := baseMem(t, base, outBase+uint64(i*8))
		got := baseMem(t, opt, outBase+uint64(i*8))
		if want != got {
			t.Fatalf("out[%d]: base %d, patched %d (traces patched: %d)",
				i, want, got, opt.Core.TracesPatched)
		}
	}
	// The semantic instruction stream is identical; the patched run may
	// only add prefetch-related instructions.
	if opt.CPU.Stores != base.CPU.Stores {
		t.Fatalf("store count changed: %d vs %d", opt.CPU.Stores, base.CPU.Stores)
	}
}

func baseMem(t *testing.T, r *RunResult, addr uint64) uint64 {
	t.Helper()
	if r.FinalMemory == nil {
		t.Fatal("run did not keep memory")
	}
	return r.FinalMemory.Read64(addr)
}

// The same property under every §6 extension enabled at once.
func TestExtensionsPreserveSemantics(t *testing.T) {
	build, err := compiler.Build(resultKernel(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunContext(context.Background(), build, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = fastCore()
	rc.Core.OptimizeSWPLoops = true
	rc.Core.PhaseTable = true
	rc.Core.StrideProfiling = true
	opt, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	outBase := build.Layout.Base["out"]
	for i := int64(0); i < 1<<16; i += 101 {
		want := baseMem(t, base, outBase+uint64(i*8))
		got := baseMem(t, opt, outBase+uint64(i*8))
		if want != got {
			t.Fatalf("out[%d]: base %d, extended %d", i, want, got)
		}
	}
}
