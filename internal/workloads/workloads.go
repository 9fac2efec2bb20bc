// Package workloads defines the 17 SPEC CPU2000-like synthetic benchmarks
// of the reproduction. Each kernel is built to exhibit the memory behaviour
// the paper reports for its namesake — reference patterns (direct /
// indirect / pointer-chasing), working-set sizes relative to the simulated
// Itanium 2 hierarchy, phase structure, and the specific failure modes
// (fp-int address computation, miss latency spread over many loads,
// bandwidth-bound loops, runs too short for phase detection).
//
// DESIGN.md §4 documents the modelling intent per benchmark; EXPERIMENTS.md
// compares the resulting shapes with the paper's.
package workloads

import (
	"fmt"

	"repro/internal/compiler"
)

// Class labels a benchmark suite half, as in the paper's Fig. 7 grouping.
type Class string

const (
	INT Class = "SPECint2000"
	FP  Class = "SPECfp2000"
)

// Benchmark is one synthetic SPEC2000 stand-in.
type Benchmark struct {
	Name   string
	Class  Class
	Kernel *compiler.Kernel

	// Paper-reported behaviour notes used by EXPERIMENTS.md.
	PaperNote string
}

// scaleRepeat scales a phase repeat count, keeping at least one iteration.
func scaleRepeat(n int64, scale float64) int64 {
	v := int64(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// suite is the benchmark table in the paper's Fig. 7 order (integer
// programs first). Each constructor builds only its own kernel, so a name
// lookup builds nothing and ByName builds exactly one benchmark.
var suite = [...]struct {
	name  string
	build func(scale float64) Benchmark
}{
	{"bzip2", bzip2}, {"gzip", gzip}, {"mcf", mcf}, {"vpr", vpr}, {"parser", parser},
	{"gap", gap}, {"vortex", vortex}, {"gcc", gcc},
	{"ammp", ammp}, {"art", art}, {"applu", applu}, {"equake", equake}, {"facerec", facerec},
	{"fma3d", fma3d}, {"lucas", lucas}, {"mesa", mesa}, {"swim", swim},
}

// All returns the 17 benchmarks in the paper's Fig. 7 order (integer
// programs first). scale multiplies phase repeat counts: 1.0 reproduces the
// standard run lengths (tens of millions of simulated instructions), tests
// use smaller values.
func All(scale float64) []Benchmark {
	out := make([]Benchmark, 0, len(suite))
	for _, e := range suite {
		out = append(out, e.build(scale))
	}
	return out
}

// ByName returns one benchmark at the given scale, building only that one.
func ByName(name string, scale float64) (Benchmark, error) {
	i := index(name)
	if i < 0 {
		return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return suite[i].build(scale), nil
}

// Known reports whether name is a suite benchmark, without building it.
func Known(name string) bool { return index(name) >= 0 }

// index returns name's position in the suite table, or -1.
func index(name string) int {
	for i, e := range suite {
		if e.name == name {
			return i
		}
	}
	return -1
}

// Names lists the benchmark names in suite order.
func Names() []string {
	names := make([]string, 0, len(suite))
	for _, e := range suite {
		names = append(names, e.name)
	}
	return names
}

// ---- shared building blocks ----

// affLoad returns a strided load statement.
func affLoad(dst, array string, stride int64, size int) compiler.Stmt {
	return compiler.Stmt{
		Kind: compiler.SLoadInt, Dst: dst, Size: size,
		Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: array, InnerStride: stride},
	}
}

// affLoadF returns a strided FP load statement.
func affLoadF(dst, array string, stride int64) compiler.Stmt {
	return compiler.Stmt{
		Kind: compiler.SLoadFloat, Dst: dst,
		Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: array, InnerStride: stride},
	}
}

// affLoadFOff is affLoadF with a starting byte offset. Staggering the
// offsets of concurrently streamed arrays de-aligns their cache-line
// crossings, as unrelated heap arrays are in real programs; perfectly
// co-aligned streams would always latch the same (last) load in the DEAR.
func affLoadFOff(dst, array string, stride, offset int64) compiler.Stmt {
	return compiler.Stmt{
		Kind: compiler.SLoadFloat, Dst: dst,
		Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: array, InnerStride: stride, Offset: offset},
	}
}

// affStoreF returns a strided FP store statement.
func affStoreF(src, array string, stride int64) compiler.Stmt {
	return compiler.Stmt{
		Kind: compiler.SStoreFloat, A: src,
		Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: array, InnerStride: stride},
	}
}

// chaseLoads returns the canonical two-load pointer chase (Fig. 5C):
// payload = p->field; p = p->next.
func chaseLoads(ptr, payload string, payOff, nextOff int64) []compiler.Stmt {
	return []compiler.Stmt{
		{Kind: compiler.SLoadInt, Dst: payload, Size: 8,
			Ref: &compiler.Ref{Kind: compiler.RefPointer, PtrTemp: ptr, Offset: payOff}},
		{Kind: compiler.SLoadInt, Dst: ptr, Size: 8,
			Ref: &compiler.Ref{Kind: compiler.RefPointer, PtrTemp: ptr, Offset: nextOff}},
	}
}

// intChain appends n dependent integer ops (1 cycle each) that hide load
// latency behind computation — the mechanism that makes gap/applu-style
// loops insensitive to prefetching.
func intChain(dst string, n int) []compiler.Stmt {
	out := make([]compiler.Stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, compiler.Stmt{Kind: compiler.SAddImm, Dst: dst, A: dst, Imm: 1})
	}
	return out
}

// withSetup prepends a one-shot initialization phase of small cache-warm
// loops. Real benchmarks carry many such loops; at O3 the static prefetcher
// schedules them for prefetching even though they never miss, and the
// Table 1 profile-guided pass is what filters them back out ("83% of loops
// scheduled for prefetching have been filtered out").
func withSetup(k *compiler.Kernel, n int) *compiler.Kernel {
	k.Arrays = append(k.Arrays, compiler.Array{
		Name: "warm", Elem: 8, N: 1 << 9,
		Init: compiler.InitSpec{Kind: compiler.InitLinear, Mult: 1},
	})
	setup := compiler.Phase{Name: "setup", Repeat: 1}
	for i := 0; i < n; i++ {
		setup.Loops = append(setup.Loops, &compiler.Loop{
			Name:      fmt.Sprintf("init%d", i),
			NoSWP:     true,
			OuterTrip: 1,
			InnerTrip: 1 << 9,
			Body: []compiler.Stmt{
				{Kind: compiler.SLoadInt, Dst: "wv", Size: 8,
					Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "warm", InnerStride: 8}},
				{Kind: compiler.SAddImm, Dst: "wv2", A: "wv", Imm: int64(i)},
				{Kind: compiler.SStoreInt, A: "wv2", Size: 8,
					Ref: &compiler.Ref{Kind: compiler.RefAffine, Array: "warm", InnerStride: 8}},
			},
		})
	}
	k.Phases = append([]compiler.Phase{setup}, k.Phases...)
	return k
}

// fpChain appends n dependent FMAs.
func fpChain(dst, mul string, n int) []compiler.Stmt {
	out := make([]compiler.Stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, compiler.Stmt{Kind: compiler.SFMA, Dst: dst, A: dst, B: mul, C: dst})
	}
	return out
}
