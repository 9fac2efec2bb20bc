package harness

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/program"
	"repro/internal/workloads"
)

// machineTypes are the parts of a simulated machine. A run record — what
// the result cache keeps — must reach none of them.
var machineTypes = map[reflect.Type]bool{
	reflect.TypeOf((*memsys.Memory)(nil)):     true,
	reflect.TypeOf((*memsys.Cache)(nil)):      true,
	reflect.TypeOf((*program.CodeSpace)(nil)): true,
	reflect.TypeOf((*core.Controller)(nil)):   true,
	reflect.TypeOf((*cpu.CPU)(nil)):           true,
}

// reachableMachine walks everything reachable from v — exported and
// unexported fields, slices, maps, interfaces — and returns the machine
// types it meets.
func reachableMachine(v reflect.Value) []string {
	type visit struct {
		ptr uintptr
		typ reflect.Type
	}
	seen := map[visit]bool{}
	found := map[string]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if machineTypes[v.Type()] {
				found[v.Type().String()] = true
			}
			k := visit{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.IsNil() {
				return
			}
			k := visit{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(v)
	out := make([]string, 0, len(found))
	for name := range found {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestResultCacheHoldsRecords: every result the engine hands out through
// its result cache — a miss's first caller and later hits alike — is a
// run record that reaches no part of the machine, and every caller of one
// (build, config) pair gets the same record.
func TestResultCacheHoldsRecords(t *testing.T) {
	b, err := workloads.ByName("gzip", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, 0.02, compiler.O2)
	adore := DefaultRunConfig()
	adore.ADORE = true
	adore.Core = GoldenExpConfig().Core
	adore.Observe = true
	adore.Profile = 997
	adore.RecordSeries = true
	// A DEAR capture makes the two ADORE jobs un-forkable, so RunJobs
	// sends them through the result cache instead of one fork group.
	adore.CaptureDear = true
	profiled := DefaultRunConfig()
	profiled.ADORE = true
	profiled.Core = adore.Core
	profiled.Core.DisableInsertion = true
	profiled.CaptureDear = true
	profiled.RecordSeries = true
	jobs := []Job{
		{Name: "base", Compile: sp, Config: DefaultRunConfig()},
		{Name: "adore", Compile: sp, Config: adore},
		{Name: "profiled", Compile: sp, Config: profiled},
		{Name: "adore-again", Compile: sp, Config: adore}, // a hit within the sweep
	}

	// The walker is not vacuous: a direct run keeps its machine.
	direct, err := RunContext(context.Background(), obsBuild(t, "gzip", 0.02), adore)
	if err != nil {
		t.Fatal(err)
	}
	if got := reachableMachine(reflect.ValueOf(direct)); !slices.Contains(got, "*memsys.Memory") || !slices.Contains(got, "*core.Controller") {
		t.Fatalf("a direct run reaches %v; the walker misses the machine", got)
	}

	e := NewEngine(EngineConfig{Parallelism: 1})
	first, _, err := e.RunJobs(context.Background(), "records", jobs)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := e.RunJobs(context.Background(), "records", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.Results().Stats(); misses != 3 || hits != 5 {
		t.Fatalf("result cache %d hits / %d misses, want 5/3", hits, misses)
	}
	if first[3] != first[1] {
		t.Error("a hit within the sweep got a different record than the first caller")
	}
	for i := range jobs {
		if again[i] != first[i] {
			t.Errorf("%s: a later hit got a different record than the first caller", jobs[i].Name)
		}
		res := first[i]
		if got := reachableMachine(reflect.ValueOf(res)); len(got) > 0 {
			t.Errorf("%s: record reaches machine parts %v", jobs[i].Name, got)
		}
		if res.FinalMemory != nil || res.Arch != nil || res.Code != nil || res.Controller != nil {
			t.Errorf("%s: record keeps machine fields", jobs[i].Name)
		}
		if res.CPU.Retired == 0 || res.Mem.L1D.Accesses == 0 {
			t.Errorf("%s: record lost its counters: cpu %+v, hierarchy %+v", jobs[i].Name, res.CPU, res.Mem)
		}
	}
	if r := first[1]; r.Core == nil || r.Obs == nil || r.CPIStack == nil || r.Profile == nil || len(r.Series) == 0 {
		t.Error("ADORE record lost an output: core stats, events, CPI stack, profile or series")
	}
	if r := first[2]; len(r.DearEvents) == 0 || len(r.Series) == 0 || r.Core == nil || r.Core.TracesPatched != 0 {
		t.Error("profiled (monitor) record lost its DEAR events, series or core stats, or patched")
	}
	if first[1].CPU != direct.CPU || first[1].Mem != direct.Mem {
		t.Error("the cached record's counters differ from a direct run of the same build")
	}
}

// TestBuildCacheSharesDataPerKernel: builds whose kernels declare the
// same arrays hold one sealed data heap — InitData runs once across them,
// through whichever build asks first — and a kernel with other arrays
// keeps its own. The O2, O3 and profile-filtered O3 builds of one
// benchmark share; so do two scales of it, because a workload's scale
// sets trip and repeat counts, not its arrays.
func TestBuildCacheSharesDataPerKernel(t *testing.T) {
	c := NewBuildCache()
	build := func(name string, scale float64, level compiler.OptLevel, keep map[int]bool) *compiler.BuildResult {
		t.Helper()
		b, err := workloads.ByName(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		sp := benchSpec(b, scale, level)
		sp.Options.PrefetchLoops = keep
		br, err := c.Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	o2 := build("mcf", 0.02, compiler.O2, nil)
	o3 := build("mcf", 0.02, compiler.O3, nil)
	filtered := build("mcf", 0.02, compiler.O3, map[int]bool{})
	rescaled := build("mcf", 0.1, compiler.O2, nil)
	other := build("gzip", 0.02, compiler.O2, nil)
	if filtered.Image.BundleCount == o3.Image.BundleCount {
		t.Fatal("the filtered O3 build matches plain O3; the sharing check would not cover a third build")
	}

	builds := []*compiler.BuildResult{o2, o3, filtered, rescaled, other}
	fresh := make([]*memsys.Memory, len(builds))
	calls := make([]atomic.Int32, len(builds))
	for i, br := range builds {
		fresh[i] = freshInit(br.Image)
		orig := br.Image.InitData
		br.Image.InitData = func(m *memsys.Memory) {
			calls[i].Add(1)
			orig(m)
		}
	}
	for _, i := range []int{2, 1, 4, 0, 3, 2, 0, 4} {
		m := builds[i].Image.NewMemory()
		if addr, got, want, ok := memsys.FirstDiff(m, fresh[i]); ok {
			t.Errorf("build %d: data memory differs from its own InitData at %#x: %#x vs %#x", i, addr, got, want)
		}
	}
	// The first build of a kernel's arrays seals the heap; the others fork it.
	want := []int32{1, 0, 0, 0, 1}
	for i := range builds {
		if got := calls[i].Load(); got != want[i] {
			t.Errorf("build %d ran InitData %d times, want %d", i, got, want[i])
		}
	}
	if _, _, _, ok := memsys.FirstDiff(fresh[0], fresh[4]); !ok {
		t.Error("two benchmarks produced the same data; the non-sharing check is vacuous")
	}
}

// TestBuildCacheBounded: compiling more distinct scales than the cache's
// bound leaves at most the bound cached, and a key evicted on the way
// recompiles on its next request and still forks its kernel's one sealed
// data heap, which the cache keeps per kernel rather than per build.
func TestBuildCacheBounded(t *testing.T) {
	c := NewBuildCache()
	build := func(i int) *compiler.BuildResult {
		t.Helper()
		scale := 0.01 + float64(i)/1e4
		b, err := workloads.ByName("mcf", scale)
		if err != nil {
			t.Fatal(err)
		}
		br, err := c.Build(benchSpec(b, scale, compiler.O2))
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	first := build(0)
	for i := 1; i <= buildCacheCap; i++ {
		build(i)
	}
	if n := c.flight.Len(); n > buildCacheCap {
		t.Fatalf("%d builds cached, bound %d", n, buildCacheCap)
	}
	_, missesBefore := c.Stats()
	again := build(0)
	if _, misses := c.Stats(); misses != missesBefore+1 || again == first {
		t.Fatal("the least recently used build was not evicted: asking for it again did not recompile")
	}
	want := freshInit(again.Image)
	var calls atomic.Int32
	orig := again.Image.InitData
	again.Image.InitData = func(m *memsys.Memory) {
		calls.Add(1)
		orig(m)
	}
	m := again.Image.NewMemory()
	if n := calls.Load(); n != 0 {
		t.Errorf("the recompiled build ran its own InitData %d times; it should fork the kernel's sealed heap", n)
	}
	if addr, got, w, ok := memsys.FirstDiff(m, want); ok {
		t.Errorf("recompiled build's data memory differs from its own InitData at %#x: %#x vs %#x", addr, got, w)
	}
}
