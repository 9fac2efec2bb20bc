package harness

import (
	"context"
	"math/rand"
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
	profiled := DefaultRunConfig()
	profiled.Core = adore.Core
	profiled.SampleOnly = true
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
	first, err := e.RunJobs(context.Background(), "records", jobs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.RunJobs(context.Background(), "records", jobs)
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
	if len(first[2].DearEvents) == 0 {
		t.Error("profiled record lost its DEAR events")
	}
	if first[1].CPU != direct.CPU || first[1].Mem != direct.Mem {
		t.Error("the cached record's counters differ from a direct run of the same build")
	}
}

// TestResultCacheLRUOrder: after any mix of fills and touches, a full
// cache evicts exactly the least-recently-touched key — checked against a
// reference model over a seeded sequence of requests.
func TestResultCacheLRUOrder(t *testing.T) {
	const capacity = 4
	c := NewResultCacheBounded(capacity)
	c.runFn = func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error) {
		return &RunResult{Name: "stub"}, nil
	}
	cfg := DefaultRunConfig()
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	var model []string // least recently touched first
	var wantEvictions uint64
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 400; step++ {
		k := keys[rng.Intn(len(keys))]
		if _, err := c.Run(context.Background(), k, nil, cfg); err != nil {
			t.Fatal(err)
		}
		if i := slices.Index(model, k); i >= 0 {
			model = slices.Delete(model, i, i+1)
		}
		model = append(model, k)
		if len(model) > capacity {
			model = model[1:]
			wantEvictions++
		}

		c.mu.Lock()
		var held []string
		for key := range c.entries {
			held = append(held, key)
		}
		var order []string
		for el := c.order.Front(); el != nil; el = el.Next() {
			order = append(order, el.Value.(string))
		}
		c.mu.Unlock()
		slices.Sort(held)
		want := make([]string, len(model))
		for i, m := range model {
			want[i] = m + "|" + cfg.Fingerprint()
		}
		if !slices.Equal(order, want) {
			t.Fatalf("step %d (%s): recency order %v, want %v", step, k, order, want)
		}
		slices.Sort(want)
		if !slices.Equal(held, want) {
			t.Fatalf("step %d (%s): cache holds %v, want %v", step, k, held, want)
		}
	}
	if got := c.Evictions(); got != wantEvictions {
		t.Fatalf("evictions = %d, want %d", got, wantEvictions)
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
