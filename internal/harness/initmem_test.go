package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
	"repro/internal/workloads"
)

// freshMemoryRun is the reference for the sealed data memory: an ADORE run
// assembled by hand, as runImage is, but over a memory that InitData fills
// directly, with no fork of a shared base anywhere.
func freshMemoryRun(t *testing.T, img *program.Image, cfg RunConfig) (cpu.Stats, *memsys.Memory) {
	t.Helper()
	code := program.NewCodeSpace()
	seg := &program.Segment{Name: img.Code.Name, Base: img.Code.Base,
		Bundles: append([]isa.Bundle{}, img.Code.Bundles...)}
	if err := code.AddSegment(seg); err != nil {
		t.Fatal(err)
	}
	mem := memsys.NewMemory()
	img.InitData(mem)
	p := pmu.New(cfg.Core.Sampling)
	m := cpu.New(cfg.CPU, code, mem, memsys.NewHierarchy(cfg.Hierarchy), p)
	m.SetPC(img.Entry)
	m.SetImage(img)
	ctrl, err := core.NewController(cfg.Core, code, p)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetImage(img)
	ctrl.Attach(m)
	st, err := m.RunContext(context.Background(), cfg.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("reference run did not halt")
	}
	p.Stop()
	return st, mem
}

// freshInit returns a memory filled by one direct InitData call.
func freshInit(img *program.Image) *memsys.Memory {
	m := memsys.NewMemory()
	img.InitData(m)
	return m
}

// TestSealedDataMemoryIsolation: runs of a build start from forks of a
// sealed data memory that the build cache seals once per kernel and shares
// between the O2 and O3 builds. Whether the runs of both builds go
// concurrently or one after another, each must end in the same memory and
// cpu.Stats as a run of its own build over freshly initialized memory, and
// no run's stores may reach the sealed base, a sibling run or a run of the
// other build.
func TestSealedDataMemoryIsolation(t *testing.T) {
	const scale = 0.02
	b, err := workloads.ByName("bzip2", scale)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBuildCache()
	var builds []*compiler.BuildResult
	for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
		build, err := c.Build(benchSpec(b, scale, level))
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, build)
	}
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = GoldenExpConfig().Core

	wantStats := make([]cpu.Stats, len(builds))
	wantMem := make([]*memsys.Memory, len(builds))
	var stored uint64
	for k, build := range builds {
		wantStats[k], wantMem[k] = freshMemoryRun(t, build.Image, rc)
		addr, _, _, ok := memsys.FirstDiff(wantMem[k], freshInit(build.Image))
		if !ok {
			t.Fatal("reference run stored nothing; the isolation checks below would be vacuous")
		}
		stored = addr
	}
	if wantStats[0] == wantStats[1] {
		t.Fatal("O2 and O3 runs simulate alike; the cross-build checks would be vacuous")
	}
	img := builds[0].Image
	initialized, _, _, ok := memsys.FirstDiff(freshInit(img), memsys.NewMemory())
	if !ok {
		t.Fatal("InitData wrote nothing")
	}

	// Run k of each phase belongs to builds[k%2]: two concurrent runs per
	// build, then one more of each in sequence.
	const concurrent = 4
	results := make([]*RunResult, concurrent, concurrent+2)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(builds[i%2], rc)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		res, err := Run(builds[i], rc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}

	check := func(when string, i int, res *RunResult) {
		t.Helper()
		k := i % 2
		if res.CPU != wantStats[k] {
			t.Errorf("%s: run %d (%s) cpu stats differ from the fresh-memory run:\n got  %+v\n want %+v",
				when, i, builds[k].Image.Name, res.CPU, wantStats[k])
		}
		if addr, got, want, ok := memsys.FirstDiff(res.FinalMemory, wantMem[k]); ok {
			t.Errorf("%s: run %d final memory differs from the fresh-memory run at %#x: %#x vs %#x",
				when, i, addr, got, want)
		}
	}
	checkBases := func(when string) {
		t.Helper()
		for k, build := range builds {
			if addr, got, want, ok := memsys.FirstDiff(build.Image.NewMemory(), freshInit(build.Image)); ok {
				t.Fatalf("%s: stores reached build %d's sealed base at %#x: %#x vs %#x", when, k, addr, got, want)
			}
		}
	}
	for i, res := range results {
		check("after the runs", i, res)
	}
	checkBases("after the runs")

	// Store into one O2 run's final memory, both where the runs stored and
	// where InitData put the first data: neither base, no sibling and no
	// O3 run may see it.
	scribbled := results[0].FinalMemory
	for _, addr := range []uint64{stored, initialized} {
		scribbled.WriteN(addr, 1, ^scribbled.ReadN(addr, 1))
	}
	for i, res := range results[1:] {
		check("after a sibling's stores", i+1, res)
	}
	checkBases("after a sibling's stores")
}
