package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
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

// TestSealedDataMemoryIsolation: runs of one BuildResult start from forks
// of the image's sealed data memory, built once. Whether they run
// concurrently or one after another, each must end in the same memory and
// cpu.Stats as a run over freshly initialized memory, and no run's stores
// may reach the sealed base or a sibling run.
func TestSealedDataMemoryIsolation(t *testing.T) {
	b := GoldenExpConfig()
	build := obsBuild(t, "bzip2", b.Scale)
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = b.Core
	img := build.Image

	wantStats, wantMem := freshMemoryRun(t, img, rc)
	stored, _, _, ok := memsys.FirstDiff(wantMem, freshInit(img))
	if !ok {
		t.Fatal("reference run stored nothing; the isolation checks below would be vacuous")
	}
	initialized, _, _, ok := memsys.FirstDiff(freshInit(img), memsys.NewMemory())
	if !ok {
		t.Fatal("InitData wrote nothing")
	}

	const concurrent = 4
	results := make([]*RunResult, concurrent, concurrent+2)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(build, rc)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		res, err := Run(build, rc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}

	check := func(when string, i int, res *RunResult) {
		t.Helper()
		if res.CPU != wantStats {
			t.Errorf("%s: run %d cpu stats differ from the fresh-memory run:\n got  %+v\n want %+v",
				when, i, res.CPU, wantStats)
		}
		if addr, got, want, ok := memsys.FirstDiff(res.FinalMemory, wantMem); ok {
			t.Errorf("%s: run %d final memory differs from the fresh-memory run at %#x: %#x vs %#x",
				when, i, addr, got, want)
		}
	}
	for i, res := range results {
		check("after the runs", i, res)
	}
	if addr, got, want, ok := memsys.FirstDiff(img.NewMemory(), freshInit(img)); ok {
		t.Fatalf("a run's stores reached the sealed base at %#x: %#x vs %#x", addr, got, want)
	}

	// Store into one run's final memory, both where the runs stored and
	// where InitData put the first data: neither the base nor any sibling
	// may see it.
	scribbled := results[0].FinalMemory
	for _, addr := range []uint64{stored, initialized} {
		scribbled.WriteN(addr, 1, ^scribbled.ReadN(addr, 1))
	}
	for i, res := range results[1:] {
		check("after a sibling's stores", i+1, res)
	}
	if addr, got, want, ok := memsys.FirstDiff(img.NewMemory(), freshInit(img)); ok {
		t.Fatalf("a sibling's stores reached the sealed base at %#x: %#x vs %#x", addr, got, want)
	}
}
