package harness

import (
	"context"
	"flag"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate testdata/golden/corpus.json instead of comparing against it")

const goldenPath = "testdata/golden/corpus.json"

// goldenO2 is the golden-scale Fig. 7(a) O2 sweep on an explicit 4-worker
// engine, computed once: TestGoldenCorpus pins it against the corpus and
// runs its other sweeps on the same engine, and
// TestFig7SerialParallelIdentical is its serial counterpart.
var goldenO2 struct {
	once sync.Once
	cfg  ExpConfig
	res  *Fig7Result
	err  error
}

// goldenFig7O2 returns the shared sweep and the configuration, engine
// included, that ran it.
func goldenFig7O2(t *testing.T) (ExpConfig, *Fig7Result) {
	t.Helper()
	goldenO2.once.Do(func() {
		goldenO2.cfg = GoldenExpConfig()
		goldenO2.cfg.Engine = NewEngine(EngineConfig{Parallelism: 4})
		goldenO2.res, goldenO2.err = RunFig7Context(context.Background(), goldenO2.cfg, compiler.O2)
	})
	if goldenO2.err != nil {
		t.Fatal(goldenO2.err)
	}
	return goldenO2.cfg, goldenO2.res
}

// TestGoldenCorpus re-runs every pinned sweep at the corpus scale and
// compares against the checked-in baseline. Run with -update-golden after
// an intentional model change to regenerate the corpus (and say why in the
// commit message).
func TestGoldenCorpus(t *testing.T) {
	cfg := GoldenExpConfig()
	if *updateGolden {
		g, err := CollectGolden(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Save(goldenPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden corpus regenerated at %s", goldenPath)
		return
	}

	g, err := LoadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if g.Scale != cfg.Scale {
		t.Fatalf("corpus scale %g but GoldenExpConfig scale %g — regenerate with -update-golden",
			g.Scale, cfg.Scale)
	}

	ctx := context.Background()
	cfg, o2 := goldenFig7O2(t)
	o3, err := RunFig7Context(ctx, cfg, compiler.O3)
	if err != nil {
		t.Fatal(err)
	}
	// Every Table 1 run is an engine job, so the result cache accounts
	// for all 51: its 17 training runs and 17 filtered O3 runs are new
	// simulations, and its 17 O3 base runs are Fig. 7(b)'s base runs.
	hitsBefore, missesBefore := cfg.Engine.Results().Stats()
	t1, err := RunTable1Context(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cfg.Engine.Results().Stats()
	if hits-hitsBefore != 17 || misses-missesBefore != 34 {
		t.Errorf("table1 added %d result-cache hits and %d misses, want 17 and 34",
			hits-hitsBefore, misses-missesBefore)
	}
	for _, d := range g.Compare(o2, o3, t1, Table2FromFig7(o2)) {
		t.Error(d)
	}

	// Fig. 11 on the same engine simulates nothing new: its plain runs
	// are Fig. 7(a)'s base runs and its monitor runs Table 1's training
	// runs. It is checked here rather than pinned in the corpus, which
	// stays as it is.
	_, missesBefore = cfg.Engine.Results().Stats()
	f11, err := RunFig11Context(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cfg.Engine.Results().Stats(); misses != missesBefore {
		t.Errorf("fig11 after table1 added %d result-cache misses, want 0", misses-missesBefore)
	}
	if len(f11.Rows) != len(o2.Rows) {
		t.Fatalf("fig11 has %d rows, fig7a %d", len(f11.Rows), len(o2.Rows))
	}
	for i, r := range f11.Rows {
		if r.Name != o2.Rows[i].Name || r.Plain != o2.Rows[i].Base {
			t.Errorf("fig11 row %d (%s): plain cycles %d, fig7a %s base %d", i, r.Name, r.Plain, o2.Rows[i].Name, o2.Rows[i].Base)
		}
		if r.Overhead < 0 || r.Overhead > 0.02 {
			t.Errorf("fig11/%s: monitor overhead %.2f%%, want within [0, 2%%]", r.Name, r.Overhead*100)
		}
	}
}

// singleBenchFig7 runs one benchmark's base/adore pair — the cheap probe
// the perturbation test compares against the corpus.
func singleBenchFig7(t *testing.T, cfg ExpConfig, name string, level compiler.OptLevel) *Fig7Result {
	t.Helper()
	b, err := workloads.ByName(name, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	build, err := NewEngine(EngineConfig{}).Cache().Build(benchSpec(b, cfg.Scale, level))
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunContext(context.Background(), build, cfg.runConfig())
	if err != nil {
		t.Fatal(err)
	}
	ac := cfg.runConfig()
	ac.ADORE = true
	ac.Core = cfg.Core
	adore, err := RunContext(context.Background(), build, ac)
	if err != nil {
		t.Fatal(err)
	}
	return &Fig7Result{Level: level, Rows: []SpeedupRow{{
		Name:    name,
		Base:    base.CPU.Cycles,
		ADORE:   adore.CPU.Cycles,
		Speedup: Speedup(base.CPU.Cycles, adore.CPU.Cycles),
		Stats:   *adore.Core,
	}}}
}

// TestGoldenCorpusCatchesPerturbation proves the corpus has teeth: an
// unchanged run of one benchmark matches it, and turning a single cache
// parameter pushes the same benchmark outside tolerance.
func TestGoldenCorpusCatchesPerturbation(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating corpus")
	}
	g, err := LoadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GoldenExpConfig()

	clean := singleBenchFig7(t, cfg, "mcf", compiler.O2)
	if divs := g.CompareFig7(clean); len(divs) != 0 {
		t.Fatalf("unperturbed mcf run diverges from corpus: %v", divs)
	}

	perturb := []struct {
		name  string
		tweak func(*memsys.HierarchyConfig)
	}{
		{"mem-latency", func(h *memsys.HierarchyConfig) { h.MemLatency += 80 }},
		{"l2-hit-latency", func(h *memsys.HierarchyConfig) { h.L2.HitLat *= 2 }},
	}
	for _, p := range perturb {
		t.Run(p.name, func(t *testing.T) {
			h := memsys.DefaultConfig()
			p.tweak(&h)
			pc := cfg
			pc.Hierarchy = &h
			hot := singleBenchFig7(t, pc, "mcf", compiler.O2)
			divs := g.CompareFig7(hot)
			if len(divs) == 0 {
				t.Fatalf("%s perturbation did not move mcf off the golden corpus", p.name)
			}
			t.Logf("caught: %v", divs)
		})
	}
}
