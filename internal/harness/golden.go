package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/pmu"
)

// The golden figure corpus pins the paper-reproduction numbers — Fig. 7(a)
// and 7(b) speedups, Table 1 profile-guided prefetching, Table 2 prefetch
// pattern counts — at a reduced workload scale, as checked-in JSON. The
// regression test re-runs the sweeps and compares against the corpus under
// per-metric tolerances, so a change that shifts simulated performance
// (cache model, pipeline, optimizer heuristics) fails loudly instead of
// silently redrawing the figures.

// GoldenTolerance is the per-metric slack when comparing a fresh sweep
// against the corpus. The simulator is deterministic, so the tolerances are
// not noise margins — they define how much intentional model drift a change
// may introduce before the corpus must be consciously regenerated.
type GoldenTolerance struct {
	RelCycles  float64 // relative, on raw cycle counts
	AbsSpeedup float64 // absolute, on Fig. 7 speedups
	AbsNorm    float64 // absolute, on Table 1 normalized ratios
}

// DefaultGoldenTolerance: cycles within 0.5%, speedups within one point,
// normalized ratios within two points; all integer counts exact.
func DefaultGoldenTolerance() GoldenTolerance {
	return GoldenTolerance{RelCycles: 0.005, AbsSpeedup: 0.01, AbsNorm: 0.02}
}

// GoldenFig7Row is one pinned bar of Fig. 7.
type GoldenFig7Row struct {
	Name    string
	Base    uint64
	ADORE   uint64
	Speedup float64
}

// GoldenTable1Row pins one row of Table 1 (coverage is a selection input,
// not an output metric, so it is not pinned).
type GoldenTable1Row struct {
	Name           string
	LoopsO3        int
	LoopsProfile   int
	NormExecTime   float64
	NormBinarySize float64
}

// GoldenTable2Row pins one column of Table 2; counts are exact.
type GoldenTable2Row struct {
	Name     string
	Direct   int
	Indirect int
	Pointer  int
	Phases   int
}

// GoldenCorpus is the checked-in regression baseline.
type GoldenCorpus struct {
	Scale  float64
	Tol    GoldenTolerance
	Fig7O2 []GoldenFig7Row
	Fig7O3 []GoldenFig7Row
	Table1 []GoldenTable1Row
	Table2 []GoldenTable2Row
}

// GoldenExpConfig is the exact sweep configuration the corpus was collected
// under: reduced workload scale and ADORE parameters scaled down with it so
// the optimizer still detects phases and patches within the shorter runs.
// The regression test and -update-golden must both use this.
func GoldenExpConfig() ExpConfig {
	cfg := core.DefaultConfig()
	cfg.Sampling = pmu.Config{SampleInterval: 2000, SSBSize: 64, DearLatencyMin: 8, HandlerCyclesPerSample: 30}
	cfg.W = 8
	cfg.PollInterval = 20_000
	cfg.StableWindows = 3
	return ExpConfig{Scale: 0.05, Core: cfg}
}

// CollectGolden runs the pinned sweeps — Fig. 7 at both levels, Table 1,
// and Table 2 derived from the Fig. 7(a) runs — on one shared engine.
func CollectGolden(cfg ExpConfig) (*GoldenCorpus, error) {
	if cfg.Engine == nil {
		cfg.Engine = NewEngine(EngineConfig{})
	}
	ctx := context.Background()
	o2, err := RunFig7Context(ctx, cfg, compiler.O2)
	if err != nil {
		return nil, err
	}
	o3, err := RunFig7Context(ctx, cfg, compiler.O3)
	if err != nil {
		return nil, err
	}
	t1, err := RunTable1Context(ctx, cfg)
	if err != nil {
		return nil, err
	}
	g := &GoldenCorpus{Scale: cfg.Scale, Tol: DefaultGoldenTolerance()}
	for _, r := range o2.Rows {
		g.Fig7O2 = append(g.Fig7O2, GoldenFig7Row{Name: r.Name, Base: r.Base, ADORE: r.ADORE, Speedup: r.Speedup})
	}
	for _, r := range o3.Rows {
		g.Fig7O3 = append(g.Fig7O3, GoldenFig7Row{Name: r.Name, Base: r.Base, ADORE: r.ADORE, Speedup: r.Speedup})
	}
	for _, r := range t1.Rows {
		g.Table1 = append(g.Table1, GoldenTable1Row{
			Name: r.Name, LoopsO3: r.LoopsO3, LoopsProfile: r.LoopsProfile,
			NormExecTime: r.NormExecTime, NormBinarySize: r.NormBinarySize,
		})
	}
	for _, r := range Table2FromFig7(o2).Rows {
		g.Table2 = append(g.Table2, GoldenTable2Row{
			Name: r.Name, Direct: r.Direct, Indirect: r.Indirect, Pointer: r.Pointer, Phases: r.Phases,
		})
	}
	return g, nil
}

// LoadGolden reads a corpus from its JSON file.
func LoadGolden(path string) (*GoldenCorpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &GoldenCorpus{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Save writes the corpus as indented JSON, stable for diffing.
func (g *GoldenCorpus) Save(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// withinRel reports |got-want| <= tol*|want| (want 0 requires got 0).
func withinRel(got, want uint64, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(float64(got)-float64(want)) <= tol*float64(want)
}

// CompareFig7 checks every row of a fresh Fig. 7 sweep against the pinned
// side for its optimization level, by benchmark name. Rows in the sweep
// that the corpus does not know are divergences; pinned rows the sweep did
// not run are not (partial sweeps are how the perturbation tests stay
// cheap) — the full regression test checks completeness separately.
func (g *GoldenCorpus) CompareFig7(f *Fig7Result) []string {
	golden := g.Fig7O2
	if f.Level == compiler.O3 {
		golden = g.Fig7O3
	}
	byName := make(map[string]GoldenFig7Row, len(golden))
	for _, r := range golden {
		byName[r.Name] = r
	}
	var divs []string
	for _, r := range f.Rows {
		w, ok := byName[r.Name]
		if !ok {
			divs = append(divs, fmt.Sprintf("fig7@%s/%s: not in golden corpus", f.Level, r.Name))
			continue
		}
		if !withinRel(r.Base, w.Base, g.Tol.RelCycles) {
			divs = append(divs, fmt.Sprintf("fig7@%s/%s: base cycles %d, golden %d (±%.2g rel)",
				f.Level, r.Name, r.Base, w.Base, g.Tol.RelCycles))
		}
		if !withinRel(r.ADORE, w.ADORE, g.Tol.RelCycles) {
			divs = append(divs, fmt.Sprintf("fig7@%s/%s: adore cycles %d, golden %d (±%.2g rel)",
				f.Level, r.Name, r.ADORE, w.ADORE, g.Tol.RelCycles))
		}
		if math.Abs(r.Speedup-w.Speedup) > g.Tol.AbsSpeedup {
			divs = append(divs, fmt.Sprintf("fig7@%s/%s: speedup %.4f, golden %.4f (±%.2g)",
				f.Level, r.Name, r.Speedup, w.Speedup, g.Tol.AbsSpeedup))
		}
	}
	return divs
}

// CompareTable1 checks a fresh Table 1 sweep: loop counts exact,
// normalized ratios within AbsNorm.
func (g *GoldenCorpus) CompareTable1(t *Table1Result) []string {
	byName := make(map[string]GoldenTable1Row, len(g.Table1))
	for _, r := range g.Table1 {
		byName[r.Name] = r
	}
	var divs []string
	for _, r := range t.Rows {
		w, ok := byName[r.Name]
		if !ok {
			divs = append(divs, fmt.Sprintf("table1/%s: not in golden corpus", r.Name))
			continue
		}
		if r.LoopsO3 != w.LoopsO3 || r.LoopsProfile != w.LoopsProfile {
			divs = append(divs, fmt.Sprintf("table1/%s: loops %d/%d, golden %d/%d",
				r.Name, r.LoopsO3, r.LoopsProfile, w.LoopsO3, w.LoopsProfile))
		}
		if math.Abs(r.NormExecTime-w.NormExecTime) > g.Tol.AbsNorm {
			divs = append(divs, fmt.Sprintf("table1/%s: norm time %.4f, golden %.4f (±%.2g)",
				r.Name, r.NormExecTime, w.NormExecTime, g.Tol.AbsNorm))
		}
		if math.Abs(r.NormBinarySize-w.NormBinarySize) > g.Tol.AbsNorm {
			divs = append(divs, fmt.Sprintf("table1/%s: norm size %.4f, golden %.4f (±%.2g)",
				r.Name, r.NormBinarySize, w.NormBinarySize, g.Tol.AbsNorm))
		}
	}
	return divs
}

// CompareTable2 checks a fresh Table 2 against the pinned counts, exactly:
// the prefetch pattern mix is discrete optimizer output, not a measurement.
func (g *GoldenCorpus) CompareTable2(t *Table2Result) []string {
	byName := make(map[string]GoldenTable2Row, len(g.Table2))
	for _, r := range g.Table2 {
		byName[r.Name] = r
	}
	var divs []string
	for _, r := range t.Rows {
		w, ok := byName[r.Name]
		if !ok {
			divs = append(divs, fmt.Sprintf("table2/%s: not in golden corpus", r.Name))
			continue
		}
		if r.Direct != w.Direct || r.Indirect != w.Indirect || r.Pointer != w.Pointer || r.Phases != w.Phases {
			divs = append(divs, fmt.Sprintf("table2/%s: direct/indirect/pointer/phases %d/%d/%d/%d, golden %d/%d/%d/%d",
				r.Name, r.Direct, r.Indirect, r.Pointer, r.Phases, w.Direct, w.Indirect, w.Pointer, w.Phases))
		}
	}
	return divs
}

// Compare checks a complete regeneration of every pinned sweep, including
// that no golden row went missing.
func (g *GoldenCorpus) Compare(o2, o3 *Fig7Result, t1 *Table1Result, t2 *Table2Result) []string {
	var divs []string
	divs = append(divs, g.CompareFig7(o2)...)
	divs = append(divs, g.CompareFig7(o3)...)
	divs = append(divs, g.CompareTable1(t1)...)
	divs = append(divs, g.CompareTable2(t2)...)
	for want, got := range map[string][2]int{
		"fig7@O2": {len(g.Fig7O2), len(o2.Rows)},
		"fig7@O3": {len(g.Fig7O3), len(o3.Rows)},
		"table1":  {len(g.Table1), len(t1.Rows)},
		"table2":  {len(g.Table2), len(t2.Rows)},
	} {
		if got[0] != got[1] {
			divs = append(divs, fmt.Sprintf("%s: %d rows, golden %d", want, got[1], got[0]))
		}
	}
	return divs
}
