package harness

import (
	"context"
	"flag"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

var updatePolicyGolden = flag.Bool("update-policy-golden", false,
	"regenerate testdata/golden/policy_matrix.json instead of comparing against it")

const policyGoldenPath = "testdata/golden/policy_matrix.json"

// straightMatrix holds the golden-scale straight policy matrix, swept once
// per test binary: TestPolicyMatrixGolden and
// TestForkPolicyMatrixBitIdentical both check the same sweep, which costs
// seconds. It is computed in-process on first use, so -update-policy-golden
// still regenerates from a fresh sweep. Callers must not mutate it.
var straightMatrix struct {
	once sync.Once
	m    *PolicyMatrixResult
	err  error
}

// straightPolicyMatrix returns the shared straight sweep.
func straightPolicyMatrix(t *testing.T) *PolicyMatrixResult {
	t.Helper()
	straightMatrix.once.Do(func() {
		cfg := GoldenExpConfig()
		cfg.Engine = NewEngine(EngineConfig{})
		straightMatrix.m, straightMatrix.err = RunPolicyMatrixContext(context.Background(), cfg)
	})
	if straightMatrix.err != nil {
		t.Fatal(straightMatrix.err)
	}
	return straightMatrix.m
}

// TestPolicyMatrixGolden re-runs the full policy matrix at the corpus scale
// and compares it against its own golden section — a separate file from the
// paper corpus, so regenerating one can never silently move the other. The
// same fresh matrix also carries the policy layer's two acceptance claims:
// the runtime selector is at least as good as the paper's fixed policy on
// aggregate cycles, and at least one benchmark is won outright by a
// non-paper policy.
func TestPolicyMatrixGolden(t *testing.T) {
	cfg := GoldenExpConfig()
	m := straightPolicyMatrix(t)

	if *updatePolicyGolden {
		if err := pinPolicyMatrix(m, cfg.Scale).Save(policyGoldenPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("policy matrix golden regenerated at %s", policyGoldenPath)
	} else {
		g, err := LoadPolicyGolden(policyGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if g.Scale != cfg.Scale {
			t.Fatalf("policy golden scale %g but GoldenExpConfig scale %g — regenerate with -update-policy-golden",
				g.Scale, cfg.Scale)
		}
		for _, d := range g.Compare(m) {
			t.Error(d)
		}
	}

	// Acceptance: the selector must not lose to the fixed paper policy in
	// aggregate. It picks per phase, so per-benchmark it can only match or
	// beat whichever fixed policy its decisions emulate.
	agg := m.AggregateCycles()
	if agg[PolicySelectorColumn] > agg[core.PolicyPaper] {
		t.Errorf("selector aggregate %d cycles worse than paper %d",
			agg[PolicySelectorColumn], agg[core.PolicyPaper])
	}

	// Acceptance: the alternative policies must not be strictly dominated —
	// at least one benchmark must run faster under a non-paper policy.
	win := ""
	for _, r := range m.Rows {
		for _, col := range m.Policies {
			if col == PolicyBaseColumn || col == PolicySelectorColumn || col == core.PolicyPaper {
				continue
			}
			if r.Cycles[col] < r.Cycles[core.PolicyPaper] {
				win = r.Name + "/" + col
			}
		}
	}
	if win == "" {
		t.Error("no benchmark is won by a non-paper policy — alternatives are strictly dominated")
	} else {
		t.Logf("non-paper win: %s (selector aggregate %d vs paper %d)",
			win, agg[PolicySelectorColumn], agg[core.PolicyPaper])
	}
}

// TestPolicyMatrixRenderAndBest pins the report shape on hand-built rows:
// the best-fixed-policy rule (cheapest cycles, ties alphabetical, base and
// selector never eligible) and the render layout.
func TestPolicyMatrixRenderAndBest(t *testing.T) {
	m := &PolicyMatrixResult{
		Policies: []string{PolicyBaseColumn, "alpha", "beta", PolicySelectorColumn},
		Rows: []PolicyMatrixRow{
			{Name: "w1", Cycles: map[string]uint64{
				PolicyBaseColumn: 1000, "alpha": 900, "beta": 800, PolicySelectorColumn: 790}},
			{Name: "w2", Cycles: map[string]uint64{
				PolicyBaseColumn: 2000, "alpha": 1500, "beta": 1500, PolicySelectorColumn: 100}},
		},
	}
	if got := m.BestFixedPolicy(m.Rows[0]); got != "beta" {
		t.Errorf("best fixed policy for w1 = %q, want beta", got)
	}
	// w2: alpha and beta tie, and the selector's 100 cycles must not count.
	if got := m.BestFixedPolicy(m.Rows[1]); got != "alpha" {
		t.Errorf("best fixed policy for w2 = %q, want alpha (tie → alphabetical)", got)
	}

	agg := m.AggregateCycles()
	if agg[PolicyBaseColumn] != 3000 || agg["alpha"] != 2400 {
		t.Errorf("aggregate cycles = %v", agg)
	}

	out := m.Render()
	for _, want := range []string{"w1", "w2", "alpha", "beta", "aggregate", "best"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestPolicyGoldenRoundTrip drives the full pin path on the shared
// golden-scale matrix: pin → save → load → compare is divergence-free, and
// each perturbation class — cycles drift, prefetch-count change, renamed
// row, dropped row, different column set — is caught as its own divergence.
func TestPolicyGoldenRoundTrip(t *testing.T) {
	g := pinPolicyMatrix(straightPolicyMatrix(t), GoldenExpConfig().Scale)
	if !equalStrings(g.Policies, PolicyColumns()) {
		t.Fatalf("collector columns %v, want %v", g.Policies, PolicyColumns())
	}
	if len(g.Rows) != len(workloads.Names()) {
		t.Fatalf("collector pinned %d rows, want one per workload (%d)", len(g.Rows), len(workloads.Names()))
	}
	for _, r := range g.Rows {
		if r.Cycles[PolicyBaseColumn] == 0 {
			t.Errorf("%s: no baseline measurement", r.Name)
		}
		if len(r.Cycles) != len(g.Policies) {
			t.Errorf("%s: %d cycle cells, want %d", r.Name, len(r.Cycles), len(g.Policies))
		}
	}

	path := filepath.Join(t.TempDir(), "policy_matrix.json")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicyGolden(path)
	if err != nil {
		t.Fatal(err)
	}

	cloneRow := func(r GoldenPolicyRow) PolicyMatrixRow {
		c := PolicyMatrixRow{Name: r.Name, Cycles: map[string]uint64{}, Prefetches: map[string]int{}}
		for k, v := range r.Cycles {
			c.Cycles[k] = v
		}
		for k, v := range r.Prefetches {
			c.Prefetches[k] = v
		}
		return c
	}
	matrix := func() *PolicyMatrixResult {
		m := &PolicyMatrixResult{Policies: append([]string{}, g.Policies...)}
		for _, r := range g.Rows {
			m.Rows = append(m.Rows, cloneRow(r))
		}
		return m
	}

	if divs := loaded.Compare(matrix()); len(divs) != 0 {
		t.Fatalf("round trip diverges: %v", divs)
	}

	perturb := []struct {
		name string
		mut  func(m *PolicyMatrixResult)
		want string
	}{
		{"cycles drift", func(m *PolicyMatrixResult) {
			m.Rows[0].Cycles[core.PolicyPaper] *= 2
		}, "cycles"},
		{"prefetch count", func(m *PolicyMatrixResult) {
			m.Rows[0].Prefetches[core.PolicyPaper]++
		}, "prefetches"},
		{"renamed row", func(m *PolicyMatrixResult) {
			m.Rows[0].Name = "mystery"
		}, "not in golden corpus"},
		{"dropped row", func(m *PolicyMatrixResult) {
			m.Rows = m.Rows[:len(m.Rows)-1]
		}, "rows"},
		{"different columns", func(m *PolicyMatrixResult) {
			m.Policies = append(m.Policies, "extra")
		}, "columns"},
	}
	for _, p := range perturb {
		t.Run(p.name, func(t *testing.T) {
			m := matrix()
			p.mut(m)
			divs := loaded.Compare(m)
			if len(divs) == 0 {
				t.Fatalf("perturbation not caught")
			}
			found := false
			for _, d := range divs {
				if strings.Contains(d, p.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("divergences %v mention nothing about %q", divs, p.want)
			}
		})
	}
}

// TestResultCachePolicyAntiAliasing pins the satellite regression the run
// fingerprint exists for: two jobs that differ only in the prefetch policy
// (or only in Selector) must never share a cached result, while identical
// jobs must.
func TestResultCachePolicyAntiAliasing(t *testing.T) {
	paper := DefaultRunConfig()
	paper.ADORE = true
	nextline := paper
	nextline.Core.Policy = core.PolicyNextLine
	selector := paper
	selector.Core.Selector = true

	if paper.Fingerprint() == nextline.Fingerprint() {
		t.Fatal("RunConfigs differing only in Core.Policy share a fingerprint")
	}
	if paper.Fingerprint() == selector.Fingerprint() {
		t.Fatal("RunConfigs differing only in Core.Selector share a fingerprint")
	}

	cfg := GoldenExpConfig()
	b, err := workloads.ByName("mcf", cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, cfg.Scale, compiler.O2)
	mk := func(mut func(*RunConfig)) RunConfig {
		rc := cfg.runConfig()
		rc.ADORE = true
		rc.Core = cfg.Core
		mut(&rc)
		return rc
	}
	jobs := []Job{
		{Name: "mcf/paper", Compile: sp, Config: mk(func(*RunConfig) {})},
		{Name: "mcf/nextline", Compile: sp, Config: mk(func(rc *RunConfig) { rc.Core.Policy = core.PolicyNextLine })},
		{Name: "mcf/paper-again", Compile: sp, Config: mk(func(*RunConfig) {})},
	}
	eng := NewEngine(EngineConfig{Parallelism: 1})
	runs, err := eng.RunJobs(context.Background(), "antialias", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] == runs[1] {
		t.Fatal("paper and nextline jobs aliased to one cached result")
	}
	if runs[0] != runs[2] {
		t.Error("identical paper jobs did not share the cached result")
	}
	if hits, misses := eng.Results().Stats(); hits != 1 || misses != 2 {
		t.Errorf("result cache hits=%d misses=%d, want 1/2", hits, misses)
	}
	if runs[0].CPU.Cycles == 0 || runs[1].CPU.Cycles == 0 {
		t.Fatal("cached runs returned empty results")
	}
}
