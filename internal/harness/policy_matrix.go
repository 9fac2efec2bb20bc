package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

// The policy-matrix experiment: every benchmark × every registered
// prefetch policy × the runtime selector, against the un-optimized
// baseline. This is the evaluation the policy layer exists for — it asks
// "which policy wins where, and does the runtime selector track the best
// fixed policy?" — and its results are pinned in their own golden-corpus
// section (testdata/golden/policy_matrix.json), separate from the paper
// corpus so the paper figures stay byte-identical to their pre-policy
// baseline.

// PolicyBaseColumn and PolicySelectorColumn are the two matrix columns
// that are not fixed prefetch policies.
const (
	PolicyBaseColumn     = "base"
	PolicySelectorColumn = "selector"
)

// PolicyColumns is the matrix column order: baseline first, then the
// registered policies (sorted), then the runtime selector.
func PolicyColumns() []string {
	cols := []string{PolicyBaseColumn}
	cols = append(cols, core.PrefetchPolicyNames()...)
	return append(cols, PolicySelectorColumn)
}

// PolicyMatrixRow is one benchmark's measurements across the columns.
type PolicyMatrixRow struct {
	Name       string
	Cycles     map[string]uint64 // column → total cycles
	Prefetches map[string]int    // column → prefetch sequences inserted
}

// PolicyMatrixResult is the full sweep.
type PolicyMatrixResult struct {
	Policies []string
	Rows     []PolicyMatrixRow
}

// RunPolicyMatrixContext runs the matrix on the engine: per benchmark, one
// baseline job plus one ADORE job per column, all sharing a single O2
// compile through the build cache. Each column's RunConfig differs only in
// Core.Policy/Core.Selector — which is exactly the aliasing hazard the run
// fingerprint exists to prevent (see ResultCache).
func RunPolicyMatrixContext(ctx context.Context, cfg ExpConfig) (*PolicyMatrixResult, error) {
	benches, cols, jobs := policyMatrixJobs(cfg)
	runs, err := cfg.engine().RunJobs(ctx, "policymatrix", jobs)
	if err != nil {
		return nil, err
	}
	return policyMatrixResult(benches, cols, runs), nil
}

// RunPolicyMatrixForkedContext runs the identical matrix on the
// checkpoint/fork engine: per benchmark, the ADORE columns share one
// warmup through a divergence-point snapshot (RunJobsForked) instead of
// each simulating it. The result is bit-identical to
// RunPolicyMatrixContext's; the returned ForkStats report the warmup
// cycles the sharing saved.
func RunPolicyMatrixForkedContext(ctx context.Context, cfg ExpConfig) (*PolicyMatrixResult, *ForkStats, error) {
	benches, cols, jobs := policyMatrixJobs(cfg)
	runs, stats, err := cfg.engine().RunJobsForked(ctx, "policymatrix", jobs)
	if err != nil {
		return nil, nil, err
	}
	return policyMatrixResult(benches, cols, runs), stats, nil
}

// policyMatrixJobs builds the sweep's job list: benches × columns, in
// row-major order (the layout policyMatrixResult depends on).
func policyMatrixJobs(cfg ExpConfig) ([]workloads.Benchmark, []string, []Job) {
	benches := workloads.All(cfg.Scale)
	cols := PolicyColumns()
	jobs := make([]Job, 0, len(benches)*len(cols))
	for _, b := range benches {
		sp := benchSpec(b, cfg.Scale, compiler.O2)
		for _, col := range cols {
			rc := cfg.runConfig()
			switch col {
			case PolicyBaseColumn:
				// plain run: no ADORE
			case PolicySelectorColumn:
				rc.ADORE = true
				rc.Core = cfg.Core
				rc.Core.Selector = true
			default:
				rc.ADORE = true
				rc.Core = cfg.Core
				rc.Core.Policy = col
			}
			jobs = append(jobs, Job{Name: b.Name + "/" + col, Compile: sp, Config: rc})
		}
	}
	return benches, cols, jobs
}

// policyMatrixResult assembles the matrix from row-major run results.
func policyMatrixResult(benches []workloads.Benchmark, cols []string, runs []*RunResult) *PolicyMatrixResult {
	res := &PolicyMatrixResult{Policies: cols}
	for i, b := range benches {
		row := PolicyMatrixRow{
			Name:       b.Name,
			Cycles:     make(map[string]uint64, len(cols)),
			Prefetches: make(map[string]int, len(cols)),
		}
		for j, col := range cols {
			r := runs[i*len(cols)+j]
			row.Cycles[col] = r.CPU.Cycles
			if r.Core != nil {
				row.Prefetches[col] = r.Core.TotalPrefetches()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// AggregateCycles sums each column over the whole suite.
func (m *PolicyMatrixResult) AggregateCycles() map[string]uint64 {
	agg := make(map[string]uint64, len(m.Policies))
	for _, r := range m.Rows {
		for _, col := range m.Policies {
			agg[col] += r.Cycles[col]
		}
	}
	return agg
}

// BestFixedPolicy returns, for one row, the fixed (non-base, non-selector)
// policy with the fewest cycles; ties go to the alphabetically first.
func (m *PolicyMatrixResult) BestFixedPolicy(row PolicyMatrixRow) string {
	best, bestCycles := "", uint64(math.MaxUint64)
	for _, col := range m.Policies {
		if col == PolicyBaseColumn || col == PolicySelectorColumn {
			continue
		}
		if c := row.Cycles[col]; c < bestCycles {
			best, bestCycles = col, c
		}
	}
	return best
}

// Render prints the matrix as speedups over the baseline column.
func (m *PolicyMatrixResult) Render() string {
	var b strings.Builder
	b.WriteString("Policy matrix: speedup over no-prefetching baseline, per prefetch policy\n")
	fmt.Fprintf(&b, "%-10s %12s", "benchmark", "base cycles")
	for _, col := range m.Policies {
		if col == PolicyBaseColumn {
			continue
		}
		fmt.Fprintf(&b, " %9s", col)
	}
	b.WriteString("   best\n")
	for _, r := range m.Rows {
		base := r.Cycles[PolicyBaseColumn]
		fmt.Fprintf(&b, "%-10s %12d", r.Name, base)
		for _, col := range m.Policies {
			if col == PolicyBaseColumn {
				continue
			}
			fmt.Fprintf(&b, " %8.1f%%", Speedup(base, r.Cycles[col])*100)
		}
		fmt.Fprintf(&b, "   %s\n", m.BestFixedPolicy(r))
	}
	agg := m.AggregateCycles()
	fmt.Fprintf(&b, "%-10s %12d", "aggregate", agg[PolicyBaseColumn])
	for _, col := range m.Policies {
		if col == PolicyBaseColumn {
			continue
		}
		fmt.Fprintf(&b, " %8.1f%%", Speedup(agg[PolicyBaseColumn], agg[col])*100)
	}
	b.WriteString("\n")
	return b.String()
}

// GoldenPolicyRow pins one benchmark row of the matrix.
type GoldenPolicyRow struct {
	Name       string
	Cycles     map[string]uint64
	Prefetches map[string]int
}

// PolicyGolden is the checked-in policy-matrix baseline — its own corpus
// file, so regenerating it never touches the paper corpus (corpus.json).
type PolicyGolden struct {
	Scale    float64
	Tol      GoldenTolerance
	Policies []string
	Rows     []GoldenPolicyRow
}

// CollectPolicyGolden runs the matrix and pins it.
func CollectPolicyGolden(cfg ExpConfig) (*PolicyGolden, error) {
	m, err := RunPolicyMatrixContext(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return pinPolicyMatrix(m, cfg.Scale), nil
}

// pinPolicyMatrix turns a matrix swept at the given scale into its golden
// form under the default tolerances. The rows share m's cycle and
// prefetch maps.
func pinPolicyMatrix(m *PolicyMatrixResult, scale float64) *PolicyGolden {
	g := &PolicyGolden{Scale: scale, Tol: DefaultGoldenTolerance(), Policies: m.Policies}
	for _, r := range m.Rows {
		g.Rows = append(g.Rows, GoldenPolicyRow{Name: r.Name, Cycles: r.Cycles, Prefetches: r.Prefetches})
	}
	return g
}

// LoadPolicyGolden reads the pinned matrix.
func LoadPolicyGolden(path string) (*PolicyGolden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &PolicyGolden{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Save writes the pinned matrix as indented JSON, stable for diffing.
func (g *PolicyGolden) Save(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare checks a fresh matrix against the pinned one: cycles within
// RelCycles per cell, prefetch counts exact (discrete optimizer output),
// same benchmarks, same columns.
func (g *PolicyGolden) Compare(m *PolicyMatrixResult) []string {
	var divs []string
	if !equalStrings(g.Policies, m.Policies) {
		divs = append(divs, fmt.Sprintf("policymatrix: columns %v, golden %v (regenerate with -update-policy-golden)",
			m.Policies, g.Policies))
		return divs
	}
	byName := make(map[string]GoldenPolicyRow, len(g.Rows))
	for _, r := range g.Rows {
		byName[r.Name] = r
	}
	for _, r := range m.Rows {
		w, ok := byName[r.Name]
		if !ok {
			divs = append(divs, fmt.Sprintf("policymatrix/%s: not in golden corpus", r.Name))
			continue
		}
		for _, col := range g.Policies {
			if !withinRel(r.Cycles[col], w.Cycles[col], g.Tol.RelCycles) {
				divs = append(divs, fmt.Sprintf("policymatrix/%s/%s: cycles %d, golden %d (±%.2g rel)",
					r.Name, col, r.Cycles[col], w.Cycles[col], g.Tol.RelCycles))
			}
			if r.Prefetches[col] != w.Prefetches[col] {
				divs = append(divs, fmt.Sprintf("policymatrix/%s/%s: prefetches %d, golden %d",
					r.Name, col, r.Prefetches[col], w.Prefetches[col]))
			}
		}
	}
	if len(m.Rows) != len(g.Rows) {
		divs = append(divs, fmt.Sprintf("policymatrix: %d rows, golden %d", len(m.Rows), len(g.Rows)))
	}
	return divs
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
