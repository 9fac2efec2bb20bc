package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// The request schema. A request names a simulation by value — workload,
// scale, compile options, ADORE/policy configuration — and the service
// keys its cache by a fingerprint over exactly those values, normalized
// (defaults applied) so that two requests meaning the same run hash the
// same however sparsely they were written. The fingerprint composes the
// same identities the engine's caches already rely on: the compile side
// of a run is compiler.Options.Fingerprint() (via CompileSpec.Key) and
// the run side harness.RunConfig.Fingerprint().

// httpError carries the status code a validation failure maps to.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// RunRequest asks for one simulation.
type RunRequest struct {
	// Workload names one of the 17 benchmarks (workloads.Names). Unknown
	// names are 404: the resource space is the workload set.
	Workload string `json:"workload"`
	// Scale is the workload scale factor in (0, 1]; default 0.05 (the
	// golden-corpus scale — small enough to serve interactively).
	Scale float64 `json:"scale,omitempty"`
	// Opt is the compile level, "O2" (default) or "O3".
	Opt string `json:"opt,omitempty"`
	// ADORE attaches the runtime optimizer. Policy and Selector imply it.
	ADORE bool `json:"adore,omitempty"`
	// Policy picks a fixed prefetch policy (core.PrefetchPolicyNames).
	Policy string `json:"policy,omitempty"`
	// Selector enables the per-phase runtime policy selector.
	Selector bool `json:"selector,omitempty"`
	// MaxInsts lowers the instruction safety stop (0 = default). It may
	// not exceed the default: a client can stop a run early, never make
	// it longer.
	MaxInsts uint64 `json:"max_insts,omitempty"`
}

// maxInstsCeiling is the largest MaxInsts a request may ask for.
var maxInstsCeiling = harness.DefaultRunConfig().MaxInsts

// normalize applies defaults and validates; the error, when non-nil, is
// an *httpError carrying the response code. It builds no kernel: the
// workload name is checked against the suite table, so a cache hit never
// pays for constructing a benchmark.
func (r *RunRequest) normalize() *httpError {
	if r.Workload == "" {
		return badRequest("missing workload (want one of %v)", workloads.Names())
	}
	if r.Scale == 0 {
		r.Scale = 0.05
	}
	if r.Scale < 0 || r.Scale > 1 {
		return badRequest("scale %g out of range (0, 1]", r.Scale)
	}
	if r.Opt == "" {
		r.Opt = "O2"
	}
	if r.Opt != "O2" && r.Opt != "O3" {
		return badRequest("unknown opt %q (want O2 or O3)", r.Opt)
	}
	if r.MaxInsts > maxInstsCeiling {
		return badRequest("max_insts %d above the ceiling %d", r.MaxInsts, maxInstsCeiling)
	}
	if r.Policy != "" || r.Selector {
		r.ADORE = true
	}
	if r.Policy != "" {
		if err := validPolicy(r.Policy); err != nil {
			return err
		}
	}
	if !workloads.Known(r.Workload) {
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("workloads: unknown benchmark %q", r.Workload)}
	}
	return nil
}

func validPolicy(name string) *httpError {
	for _, p := range core.PrefetchPolicyNames() {
		if p == name {
			return nil
		}
	}
	return badRequest("unknown policy %q (want one of %v)", name, core.PrefetchPolicyNames())
}

// optLevel maps the validated Opt string.
func optLevel(opt string) compiler.OptLevel {
	if opt == "O3" {
		return compiler.O3
	}
	return compiler.O2
}

// compileSpec is the request's cache-keyed compile unit — the same shape
// the experiment drivers build (benchmark@scale + default options at the
// requested level), so serve requests share the engine's build cache with
// any sweep that compiled the same kernel.
func (r *RunRequest) compileSpec() (harness.CompileSpec, error) {
	b, err := workloads.ByName(r.Workload, r.Scale)
	if err != nil {
		return harness.CompileSpec{}, err
	}
	opts := compiler.DefaultOptions()
	opts.Level = optLevel(r.Opt)
	return harness.CompileSpec{
		Name:    fmt.Sprintf("%s@%g", b.Name, r.Scale),
		Kernel:  b.Kernel,
		Options: opts,
	}, nil
}

// runConfig builds the run side of the request.
func (r *RunRequest) runConfig() harness.RunConfig {
	rc := harness.DefaultRunConfig()
	rc.ADORE = r.ADORE
	rc.Core.Policy = r.Policy
	rc.Core.Selector = r.Selector
	if r.MaxInsts > 0 {
		rc.MaxInsts = r.MaxInsts
	}
	return rc
}

// job assembles the engine job for the request.
func (r *RunRequest) job() (harness.Job, error) {
	sp, err := r.compileSpec()
	if err != nil {
		return harness.Job{}, err
	}
	name := r.Workload + "/" + r.policyColumn()
	return harness.Job{Name: name, Compile: sp, Config: r.runConfig()}, nil
}

// policyColumn names the request's policy configuration the way the
// policy-matrix columns do: "base" without ADORE, "selector" with the
// runtime selector, else the fixed policy name.
func (r *RunRequest) policyColumn() string {
	if !r.ADORE {
		return harness.PolicyBaseColumn
	}
	cfg := core.Config{Policy: r.Policy, Selector: r.Selector}
	return cfg.PolicyKey()
}

// Fingerprint is the request's content address: sha256 over the
// normalized request document plus an operation tag (so a /run and a
// /sweep can never collide), hex-encoded. The leading hex digits are the
// shard prefix.
func (r RunRequest) Fingerprint() string {
	return fingerprintDoc("run", r)
}

// SweepRequest asks for one workload across a set of policy columns —
// the repeated, cacheable query mix of a policy search. The server runs
// it on the checkpoint/fork engine: ADORE columns differing only in
// policy share one warmup probe (harness.RunJobsForked).
type SweepRequest struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale,omitempty"`
	Opt      string  `json:"opt,omitempty"`
	// Policies lists the matrix columns to run: "base", fixed policy
	// names, and/or "selector". Empty means every column
	// (harness.PolicyColumns order).
	Policies []string `json:"policies,omitempty"`
	MaxInsts uint64   `json:"max_insts,omitempty"`
}

// normalize applies defaults and validates.
func (r *SweepRequest) normalize() *httpError {
	base := &RunRequest{Workload: r.Workload, Scale: r.Scale, Opt: r.Opt, MaxInsts: r.MaxInsts}
	if err := base.normalize(); err != nil {
		return err
	}
	r.Scale, r.Opt = base.Scale, base.Opt
	if len(r.Policies) == 0 {
		r.Policies = harness.PolicyColumns()
	}
	seen := map[string]bool{}
	for _, col := range r.Policies {
		if seen[col] {
			return badRequest("duplicate policy column %q", col)
		}
		seen[col] = true
		if col == harness.PolicyBaseColumn || col == harness.PolicySelectorColumn {
			continue
		}
		if err := validPolicy(col); err != nil {
			return err
		}
	}
	return nil
}

// columnRequest is the RunRequest of one sweep column.
func (r *SweepRequest) columnRequest(col string) RunRequest {
	rr := RunRequest{Workload: r.Workload, Scale: r.Scale, Opt: r.Opt, MaxInsts: r.MaxInsts}
	switch col {
	case harness.PolicyBaseColumn:
	case harness.PolicySelectorColumn:
		rr.ADORE = true
		rr.Selector = true
	default:
		rr.ADORE = true
		rr.Policy = col
	}
	return rr
}

// jobs assembles the sweep's job list in column order.
func (r *SweepRequest) jobs() ([]harness.Job, error) {
	jobs := make([]harness.Job, 0, len(r.Policies))
	for _, col := range r.Policies {
		rr := r.columnRequest(col)
		j, err := rr.job()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Fingerprint is the sweep's content address (see RunRequest.Fingerprint).
func (r SweepRequest) Fingerprint() string {
	return fingerprintDoc("sweep", r)
}

// fingerprintDoc hashes an operation tag plus the normalized request.
func fingerprintDoc(op string, doc any) string {
	b, err := json.Marshal(doc)
	if err != nil {
		// Requests are plain data; failure here is a programming error.
		panic(fmt.Sprintf("serve: request not fingerprintable: %v", err))
	}
	sum := sha256.Sum256(append([]byte(op+"|"), b...))
	return hex.EncodeToString(sum[:12])
}
