package serve

import (
	"net/http"
	"testing"

	"repro/internal/workloads"
)

// TestRequestNormalize pins defaulting and validation.
func TestRequestNormalize(t *testing.T) {
	r := RunRequest{Workload: "mcf"}
	if err := r.normalize(); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
	if r.Scale != 0.05 || r.Opt != "O2" || r.ADORE {
		t.Fatalf("defaults wrong: %+v", r)
	}

	// Policy implies ADORE; so does Selector.
	p := RunRequest{Workload: "mcf", Policy: "paper"}
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	if !p.ADORE {
		t.Fatal("policy did not imply ADORE")
	}
	sel := RunRequest{Workload: "mcf", Selector: true}
	if err := sel.normalize(); err != nil {
		t.Fatal(err)
	}
	if !sel.ADORE {
		t.Fatal("selector did not imply ADORE")
	}

	bad := []RunRequest{
		{},
		{Workload: "mcf", Scale: 1.5},
		{Workload: "mcf", Scale: -1},
		{Workload: "mcf", Opt: "O1"},
		{Workload: "mcf", Policy: "warp"},
		{Workload: "mcf", MaxInsts: maxInstsCeiling + 1},
	}
	for i, r := range bad {
		if err := r.normalize(); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		} else if err.code != http.StatusBadRequest {
			t.Errorf("bad request %d: code %d, want 400", i, err.code)
		}
	}
	if err := (&RunRequest{Workload: "nope"}).normalize(); err == nil || err.code != http.StatusNotFound {
		t.Fatalf("unknown workload: %v, want 404", err)
	}
}

// TestRequestValidationBuildsNothing pins that validation no longer goes
// through the kernel builder yet still answers as the suite does: an
// unknown workload's 404 carries workloads.ByName's error text, and a
// max_insts at the ceiling is accepted for /run and /sweep alike.
func TestRequestValidationBuildsNothing(t *testing.T) {
	_, want := workloads.ByName("nope", 0.05)
	if err := (&RunRequest{Workload: "nope"}).normalize(); err == nil || err.msg != want.Error() {
		t.Fatalf("unknown workload message %v, want %q", err, want)
	}
	if err := (&RunRequest{Workload: "mcf", MaxInsts: maxInstsCeiling}).normalize(); err != nil {
		t.Fatalf("max_insts at the ceiling rejected: %v", err)
	}
	if err := (&SweepRequest{Workload: "mcf", MaxInsts: maxInstsCeiling + 1}).normalize(); err == nil || err.code != http.StatusBadRequest {
		t.Fatalf("sweep max_insts above the ceiling: %v, want 400", err)
	}
}

// hitPathAllocCeiling bounds the allocations of normalize+Fingerprint, the
// per-request work a cache hit pays before the cache lookup. Validating
// the workload by building the suite cost over a thousand.
const hitPathAllocCeiling = 32

// TestHitPathAllocs pins the hit path's cost by allocation count, which
// unlike a timing is stable across hosts.
func TestHitPathAllocs(t *testing.T) {
	cases := []struct {
		name string
		fn   func() string
	}{
		{"run", func() string {
			r := RunRequest{Workload: "mcf", Scale: 0.02, Policy: "paper"}
			if err := r.normalize(); err != nil {
				t.Fatal(err)
			}
			return r.Fingerprint()
		}},
		{"sweep", func() string {
			r := SweepRequest{Workload: "art", Scale: 0.02, Opt: "O3"}
			if err := r.normalize(); err != nil {
				t.Fatal(err)
			}
			return r.Fingerprint()
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, func() { c.fn() }); n > hitPathAllocCeiling {
			t.Errorf("%s: normalize+Fingerprint = %.0f allocs, want <= %d", c.name, n, hitPathAllocCeiling)
		}
	}
}

// TestFingerprintIdentity pins the cache-key semantics: fingerprints are
// over the normalized document (sparse == explicit-default), differ when
// any simulated value differs, and /run can never collide with /sweep.
func TestFingerprintIdentity(t *testing.T) {
	norm := func(r RunRequest) RunRequest {
		if err := r.normalize(); err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return r
	}
	sparse := norm(RunRequest{Workload: "mcf"})
	explicit := norm(RunRequest{Workload: "mcf", Scale: 0.05, Opt: "O2"})
	if sparse.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("normalized-equal requests fingerprint differently")
	}
	if len(sparse.Fingerprint()) != 24 {
		t.Fatalf("fingerprint %q, want 24 hex chars", sparse.Fingerprint())
	}

	distinct := []RunRequest{
		norm(RunRequest{Workload: "mcf"}),
		norm(RunRequest{Workload: "art"}),
		norm(RunRequest{Workload: "mcf", Scale: 0.1}),
		norm(RunRequest{Workload: "mcf", Opt: "O3"}),
		norm(RunRequest{Workload: "mcf", ADORE: true}),
		norm(RunRequest{Workload: "mcf", Policy: "paper"}),
		norm(RunRequest{Workload: "mcf", Selector: true}),
		norm(RunRequest{Workload: "mcf", MaxInsts: 1000}),
	}
	seen := map[string]int{}
	for i, r := range distinct {
		fp := r.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d collide: %+v vs %+v", i, j, distinct[i], distinct[j])
		}
		seen[fp] = i
	}

	sw := SweepRequest{Workload: "mcf"}
	if err := sw.normalize(); err != nil {
		t.Fatal(err)
	}
	if sw.Fingerprint() == sparse.Fingerprint() {
		t.Fatal("a sweep fingerprint collided with a run fingerprint")
	}
}

// TestSweepNormalize pins sweep column defaulting and validation.
func TestSweepNormalize(t *testing.T) {
	sw := SweepRequest{Workload: "mcf"}
	if err := sw.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Policies) < 3 || sw.Policies[0] != "base" || sw.Policies[len(sw.Policies)-1] != "selector" {
		t.Fatalf("default columns wrong: %v", sw.Policies)
	}
	jobs, err := sw.jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(sw.Policies) {
		t.Fatalf("%d jobs for %d columns", len(jobs), len(sw.Policies))
	}
	// Job 0 is the base column: no ADORE; the rest attach it.
	if jobs[0].Config.ADORE {
		t.Fatal("base column got ADORE")
	}
	for i := 1; i < len(jobs); i++ {
		if !jobs[i].Config.ADORE {
			t.Fatalf("column %q missing ADORE", sw.Policies[i])
		}
	}

	if err := (&SweepRequest{Workload: "mcf", Policies: []string{"base", "warp"}}).normalize(); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := (&SweepRequest{Workload: "mcf", Policies: []string{"paper", "paper"}}).normalize(); err == nil {
		t.Fatal("duplicate column accepted")
	}
}
