// Package serve is the simulation-as-a-service front door: a long-running
// HTTP/JSON service that accepts run and sweep requests (workload, scale,
// compile options, ADORE/policy configuration), executes them on a worker
// fleet built from the experiment engine, and serves repeated requests
// from a content-addressed response cache in O(1) — the paper's
// premise at fleet scale: once the heavy warmup is paid, re-evaluating a
// prefetching decision is cheap, and a cached decision is free.
//
// Identity is by value end to end: a request fingerprints to a content
// address (request.go) built on the same keys the engine caches already
// trust — compiler.Options.Fingerprint() for the compile half,
// harness.RunConfig.Fingerprint() for the run half — so a cache hit is
// provably the same simulation, and the cached body is returned
// byte-identical to the cold run that produced it. The response cache
// (cache.go) is the only copy of an answer: the engine runs without a
// result cache. Every request's jobs run on the engine's one worker pool,
// so at most Parallelism simulations run at once. DESIGN.md §17
// documents the architecture.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/metrics"
)

// Config sizes the service.
type Config struct {
	// Parallelism is the engine's worker-pool width (0 = GOMAXPROCS).
	Parallelism int
	// Shards and ShardCap are ignored: the response cache is one cache
	// of at most 1024 bodies. They remain only until the benchmark
	// harness stops setting them.
	Shards   int
	ShardCap int
	// Registry receives every metric (engine + serve). Created if nil.
	Registry *metrics.Registry
}

// Server is the simulation-as-a-service HTTP front door.
type Server struct {
	reg    *metrics.Registry
	eng    *harness.Engine
	cache  ResponseCache
	status *StatusTracker
	mux    *http.ServeMux

	requests   *metrics.Counter
	failures   *metrics.Counter
	latency    *metrics.Histogram
	forkGroups *metrics.Counter
	forkedRuns *metrics.Counter
	mergedRuns *metrics.Counter
}

// New assembles the service: engine, response cache, and the HTTP mux.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		reg:        reg,
		status:     NewStatusTracker(),
		cache:      newResponseCache(reg, responseCacheCap),
		requests:   reg.Counter("adore_serve_requests_total", "HTTP run/sweep requests received"),
		failures:   reg.Counter("adore_serve_failures_total", "HTTP run/sweep requests that failed"),
		latency:    reg.Histogram("adore_serve_request_latency_ns", "run/sweep request service latency"),
		forkGroups: reg.Counter("adore_serve_fork_groups_total", "fork groups formed by sweep requests"),
		forkedRuns: reg.Counter("adore_serve_forked_runs_total", "sweep continuations resumed from a warmup snapshot"),
		mergedRuns: reg.Counter("adore_serve_fork_merged_runs_total", "sweep columns served a group-mate's run because every policy decision matched"),
	}
	s.eng = harness.NewEngine(harness.EngineConfig{
		Parallelism:   cfg.Parallelism,
		OnProgress:    s.status.Progress,
		Metrics:       reg,
		NoResultCache: true, // the response cache already keeps every answer
	})
	s.mux = ObservabilityMux(reg, s.status)
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the service's metric registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Cache exposes the response cache (for stats and tests).
func (s *Server) Cache() ResponseCache { return s.cache }

// Run returns when ctx fires. The service has no background work; Run
// remains for callers that start it alongside the HTTP server.
func (s *Server) Run(ctx context.Context) { <-ctx.Done() }

// RunResponse is the /run result document (one sweep column reuses it).
type RunResponse struct {
	Workload     string  `json:"workload"`
	Opt          string  `json:"opt"`
	Scale        float64 `json:"scale"`
	Policy       string  `json:"policy"` // "base", a fixed policy, or "selector"
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	CPI          float64 `json:"cpi"`
	// Prefetches is the number of prefetch sequences ADORE inserted
	// (0 without ADORE); TracesPatched the traces it installed.
	Prefetches    int                  `json:"prefetches"`
	TracesPatched int                  `json:"traces_patched"`
	PrefetchLines memsys.PrefetchStats `json:"prefetch_lines"`
}

// ForkSummary reports a sweep's warmup sharing (harness.ForkStats).
type ForkSummary struct {
	Groups          int     `json:"groups"`
	ForkedRuns      int     `json:"forked_runs"`
	MergedRuns      int     `json:"merged_runs"`
	StraightRuns    int     `json:"straight_runs"`
	WarmupStraight  uint64  `json:"warmup_cycles_straight"`
	WarmupForked    uint64  `json:"warmup_cycles_forked"`
	WarmupReduction float64 `json:"warmup_reduction"`
}

// SweepResponse is the /sweep result document.
type SweepResponse struct {
	Workload string        `json:"workload"`
	Opt      string        `json:"opt"`
	Scale    float64       `json:"scale"`
	Columns  []string      `json:"columns"`
	Results  []RunResponse `json:"results"`
	Fork     *ForkSummary  `json:"fork,omitempty"`
}

// runResponse folds one run result into the response document.
func runResponse(rr RunRequest, res *harness.RunResult) RunResponse {
	out := RunResponse{
		Workload:      rr.Workload,
		Opt:           rr.Opt,
		Scale:         rr.Scale,
		Policy:        rr.policyColumn(),
		Cycles:        res.CPU.Cycles,
		Instructions:  res.CPU.Retired,
		CPI:           res.CPU.CPI(),
		PrefetchLines: res.Mem.Prefetch(),
	}
	if res.Core != nil {
		out.Prefetches = res.Core.TotalPrefetches()
		out.TracesPatched = res.Core.TracesPatched
	}
	return out
}

// marshalBody renders a response document in its canonical cached form.
func marshalBody(doc any) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// serveCached runs the common request tail: look the fingerprint up in
// the response cache, fill on a miss, and write the cached body with the
// cache disposition (hit, joined or miss) in headers — never in the
// body, which must stay byte-identical between cold and cached service
// of one fingerprint.
func (s *Server) serveCached(w http.ResponseWriter, req *http.Request, fp string, fill func(ctx context.Context) ([]byte, error)) {
	s.requests.Inc()
	start := time.Now()
	body, outcome, err := s.cache.Fetch(req.Context(), fp, fill)
	s.latency.Observe(uint64(time.Since(start)))
	if err != nil {
		s.failures.Inc()
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Adore-Fingerprint", fp)
	w.Header().Set("X-Adore-Cache", outcome.String())
	w.Write(body)
}

// writeError maps a failure onto its HTTP status: validation errors carry
// their own code, cancellation is 503 (the client or the server went
// away, not the request's fault), everything else 500.
func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		http.Error(w, he.msg, he.code)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// maxBodyBytes bounds a request body. The largest legitimate document, a
// /sweep listing every policy column, is well under 1 KiB.
const maxBodyBytes = 64 << 10

// decode parses a JSON request body strictly: unknown fields are a 400
// (a misspelled option silently meaning a different simulation is worse
// than an error), and a body over maxBodyBytes is a 413.
func decode(w http.ResponseWriter, req *http.Request, into any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body over %d bytes", maxBodyBytes)}
		}
		return badRequest("bad request JSON: %v", err)
	}
	return nil
}

// handleRun serves POST /run: one simulation by value.
func (s *Server) handleRun(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var rr RunRequest
	if err := decode(w, req, &rr); err != nil {
		s.failures.Inc()
		writeError(w, err)
		return
	}
	if err := rr.normalize(); err != nil {
		s.failures.Inc()
		writeError(w, err)
		return
	}
	s.serveCached(w, req, rr.Fingerprint(), func(ctx context.Context) ([]byte, error) {
		job, err := rr.job()
		if err != nil {
			return nil, err
		}
		runs, _, err := s.eng.RunJobs(ctx, "serve/run", []harness.Job{job})
		if err != nil {
			return nil, err
		}
		return marshalBody(runResponse(rr, runs[0]))
	})
}

// handleSweep serves POST /sweep: one workload across policy columns on
// the checkpoint/fork engine — ADORE columns differing only in policy
// share one warmup probe, and columns whose decisions match share a whole
// run, so the sweep costs one warmup plus one tail per distinct decision
// path.
func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var sr SweepRequest
	if err := decode(w, req, &sr); err != nil {
		s.failures.Inc()
		writeError(w, err)
		return
	}
	if err := sr.normalize(); err != nil {
		s.failures.Inc()
		writeError(w, err)
		return
	}
	s.serveCached(w, req, sr.Fingerprint(), func(ctx context.Context) ([]byte, error) {
		jobs, err := sr.jobs()
		if err != nil {
			return nil, err
		}
		runs, stats, err := s.eng.RunJobs(ctx, "serve/sweep", jobs)
		if err != nil {
			return nil, err
		}
		doc := SweepResponse{Workload: sr.Workload, Opt: sr.Opt, Scale: sr.Scale, Columns: sr.Policies}
		for i, col := range sr.Policies {
			doc.Results = append(doc.Results, runResponse(sr.columnRequest(col), runs[i]))
		}
		doc.Fork = &ForkSummary{
			Groups:          stats.Groups,
			ForkedRuns:      stats.ForkedRuns,
			MergedRuns:      stats.MergedRuns,
			StraightRuns:    stats.StraightRuns,
			WarmupStraight:  stats.WarmupStraight,
			WarmupForked:    stats.WarmupForked,
			WarmupReduction: stats.WarmupReduction(),
		}
		s.forkGroups.Add(uint64(stats.Groups))
		s.forkedRuns.Add(uint64(stats.ForkedRuns))
		s.mergedRuns.Add(uint64(stats.MergedRuns))
		return marshalBody(doc)
	})
}
