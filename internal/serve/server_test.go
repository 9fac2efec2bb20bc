package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// testServer builds a small service instance backed by the real engine
// (runs are cheap at tiny scales on the simulated machine).
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Parallelism: 2, Shards: 2, ShardCap: 16, TotalSlots: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHandlerValidation pins the error mapping: malformed JSON and bad
// fields are 400, an unknown workload is 404, a wrong method 405, an
// oversized body 413.
func TestHandlerValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"bad json", "/run", `{"workload": `, http.StatusBadRequest},
		{"unknown field", "/run", `{"workload":"mcf","typo":1}`, http.StatusBadRequest},
		{"missing workload", "/run", `{}`, http.StatusBadRequest},
		{"bad scale", "/run", `{"workload":"mcf","scale":2}`, http.StatusBadRequest},
		{"bad opt", "/run", `{"workload":"mcf","opt":"O9"}`, http.StatusBadRequest},
		{"bad policy", "/run", `{"workload":"mcf","policy":"warp"}`, http.StatusBadRequest},
		{"unknown workload", "/run", `{"workload":"nope"}`, http.StatusNotFound},
		{"sweep bad json", "/sweep", `[`, http.StatusBadRequest},
		{"sweep dup column", "/sweep", `{"workload":"mcf","policies":["base","base"]}`, http.StatusBadRequest},
		{"sweep unknown workload", "/sweep", `{"workload":"nope"}`, http.StatusNotFound},
		{"max_insts above ceiling", "/run", `{"workload":"mcf","max_insts":2000000001}`, http.StatusBadRequest},
		{"sweep max_insts above ceiling", "/sweep", `{"workload":"mcf","max_insts":2000000001}`, http.StatusBadRequest},
		{"oversized body", "/run", `{"workload":"` + strings.Repeat("a", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp := post(t, ts.URL+c.path, c.body)
		readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

// TestRunCachedByteIdentical pins the core serving contract: the second
// identical request is a cache hit whose body is byte-identical to the
// cold response, with the disposition only in headers.
func TestRunCachedByteIdentical(t *testing.T) {
	s, ts := testServer(t)
	const body = `{"workload":"ammp","scale":0.02,"policy":"paper"}`

	cold := post(t, ts.URL+"/run", body)
	coldBody := readAll(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Adore-Cache"); got != "miss" {
		t.Fatalf("cold X-Adore-Cache = %q, want miss", got)
	}
	fp := cold.Header.Get("X-Adore-Fingerprint")
	if len(fp) != 24 {
		t.Fatalf("fingerprint %q, want 24 hex chars", fp)
	}

	warm := post(t, ts.URL+"/run", body)
	warmBody := readAll(t, warm)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d", warm.StatusCode)
	}
	if got := warm.Header.Get("X-Adore-Cache"); got != "hit" {
		t.Fatalf("warm X-Adore-Cache = %q, want hit", got)
	}
	if warm.Header.Get("X-Adore-Fingerprint") != fp {
		t.Fatalf("fingerprint changed between identical requests")
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("cache hit not byte-identical:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}

	// A semantically identical but sparser document (defaults elided the
	// same way) must hit too: fingerprints are over the NORMALIZED doc.
	sparse := post(t, ts.URL+"/run", `{"workload":"ammp","scale":0.02,"policy":"paper","opt":"O2"}`)
	sparseBody := readAll(t, sparse)
	if got := sparse.Header.Get("X-Adore-Cache"); got != "hit" {
		t.Fatalf("normalized-equal request X-Adore-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, sparseBody) {
		t.Fatalf("normalized-equal request body differs")
	}

	var doc RunResponse
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatalf("response not a RunResponse: %v", err)
	}
	if doc.Workload != "ammp" || doc.Policy != "paper" || doc.Cycles == 0 {
		t.Fatalf("response content wrong: %+v", doc)
	}
	if hits, misses, _ := s.Cache().Stats(); misses != 1 || hits != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

// TestRunConcurrentSingleFlight pins dedup through the full HTTP path:
// concurrent identical requests simulate once and all get one body.
func TestRunConcurrentSingleFlight(t *testing.T) {
	s, ts := testServer(t)
	const body = `{"workload":"art","scale":0.02}`
	const n = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if _, misses, _ := s.Cache().Stats(); misses != 1 {
		t.Fatalf("%d cache misses for %d concurrent identical requests, want 1", misses, n)
	}
}

// TestSweepForked pins the /sweep path: a policy sweep runs fork-grouped,
// reports per-column results in order, and caches like /run.
func TestSweepForked(t *testing.T) {
	_, ts := testServer(t)
	const body = `{"workload":"equake","scale":0.02,"policies":["base","nextline","selector"]}`
	cold := post(t, ts.URL+"/sweep", body)
	coldBody := readAll(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", cold.StatusCode, coldBody)
	}
	var doc SweepResponse
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("%d results, want 3", len(doc.Results))
	}
	wantCols := []string{"base", "nextline", "selector"}
	for i, col := range wantCols {
		if doc.Results[i].Policy != col {
			t.Fatalf("result %d policy = %q, want %q", i, doc.Results[i].Policy, col)
		}
	}
	if doc.Results[0].Prefetches != 0 {
		t.Fatalf("base column reports %d prefetches, want 0", doc.Results[0].Prefetches)
	}
	if doc.Fork == nil {
		t.Fatal("sweep response missing fork summary")
	}
	// nextline + selector differ only in policy: they either fork-group
	// or (no snapshot boundary at this scale) fall back to straight runs.
	if doc.Fork.Groups+doc.Fork.StraightRuns == 0 {
		t.Fatalf("fork summary empty: %+v", doc.Fork)
	}

	warm := post(t, ts.URL+"/sweep", body)
	warmBody := readAll(t, warm)
	if got := warm.Header.Get("X-Adore-Cache"); got != "hit" {
		t.Fatalf("repeat sweep X-Adore-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("repeat sweep body not byte-identical")
	}
}

// TestShardsEndpoint pins the introspection document shape.
func TestShardsEndpoint(t *testing.T) {
	s, ts := testServer(t)
	readAll(t, post(t, ts.URL+"/run", `{"workload":"gzip","scale":0.02}`))
	resp, err := http.Get(ts.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Shards []shardDoc `json:"shards"`
	}
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != s.Cache().Shards() {
		t.Fatalf("%d shard rows, want %d", len(doc.Shards), s.Cache().Shards())
	}
	var misses, workers uint64
	for _, row := range doc.Shards {
		misses += row.Misses
		workers += uint64(row.Workers)
	}
	if misses != 1 {
		t.Fatalf("shard table shows %d misses, want 1", misses)
	}
	if workers == 0 {
		t.Fatal("shard table shows no worker slots allocated")
	}
}

// BenchmarkServeHit measures one in-process /run cache hit through
// Handler(): decode, normalize, fingerprint, shard lookup and the write.
func BenchmarkServeHit(b *testing.B) {
	h := New(Config{Parallelism: 1, Shards: 2, ShardCap: 16, TotalSlots: 1}).Handler()
	const body = `{"workload":"mcf","scale":0.02,"policy":"paper"}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("cold run: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Header().Get("X-Adore-Cache") != "hit" {
			b.Fatalf("request %d: X-Adore-Cache = %q, want hit", i, rec.Header().Get("X-Adore-Cache"))
		}
	}
}
