package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The two serve workloads drive internal/serve over a loopback listener
// with closed-loop clients: each connection sends its next request only
// after the previous reply has been read.

var serveHot = workload{name: "serve-hot", setUp: setUpHot, probe: probeHot}

var serveMixed = workload{name: "serve-mixed", setUp: setUpMixed}

const (
	serveScale = 0.02 // workload scale of every generated request

	hotRequests   = 6000 // requests per serve-hot iteration
	mixedRequests = 6000 // Zipf draws per serve-mixed iteration
	mixedConns    = 2    // serve-mixed connections and engine workers (the host's CPU count)
	mixedZipfS    = 1.2  // Zipf skew of the serve-mixed stream, adore-load's default
)

// doc is one request document.
type doc struct {
	path string // "/run" or "/sweep"
	body []byte
}

func runDoc(workload, column string) doc {
	m := map[string]any{"workload": workload, "scale": serveScale}
	switch column {
	case harness.PolicyBaseColumn:
	case harness.PolicySelectorColumn:
		m["selector"] = true
	default:
		m["policy"] = column
	}
	b, _ := json.Marshal(m) // plain map of strings, numbers and bools
	return doc{path: "/run", body: b}
}

func sweepDoc(workload, opt string) doc {
	b, _ := json.Marshal(map[string]any{"workload": workload, "scale": serveScale, "opt": opt})
	return doc{path: "/sweep", body: b}
}

// Both document sets have an odd size: every document's fill is one
// cluster of miss latencies, and with an even count the median would sit
// on the boundary between two clusters and jump between them.

// hotDocs is serve-hot's fixed document set.
func hotDocs() []doc {
	var out []doc
	for _, w := range []string{"mcf", "art", "swim"} {
		for _, col := range []string{harness.PolicyBaseColumn, "paper", harness.PolicySelectorColumn} {
			out = append(out, runDoc(w, col))
		}
	}
	return out
}

// mixedUniverse is every document serve-mixed can draw, in rank order:
// cmd/adore-load's run-mode universe (every workload × policy column, as
// O2 /run documents) with each workload's adore-load sweep-mode document
// after its columns. The sweeps compile at O3, so no sweep job is also a
// /run job: a sweep's base column, and every column of a sweep that finds
// no fork point, go through the engine's result cache, and would be
// answered from it after a /run of the same job.
func mixedUniverse() []doc {
	var out []doc
	for _, w := range workloads.Names() {
		for _, col := range harness.PolicyColumns() {
			out = append(out, runDoc(w, col))
		}
		out = append(out, sweepDoc(w, "O3"))
	}
	return out
}

// liveServer is one internal/serve instance on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

// startServer starts a fresh service with the given engine width and
// cache shard count. With a tracer, its handler is wrapped so each
// request's server-side time is a child span of the client span that sent
// it.
func startServer(parallelism, shards int, tr *tracer) (*liveServer, error) {
	srv := serve.New(serve.Config{Parallelism: parallelism, Shards: shards, ShardCap: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &liveServer{
		srv:  srv,
		hs:   serve.Hardened(h),
		url:  "http://" + ln.Addr().String(),
		stop: stop,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: mixedConns,
			DisableCompression:  true,
		}},
	}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); srv.Run(ctx) }()
	go func() { defer s.wg.Done(); s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, the connections and the shard manager, and
// waits for their goroutines.
func (s *liveServer) close() {
	s.stop()
	s.hs.Close()
	s.client.CloseIdleConnections()
	s.wg.Wait()
}

type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
	id := t.tr.begin("serve.Server.Handler", "serve", parent, r.Header.Get("X-Perfbench-Run"))
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
}

// reply is one response as the client saw it.
type reply struct {
	status int
	cache  string // X-Adore-Cache
	fp     string // X-Adore-Fingerprint
	body   []byte
	lat    time.Duration
}

// post sends d and reads the whole reply; run names the request in spans.
func (s *liveServer) post(ctx context.Context, d doc, tr *tracer, run string) (reply, error) {
	id := tr.begin("POST "+d.path, "net", 0, run)
	defer tr.end(id)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+d.path, bytes.NewReader(d.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(id))
		req.Header.Set("X-Perfbench-Run", run)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Adore-Cache"),
		fp:     resp.Header.Get("X-Adore-Fingerprint"),
		body:   body,
		lat:    time.Since(start),
	}, nil
}

// checkBody reports whether a /run or /sweep body is a result document
// with simulated instructions in it.
func checkBody(body []byte) error {
	type run struct {
		Instructions uint64 `json:"instructions"`
	}
	var doc struct {
		run
		Results []run `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	for _, r := range doc.Results {
		doc.Instructions += r.Instructions
	}
	if doc.Instructions == 0 {
		return errors.New("body reports no simulated instructions")
	}
	return nil
}

// hot is a serve-hot instance: a server whose cache the set-up filled
// with the document set, and the seeded order the iteration replays it in.
type hot struct {
	*liveServer
	docs        []doc
	bodies      [][]byte
	fps         []string
	prefillMS   []float64
	prefillWall time.Duration
	prefill     *iteration // the registry's counts after the prefill
	order       []int
}

// setUpHot starts a server and fills its cache: one cold request per
// document, in order, from one connection.
func setUpHot(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	s, err := startServer(1, 1, tr)
	if err != nil {
		return nil, err
	}
	h := &hot{liveServer: s, docs: hotDocs()}
	start := time.Now()
	for i, d := range h.docs {
		r, err := s.post(ctx, d, tr, fmt.Sprintf("prefill/%d", i))
		if err == nil && (r.status != http.StatusOK || r.cache != "miss") {
			err = fmt.Errorf("prefill %s %s: status %d, cache %q", d.path, d.body, r.status, r.cache)
		}
		if err == nil {
			err = checkBody(r.body)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		h.bodies = append(h.bodies, r.body)
		h.fps = append(h.fps, r.fp)
		h.prefillMS = append(h.prefillMS, ms(r.lat))
	}
	h.prefillWall = time.Since(start)
	h.prefill = &iteration{layer: layerValues{}}
	registryLayers(s.srv.Registry(), h.prefill)
	rng := rand.New(rand.NewSource(seed))
	for len(h.order) < hotRequests {
		h.order = append(h.order, rng.Perm(len(h.docs))...)
	}
	h.order = h.order[:hotRequests]
	return h, nil
}

// run replays the document set from one connection; every reply must be
// a cache hit, byte-identical to the cold reply for its document.
func (h *hot) run(ctx context.Context, tr *tracer) (*iteration, error) {
	it := &iteration{
		layer:    h.prefill.layer,
		ops:      make([]float64, 0, len(h.order)),
		misses:   h.prefillMS,
		simInsts: h.prefill.simInsts,
		simTime:  h.prefillWall,
		exact:    h.prefill.exact,
	}
	for i, d := range h.order {
		it.attempted++
		r, err := h.post(ctx, h.docs[d], tr, "req/"+strconv.Itoa(i))
		switch {
		case err != nil:
			it.failf("request %d: %v", i, err)
			continue
		case r.status != http.StatusOK:
			it.failf("request %d: status %d", i, r.status)
		case r.cache != "hit":
			it.failf("request %d: cache %q, want hit", i, r.cache)
		case r.fp != h.fps[d] || !bytes.Equal(r.body, h.bodies[d]):
			it.failf("request %d: reply differs from the cold reply for its document", i)
		}
		it.ops = append(it.ops, ms(r.lat))
	}
	hits, misses, evictions := h.srv.Cache().Stats()
	it.layer["serve.hit"] = float64(hits)
	it.layer["serve.miss"] = float64(misses)
	it.layer["serve.evictions"] = float64(evictions)
	return it, nil
}

// probeHot times the serve layers one call at a time on a filled
// server: request fingerprinting, a cache hit through ShardedCache.Do,
// the whole handler without a socket, and the same requests over the
// loopback connection (the difference is the network and client path).
func probeHot(ctx context.Context, inst instance, tr *tracer, out layerValues) error {
	h := inst.(*hot)
	const calls = 2000

	var reqs []serve.RunRequest
	for _, d := range h.docs {
		var rr serve.RunRequest
		if err := json.Unmarshal(d.body, &rr); err != nil {
			return err
		}
		reqs = append(reqs, rr)
	}
	id := tr.begin("serve.RunRequest.Fingerprint", "serve.fingerprint", 0, "probe")
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		probeFP = reqs[i%len(reqs)].Fingerprint()
	}
	out["serve.fingerprint_us"] = float64(time.Since(t0)) / 1e3 / calls
	tr.end(id)

	fill := func(context.Context) ([]byte, error) { return nil, errors.New("hit path ran a fill") }
	id = tr.begin("serve.ShardedCache.Do", "serve.cache", 0, "probe")
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		if _, hit, err := h.srv.Cache().Do(ctx, h.fps[i%len(h.fps)], fill); err != nil || !hit {
			return fmt.Errorf("cache probe: hit %v, err %v", hit, err)
		}
	}
	out["serve.cache_do_us"] = float64(time.Since(t0)) / 1e3 / calls
	tr.end(id)

	handler := h.srv.Handler()
	var handlerUS, netUS []float64
	for i := 0; i < calls; i++ {
		d := h.docs[i%len(h.docs)]
		req := httptest.NewRequest(http.MethodPost, d.path, bytes.NewReader(d.body))
		rec := httptest.NewRecorder()
		id := tr.begin("serve.Server.Handler", "serve", 0, "probe/"+strconv.Itoa(i))
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		handlerUS = append(handlerUS, float64(time.Since(t0))/1e3)
		tr.end(id)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Adore-Cache") != "hit" {
			return fmt.Errorf("handler probe: status %d, cache %q", rec.Code, rec.Header().Get("X-Adore-Cache"))
		}
	}
	for i := 0; i < calls; i++ {
		r, err := h.post(ctx, h.docs[i%len(h.docs)], nil, "")
		if err != nil {
			return err
		}
		netUS = append(netUS, float64(r.lat)/1e3)
	}
	out["serve.handler_us_p50"] = median(handlerUS)
	out["serve.net_us_p50"] = median(netUS) - median(handlerUS)
	return nil
}

var probeFP string

// mixed is a serve-mixed instance: a fresh, empty server and the seeded
// request stream.
type mixed struct {
	*liveServer
	docs   []doc
	stream []int
}

// mixedStream draws the seeded Zipf stream over the universe's ranks, as
// cmd/adore-load does, then appends once every document the draws missed,
// so every seed fills the same set of documents and differs only in the
// order of the requests.
func mixedStream(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, mixedZipfS, 1, uint64(n-1))
	seen := make([]bool, n)
	stream := make([]int, 0, mixedRequests+n)
	for i := 0; i < mixedRequests; i++ {
		d := int(zipf.Uint64())
		seen[d] = true
		stream = append(stream, d)
	}
	for d := range seen {
		if !seen[d] {
			stream = append(stream, d)
		}
	}
	return stream
}

func setUpMixed(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	s, err := startServer(mixedConns, 8, tr)
	if err != nil {
		return nil, err
	}
	docs := mixedUniverse()
	return &mixed{liveServer: s, docs: docs, stream: mixedStream(seed, len(docs))}, nil
}

// disposition is the generator's own view of a request: its document had
// no request before it (miss), had one still in flight (joined), or had a
// completed reply (hit).
type disposition int

const (
	dispMiss disposition = iota
	dispJoined
	dispHit
)

// run plays the stream over mixedConns closed-loop connections.
func (m *mixed) run(ctx context.Context, tr *tracer) (*iteration, error) {
	var (
		mu     sync.Mutex
		next   int
		state  = make([]int, len(m.docs)) // 0 none, 1 in flight, 2 done
		bodies = map[string][]byte{}
		docFP  = make([]string, len(m.docs))
		lat    [3][]float64
		it     = &iteration{layer: layerValues{}}
		wg     sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			i := next
			next++
			if i >= len(m.stream) {
				mu.Unlock()
				return
			}
			d := m.stream[i]
			disp := dispHit
			switch state[d] {
			case 0:
				disp, state[d] = dispMiss, 1
			case 1:
				disp = dispJoined
			}
			mu.Unlock()

			r, err := m.post(ctx, m.docs[d], tr, "req/"+strconv.Itoa(i))

			mu.Lock()
			if disp == dispMiss {
				state[d] = 2
			}
			it.attempted++
			switch {
			case err != nil:
				it.failf("request %d: %v", i, err)
			case r.status != http.StatusOK:
				it.failf("request %d: status %d: %s", i, r.status, r.body)
			case docFP[d] != "" && docFP[d] != r.fp:
				it.failf("request %d: fingerprint %s, earlier %s", i, r.fp, docFP[d])
			default:
				docFP[d] = r.fp
				if prev, ok := bodies[r.fp]; !ok {
					bodies[r.fp] = r.body
				} else if !bytes.Equal(prev, r.body) {
					it.failf("request %d: body for %s differs from its first reply", i, r.fp)
				}
				lat[disp] = append(lat[disp], ms(r.lat))
				it.ops = append(it.ops, ms(r.lat))
			}
			mu.Unlock()
		}
	}
	wg.Add(mixedConns)
	for c := 0; c < mixedConns; c++ {
		go worker()
	}
	wg.Wait()

	if len(bodies) != len(m.docs) {
		it.failf("%d distinct replies for %d documents", len(bodies), len(m.docs))
	}
	for fp, body := range bodies {
		if err := checkBody(body); err != nil {
			it.failf("reply %s: %v", fp, err)
		}
	}
	_, fills, evictions := m.srv.Cache().Stats()
	if fills != uint64(len(m.docs)) || evictions != 0 {
		it.failf("server cache: %d fills and %d evictions for %d documents", fills, evictions, len(m.docs))
	}
	it.misses = lat[dispMiss]
	registryLayers(m.srv.Registry(), it)
	reg := m.srv.Registry()
	it.layer["fork.groups"] = float64(reg.Counter("adore_serve_fork_groups_total", "").Value())
	it.layer["fork.forked_runs"] = float64(reg.Counter("adore_serve_forked_runs_total", "").Value())
	it.layer["serve.hit"] = float64(len(lat[dispHit]))
	it.layer["serve.joined"] = float64(len(lat[dispJoined]))
	it.layer["serve.miss"] = float64(len(lat[dispMiss]))
	it.layer["serve.joined_p50_ms"] = median(lat[dispJoined])
	it.layer["serve.hit_p50_ms"] = median(lat[dispHit])
	it.layer["serve.evictions"] = float64(evictions)
	return it, nil
}
