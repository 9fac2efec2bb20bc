// adore-load drives an adore-serve instance with a deterministic, seeded,
// Zipf-distributed request stream and reports latency percentiles, RPS,
// and cache effectiveness.
//
// Usage:
//
//	adore-load [-addr http://localhost:8124] [-mode run|sweep] [-n 200]
//	           [-duration 0] [-c 4] [-seed 1] [-zipf 1.2] [-scale 0.02]
//	           [-max-insts 200000] [-out summary.json]
//
// The request universe is every (workload, policy-column) pair in run
// mode, or every workload in sweep mode; a seeded Zipf draw picks which
// request each slot in the stream repeats, so the stream skews hot the
// way real query mixes do — the first occurrence of a document is a cold
// simulation, every repeat should be a byte-identical cache hit. The
// summary separates the hit, joined and miss latency populations by the
// server's X-Adore-Cache disposition (cached service, a wait on another
// request's in-flight simulation, cold service), and verifies
// byte-identity of repeats by fingerprint.
// Deterministic by construction: same seed, same stream.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/harness"
	"repro/internal/workloads"
)

type request struct {
	path string
	body []byte
}

// universe builds the distinct request documents the Zipf draw ranks.
// Rank order is deterministic: workloads in registry order, columns in
// policy-matrix order.
func universe(mode string, scale float64, maxInsts uint64) ([]request, error) {
	var out []request
	add := func(path string, doc any) error {
		b, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		out = append(out, request{path: path, body: b})
		return nil
	}
	for _, name := range workloads.Names() {
		if mode == "sweep" {
			err := add("/sweep", map[string]any{
				"workload": name, "scale": scale, "max_insts": maxInsts,
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		for _, col := range harness.PolicyColumns() {
			doc := map[string]any{"workload": name, "scale": scale, "max_insts": maxInsts}
			switch col {
			case harness.PolicyBaseColumn:
			case harness.PolicySelectorColumn:
				doc["selector"] = true
			default:
				doc["policy"] = col
			}
			if err := add("/run", doc); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// percentile reads the p-th percentile (nearest-rank) from sorted ns.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

type latencySummary struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

func summarize(ms []float64) latencySummary {
	sort.Float64s(ms)
	return latencySummary{Count: len(ms), P50ms: percentile(ms, 50), P99ms: percentile(ms, 99)}
}

type summary struct {
	Mode            string         `json:"mode"`
	Seed            int64          `json:"seed"`
	Zipf            float64        `json:"zipf_s"`
	Universe        int            `json:"universe"`
	Requests        int            `json:"requests"`
	Errors          int            `json:"errors"`
	Hits            int            `json:"hits"`
	Joins           int            `json:"joins"`
	Misses          int            `json:"misses"`
	ByteIdentical   bool           `json:"byte_identical"`
	DurationSeconds float64        `json:"duration_seconds"`
	RPS             float64        `json:"rps"`
	Overall         latencySummary `json:"latency_overall"`
	Hit             latencySummary `json:"latency_hit"`
	Joined          latencySummary `json:"latency_joined"`
	Miss            latencySummary `json:"latency_miss"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8124", "adore-serve base URL")
	mode := flag.String("mode", "run", "request mode: run (per-policy /run) or sweep (fork-grouped /sweep)")
	n := flag.Int("n", 200, "number of requests to issue")
	duration := flag.Duration("duration", 0, "stop after this long even if -n requests have not been issued (0 = no limit)")
	conc := flag.Int("c", 4, "concurrent in-flight requests")
	seed := flag.Int64("seed", 1, "PRNG seed; same seed, same request stream")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew s (>1); higher = hotter hot keys")
	scale := flag.Float64("scale", 0.02, "workload scale factor of generated requests")
	maxInsts := flag.Uint64("max-insts", 0, "instruction cap of generated requests (0 = engine default; a too-low cap fails runs that need more)")
	out := flag.String("out", "", "also write the JSON summary to this file")
	flag.Parse()

	if *mode != "run" && *mode != "sweep" {
		cli.Fatal(fmt.Errorf("unknown -mode %q (want run or sweep)", *mode))
	}
	uni, err := universe(*mode, *scale, *maxInsts)
	cli.Fatal(err)

	// The whole stream is drawn up front so concurrency cannot perturb
	// determinism: request i is the same document for any -c.
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(uni)-1))
	stream := make([]int, *n)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}

	ctx := cli.Context()
	client := &http.Client{Timeout: 15 * time.Minute}
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var (
		mu        sync.Mutex
		hitMS     []float64
		joinMS    []float64
		missMS    []float64
		errors    int
		issued    int
		bodies    = map[string][32]byte{} // fingerprint -> body hash
		identical = true
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := uni[stream[i]]
				start := time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, *addr+r.path, bytes.NewReader(r.body))
				if err == nil {
					req.Header.Set("Content-Type", "application/json")
					var resp *http.Response
					resp, err = client.Do(req)
					if err == nil {
						body, rerr := io.ReadAll(resp.Body)
						resp.Body.Close()
						elapsed := float64(time.Since(start).Microseconds()) / 1000
						mu.Lock()
						issued++
						if rerr != nil || resp.StatusCode != http.StatusOK {
							errors++
						} else {
							fp := resp.Header.Get("X-Adore-Fingerprint")
							sum := sha256.Sum256(body)
							if prev, ok := bodies[fp]; ok {
								if prev != sum {
									identical = false
								}
							} else {
								bodies[fp] = sum
							}
							switch resp.Header.Get("X-Adore-Cache") {
							case "hit":
								hitMS = append(hitMS, elapsed)
							case "joined":
								joinMS = append(joinMS, elapsed)
							default:
								missMS = append(missMS, elapsed)
							}
						}
						mu.Unlock()
						continue
					}
				}
				mu.Lock()
				issued++
				if ctx.Err() == nil {
					errors++
				}
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	for i := range stream {
		if ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	all := append(append(append([]float64{}, hitMS...), joinMS...), missMS...)
	s := summary{
		Mode: *mode, Seed: *seed, Zipf: *zipfS, Universe: len(uni),
		Requests: issued, Errors: errors,
		Hits: len(hitMS), Joins: len(joinMS), Misses: len(missMS),
		ByteIdentical:   identical,
		DurationSeconds: elapsed.Seconds(),
		RPS:             float64(issued) / elapsed.Seconds(),
		Overall:         summarize(all),
		Hit:             summarize(hitMS),
		Joined:          summarize(joinMS),
		Miss:            summarize(missMS),
	}
	b, err := json.MarshalIndent(s, "", "  ")
	cli.Fatal(err)
	b = append(b, '\n')
	os.Stdout.Write(b)
	if *out != "" {
		cli.Fatal(os.WriteFile(*out, b, 0o644))
	}
	if errors > 0 {
		cli.Fatal(fmt.Errorf("adore-load: %d/%d requests failed", errors, issued))
	}
	if !identical {
		cli.Fatal(fmt.Errorf("adore-load: cache hits were not byte-identical to cold responses"))
	}
}
