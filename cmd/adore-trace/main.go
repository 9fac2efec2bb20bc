// adore-trace runs a workload under ADORE and dumps what the optimizer
// did: each optimization attempt with its delinquent loads and pattern
// classification, the installed patches, and the disassembled trace pool.
//
// Usage:
//
//	adore-trace -bench mcf [-scale 0.3] [-pool] [-trace out.json] [-events out.jsonl]
//
// -trace and -events turn on the observability layer for the run and
// export the recorded event stream: -trace writes a Chrome trace-event
// file loadable in Perfetto (ui.perfetto.dev), -events a JSONL stream.
// An observed run also prints its CPI-stack shares and prefetch
// usefulness. See DESIGN.md §10.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("bench", "mcf", "benchmark: "+strings.Join(workloads.Names(), " "))
	scale := flag.Float64("scale", 0.3, "workload scale factor")
	policy := flag.String("policy", "", "prefetch policy: "+strings.Join(core.PrefetchPolicyNames(), " "))
	selector := flag.Bool("selector", false, "pick the prefetch policy at runtime per phase")
	dumpPool := flag.Bool("pool", false, "disassemble the trace pool at exit")
	traceOut := flag.String("trace", "", "write a Perfetto-loadable Chrome trace to this file")
	eventsOut := flag.String("events", "", "write the event stream as JSONL to this file")
	flag.Parse()

	bench, err := adore.Benchmark(*name, *scale)
	fatal(err)
	build, err := adore.Compile(bench.Kernel, adore.CompileOptions())
	fatal(err)

	cfg := harness.DefaultRunConfig()
	cfg.ADORE = true
	cfg.Observe = *traceOut != "" || *eventsOut != ""
	cfg.Core.Policy = *policy
	cfg.Core.Selector = *selector
	cfg.OnOptimize = func(cycle uint64, t *core.Trace, loads []core.DelinquentLoad, res core.OptimizeResult) {
		fmt.Printf("[%12d] optimize trace @%#x (loop=%v, %d bundles, %d insts)\n",
			cycle, t.Start, t.IsLoop, len(t.Bundles), t.InstCount())
		for _, dl := range loads {
			fmt.Printf("  delinquent load pc=%#x: %d events, avg latency %.0f cycles\n",
				dl.PC, dl.Count, dl.AvgLatency)
		}
		fmt.Printf("  inserted: %d direct, %d indirect, %d pointer-chasing (failures %d, skipped %d)\n",
			res.Direct, res.Indirect, res.Pointer, res.Failures, res.Skipped)
	}
	res, err := harness.RunContext(cli.Context(), build, cfg)
	fatal(err)
	ctrl, st := res.Controller, res.Core

	fmt.Printf("\nrun: %d cycles, %d instructions (CPI %.3f)\n", res.CPU.Cycles, res.CPU.Retired, res.CPU.CPI())
	fmt.Printf("ADORE: %+v\n", *st)
	if d := st.SamplesDropped; d > 0 {
		fmt.Printf("samples dropped: %d\n", d)
		fmt.Fprintf(os.Stderr, "warning: %d PMU samples dropped (unhandled SSB overflows); the profile is incomplete\n", d)
	}
	fmt.Printf("prefetches inserted: %d (%d direct, %d indirect, %d pointer-chasing)\n",
		st.TotalPrefetches(), st.DirectPrefetches, st.IndirectPrefetches, st.PointerPrefetches)
	fmt.Printf("verifier: %d traces checked, %d rejected\n", st.TracesVerified, st.VerifyRejects)
	fmt.Printf("policy: %s\n", ctrl.PolicyKey())
	if use := ctrl.PolicyUse(); use != nil {
		fmt.Printf("  selector decisions: %d (%d fell back to nextline)\n",
			st.PolicySelections, st.PolicySwitches)
		for _, pol := range core.PrefetchPolicyNames() {
			if n := use[pol]; n > 0 {
				fmt.Printf("    %-9s %d traces\n", pol, n)
			}
		}
	}
	for _, rec := range ctrl.Patches() {
		fmt.Printf("patch @%#x -> trace %#x..%#x (active %v)\n", rec.Entry, rec.TraceAddr, rec.TraceEnd, rec.Active)
	}
	if *dumpPool {
		for _, s := range res.Code.Segments() {
			if s.Name != "trace-pool" {
				continue
			}
			n := ctrl.Pool().Used()
			sub := &program.Segment{Name: s.Name, Base: s.Base, Bundles: s.Bundles[:n]}
			fmt.Printf("\ntrace pool (%d bundles):\n%s", n, program.Listing(sub))
		}
	}
	if cfg.Observe {
		if s := res.CPIStack; s != nil {
			t := float64(s.Total())
			fmt.Printf("cpi stack: busy %.1f%%, load-stall %.1f%%, flush %.1f%%, fetch %.1f%%\n",
				100*float64(s.Busy)/t, 100*float64(s.LoadStall)/t, 100*float64(s.Flush)/t, 100*float64(s.Fetch)/t)
		}
		pf := res.Mem.Prefetch()
		fmt.Printf("prefetch: %d issued, %d useful, %d late, %d evicted unused\n",
			pf.Issued, pf.Useful, pf.Late, pf.EvictedUnused)
		cap := res.Obs
		fmt.Printf("events: %d recorded, %d dropped\n", len(cap.Events), cap.Dropped)
		if cap.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d observability events dropped (ring overwrites); the exported stream is incomplete\n", cap.Dropped)
		}
		export(*traceOut, cap, obs.WriteChromeTrace)
		export(*eventsOut, cap, obs.WriteJSONL)
	}
}

// export writes the capture through render when path is set.
func export(path string, c *obs.Capture, render func(w io.Writer, c *obs.Capture) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatal(err)
	fatal(render(f, c))
	fatal(f.Close())
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) { cli.Fatal(err) }
