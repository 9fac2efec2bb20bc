// adore-trace runs a workload under ADORE and dumps what the optimizer
// did: each optimization attempt with its delinquent loads and pattern
// classification, the installed patches, and the disassembled trace pool.
//
// Usage:
//
//	adore-trace -bench mcf [-scale 0.3] [-pool] [-trace out.json] [-events out.jsonl]
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
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pmu"
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
	observe := *traceOut != "" || *eventsOut != ""

	bench, err := adore.Benchmark(*name, *scale)
	fatal(err)
	build, err := adore.Compile(bench.Kernel, adore.CompileOptions())
	fatal(err)
	img := build.Image

	code := program.NewCodeSpace()
	seg := &program.Segment{Name: img.Name, Base: img.Code.Base,
		Bundles: append([]isa.Bundle{}, img.Code.Bundles...)}
	fatal(code.AddSegment(seg))
	mem := img.NewMemory() // an image without InitData gets an empty memory
	hier := memsys.NewHierarchy(memsys.DefaultConfig())
	ccfg := core.DefaultConfig()
	ccfg.Observe = observe
	ccfg.Policy = *policy
	ccfg.Selector = *selector
	mcfg := cpu.DefaultConfig()
	mcfg.Accounting = observe
	p := pmu.New(ccfg.Sampling)
	m := cpu.New(mcfg, code, mem, hier, p)
	m.SetPC(img.Entry)
	m.SetImage(img)
	ctrl, err := core.NewController(ccfg, code, p)
	fatal(err)
	ctrl.SetImage(img)

	ctrl.OnOptimize = func(t *core.Trace, loads []core.DelinquentLoad, res core.OptimizeResult) {
		fmt.Printf("[%12d] optimize trace @%#x (loop=%v, %d bundles, %d insts)\n",
			m.Now(), t.Start, t.IsLoop, len(t.Bundles), t.InstCount())
		for _, dl := range loads {
			fmt.Printf("  delinquent load pc=%#x: %d events, avg latency %.0f cycles\n",
				dl.PC, dl.Count, dl.AvgLatency)
		}
		fmt.Printf("  inserted: %d direct, %d indirect, %d pointer-chasing (failures %d, skipped %d)\n",
			res.Direct, res.Indirect, res.Pointer, res.Failures, res.Skipped)
	}
	ctrl.Attach(m)
	st, err := m.RunContext(cli.Context(), 5_000_000_000)
	fatal(err)

	fmt.Printf("\nrun: %d cycles, %d instructions (CPI %.3f)\n", st.Cycles, st.Retired, st.CPI())
	fmt.Printf("ADORE: %+v\n", ctrl.Stats)
	if d := ctrl.Stats.SamplesDropped; d > 0 {
		fmt.Printf("samples dropped: %d\n", d)
		fmt.Fprintf(os.Stderr, "warning: %d PMU samples dropped (unhandled SSB overflows); the profile is incomplete\n", d)
	}
	fmt.Printf("prefetches inserted: %d (%d direct, %d indirect, %d pointer-chasing)\n",
		ctrl.Stats.TotalPrefetches(), ctrl.Stats.DirectPrefetches,
		ctrl.Stats.IndirectPrefetches, ctrl.Stats.PointerPrefetches)
	fmt.Printf("verifier: %d traces checked, %d rejected\n",
		ctrl.Stats.TracesVerified, ctrl.Stats.VerifyRejects)
	fmt.Printf("policy: %s\n", ctrl.PolicyKey())
	if use := ctrl.PolicyUse(); use != nil {
		fmt.Printf("  selector decisions: %d (%d fell back to nextline)\n",
			ctrl.Stats.PolicySelections, ctrl.Stats.PolicySwitches)
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
		for _, s := range code.Segments() {
			if s.Name != "trace-pool" {
				continue
			}
			n := ctrl.Pool().Used()
			sub := &program.Segment{Name: s.Name, Base: s.Base, Bundles: s.Bundles[:n]}
			fmt.Printf("\ntrace pool (%d bundles):\n%s", n, program.Listing(sub))
		}
	}
	if observe {
		cap := ctrl.Capture()
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
