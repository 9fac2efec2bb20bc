// adore-run executes one of the SPEC2000-like workloads on the simulated
// machine, with or without the ADORE dynamic optimizer, and prints what the
// run did.
//
// Usage:
//
//	adore-run -bench mcf [-O3] [-swp] [-noreserve] [-scale 1.0] [-adore] [-policy p | -selector] [-series]
//	adore-run -bench mcf -decisions [-pool]              # every optimization, stats, patches
//	adore-run -bench gcc -misses                         # per-loop DEAR miss profile (Table 1 training)
//	adore-run -bench mcf -timeline                       # per-window event timeline
//	adore-run -bench mcf -annotate [-profile sim.pb.gz]  # cycle-profiled disassembly; go tool pprof -top sim.pb.gz
//	adore-run -bench mcf [-trace out.json] [-events out.jsonl] [-save image.bin] [-disasm]
//
// A view (-decisions, -misses, -timeline, -annotate) replaces the default
// counter summary; two views are a usage error. -trace and -events observe
// the run, export its event stream (a Chrome trace loadable in Perfetto,
// JSONL) and print its CPI-stack shares, prefetch usefulness and event
// counts (DESIGN.md §10); -annotate and -profile run the simulated-execution
// profiler (DESIGN.md §15).
//
// -policy, -selector, -decisions, -pool, -trace, -events and -timeline
// imply -adore. Without -adore, -series and -misses sample Fig. 11's
// monitor run: the optimizer attached with patch insertion off, which
// simulates the same machine as an unoptimized run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/workloads"
)

// profileInterval is the cycle-sampling profiler's interval in simulated
// cycles (a prime, so it cannot alias with loop periods).
const profileInterval = 4093

// errUsage reports a command line that parsed but asks for something the
// command cannot do; main exits 2 for it as for a flag error.
var errUsage = errors.New("usage error")

func main() {
	err := run(cli.Context(), os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		cli.Fatal(err)
	}
}

// options is the parsed command line, implications applied.
type options struct {
	bench                      string
	scale                      float64
	o3, swp, noReserve         bool
	adore, selector            bool
	policy                     string
	series, disasm             bool
	save                       string
	decisions, pool            bool
	misses, timeline, annotate bool
	trace, events, profile     string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("adore-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.bench, "bench", "mcf", "benchmark: "+strings.Join(workloads.Names(), " "))
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale factor")
	fs.BoolVar(&o.o3, "O3", false, "compile at O3 (static prefetching)")
	fs.BoolVar(&o.swp, "swp", false, "enable software pipelining")
	fs.BoolVar(&o.noReserve, "noreserve", false, "do not reserve r27-r30/p6")
	fs.BoolVar(&o.adore, "adore", false, "attach the ADORE dynamic optimizer")
	fs.StringVar(&o.policy, "policy", "", "prefetch policy (implies -adore): "+strings.Join(adore.Policies(), " "))
	fs.BoolVar(&o.selector, "selector", false, "pick the prefetch policy at runtime per phase (implies -adore)")
	fs.BoolVar(&o.series, "series", false, "print the per-window CPI/DEAR series")
	fs.StringVar(&o.save, "save", "", "write the compiled image to this file (binary ADORE image format)")
	fs.BoolVar(&o.disasm, "disasm", false, "print the compiled image's disassembly and exit")
	fs.BoolVar(&o.decisions, "decisions", false, "view: every optimization attempt, then stats, policy use and patches (implies -adore)")
	fs.BoolVar(&o.pool, "pool", false, "disassemble the trace pool at exit (implies -decisions)")
	fs.BoolVar(&o.misses, "misses", false, "view: sampled DEAR miss latency per loop")
	fs.BoolVar(&o.timeline, "timeline", false, "view: the observed run's event timeline (implies -adore)")
	fs.BoolVar(&o.annotate, "annotate", false, "view: profiler-annotated disassembly")
	fs.StringVar(&o.trace, "trace", "", "write a Perfetto-loadable Chrome trace to this file (implies -adore)")
	fs.StringVar(&o.events, "events", "", "write the event stream as JSONL to this file (implies -adore)")
	fs.StringVar(&o.profile, "profile", "", "write the cycle-sampling profile as a gzipped pprof proto to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage
	}
	o.decisions = o.decisions || o.pool
	o.adore = o.adore || o.policy != "" || o.selector || o.decisions || o.timeline || o.trace != "" || o.events != ""
	views := 0
	for _, v := range []bool{o.decisions, o.misses, o.timeline, o.annotate} {
		if v {
			views++
		}
	}
	if views > 1 {
		fmt.Fprintln(stderr, "adore-run: give at most one of -decisions, -misses, -timeline, -annotate")
		return nil, errUsage
	}
	return o, nil
}

// runConfig is the one machine the command line asks for.
func (o *options) runConfig() harness.RunConfig {
	rc := adore.RunOptions()
	if o.adore {
		rc = adore.WithADORE(rc)
		if o.policy != "" {
			rc = adore.WithPolicy(rc, o.policy)
		}
		if o.selector {
			rc = adore.WithSelector(rc)
		}
	} else if o.series || o.misses {
		// Sampling an unoptimized run is Fig. 11's monitor run.
		rc = adore.WithADORE(rc)
		rc.Core.DisableInsertion = true
	}
	rc.RecordSeries = o.series
	rc.CaptureDear = o.misses
	rc.Observe = o.timeline || o.observed()
	if o.annotate || o.profile != "" {
		rc.Profile = profileInterval
	}
	return rc
}

// observed reports whether the run's event stream is exported.
func (o *options) observed() bool { return o.trace != "" || o.events != "" }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	bench, err := adore.Benchmark(o.bench, o.scale)
	if err != nil {
		return err
	}
	opts := adore.CompileOptions()
	if o.o3 {
		opts.Level = adore.O3
	}
	opts.SWP = o.swp
	opts.ReserveRegs = !o.noReserve
	build, err := adore.Compile(bench.Kernel, opts)
	if err != nil {
		return err
	}
	if o.save != "" {
		if err := writeFile(stderr, o.save, func(w io.Writer) error { return program.EncodeImage(w, build.Image) }); err != nil {
			return err
		}
	}
	if o.disasm {
		fmt.Fprint(stdout, program.Listing(build.Image.Code))
		return nil
	}

	rc := o.runConfig()
	if o.decisions {
		rc.OnOptimize = func(cycle uint64, t *core.Trace, loads []core.DelinquentLoad, res core.OptimizeResult) {
			fmt.Fprintf(stdout, "[%12d] optimize trace @%#x (loop=%v, %d bundles, %d insts)\n",
				cycle, t.Start, t.IsLoop, len(t.Bundles), t.InstCount())
			for _, dl := range loads {
				fmt.Fprintf(stdout, "  delinquent load pc=%#x: %d events, avg latency %.0f cycles\n",
					dl.PC, dl.Count, dl.AvgLatency)
			}
			fmt.Fprintf(stdout, "  inserted: %d direct, %d indirect, %d pointer-chasing (failures %d, skipped %d)\n",
				res.Direct, res.Indirect, res.Pointer, res.Failures, res.Skipped)
		}
	}
	res, err := adore.RunContext(ctx, build, rc)
	if err != nil {
		return err
	}

	switch {
	case o.decisions:
		printDecisions(stdout, stderr, res, o.pool)
	case o.misses:
		printMisses(stdout, bench.Name, res.DearEvents, build.Image)
	case o.timeline:
		fmt.Fprint(stdout, adore.Timeline(res.Obs))
	case o.annotate:
		if err := obs.WriteAnnotate(stdout, res.Profile, build.Image); err != nil {
			return err
		}
	default:
		printSummary(stdout, bench, opts, o, rc, res)
	}
	if o.series {
		fmt.Fprintln(stdout, "  window series (cycle, CPI, DEAR/1000 inst):")
		step := len(res.Series)/30 + 1
		for i := 0; i < len(res.Series); i += step {
			p := res.Series[i]
			fmt.Fprintf(stdout, "    %12d  %6.2f  %6.2f\n", p.Cycle, p.CPI, p.DearPerK)
		}
	}
	if o.observed() {
		if s := res.CPIStack; s != nil {
			t := float64(s.Total())
			fmt.Fprintf(stdout, "cpi stack: busy %.1f%%, load-stall %.1f%%, flush %.1f%%, fetch %.1f%%\n",
				100*float64(s.Busy)/t, 100*float64(s.LoadStall)/t, 100*float64(s.Flush)/t, 100*float64(s.Fetch)/t)
		}
		pf := res.Mem.Prefetch()
		fmt.Fprintf(stdout, "prefetch: %d issued, %d useful, %d late, %d evicted unused\n",
			pf.Issued, pf.Useful, pf.Late, pf.EvictedUnused)
		c := res.Obs
		fmt.Fprintf(stdout, "events: %d recorded, %d dropped\n", len(c.Events), c.Dropped)
		if c.Dropped > 0 {
			fmt.Fprintf(stderr, "warning: %d observability events dropped (ring overwrites); the exported stream is incomplete\n", c.Dropped)
		}
		if o.trace != "" {
			if err := writeFile(stderr, o.trace, func(w io.Writer) error { return obs.WriteChromeTrace(w, c) }); err != nil {
				return err
			}
		}
		if o.events != "" {
			if err := writeFile(stderr, o.events, func(w io.Writer) error { return obs.WriteJSONL(w, c) }); err != nil {
				return err
			}
		}
	}
	if o.profile != "" {
		return writeFile(stderr, o.profile, func(w io.Writer) error { return obs.WritePprof(w, res.Profile) })
	}
	return nil
}

// printSummary is the default view: the run's counters.
func printSummary(w io.Writer, bench adore.WorkloadInfo, opts adore.BuildOptions, o *options, rc harness.RunConfig, res *harness.RunResult) {
	fmt.Fprintf(w, "%s (%s, %s%s%s):\n", bench.Name, bench.Class, opts.Level,
		flagStr(o.swp, "+swp"), flagStr(o.adore, "+adore"))
	fmt.Fprintf(w, "  cycles:        %d\n", res.CPU.Cycles)
	fmt.Fprintf(w, "  instructions:  %d (CPI %.3f)\n", res.CPU.Retired, res.CPU.CPI())
	fmt.Fprintf(w, "  loads/stores:  %d/%d, prefetches %d\n", res.CPU.Loads, res.CPU.Stores, res.CPU.Prefetches)
	fmt.Fprintf(w, "  load stalls:   %d cycles, I-cache stalls %d\n", res.CPU.LoadStalls, res.CPU.ICacheStalls)
	fmt.Fprintf(w, "  L1D misses:    %d  L2 misses: %d  L3 misses: %d\n",
		res.Mem.L1D.Misses, res.Mem.L2.Misses, res.Mem.L3.Misses)
	if !o.adore {
		return
	}
	s := res.Core
	fmt.Fprintf(w, "  ADORE (policy %s): %d phases optimized, %d traces patched\n",
		rc.Core.PolicyKey(), s.PhasesOptimized, s.TracesPatched)
	if rc.Core.Selector {
		fmt.Fprintf(w, "         selector: %d decisions, %d fallbacks\n",
			s.PolicySelections, s.PolicySwitches)
	}
	fmt.Fprintf(w, "         prefetches inserted: %d direct, %d indirect, %d pointer-chasing\n",
		s.DirectPrefetches, s.IndirectPrefetches, s.PointerPrefetches)
	fmt.Fprintf(w, "         windows %d, phase changes %d, analysis failures %d\n",
		s.WindowsObserved, s.PhaseChanges, s.AnalysisFailures)
}

func flagStr(on bool, s string) string {
	if on {
		return s
	}
	return ""
}

// printDecisions is the -decisions view's post-run dump: what the
// optimizer did, which policy decided it, and where it patched.
func printDecisions(w, stderr io.Writer, res *harness.RunResult, pool bool) {
	ctrl, st := res.Controller, res.Core
	fmt.Fprintf(w, "\nrun: %d cycles, %d instructions (CPI %.3f)\n", res.CPU.Cycles, res.CPU.Retired, res.CPU.CPI())
	fmt.Fprintf(w, "ADORE: %+v\n", *st)
	if d := st.SamplesDropped; d > 0 {
		fmt.Fprintf(w, "samples dropped: %d\n", d)
		fmt.Fprintf(stderr, "warning: %d PMU samples dropped (unhandled SSB overflows); the profile is incomplete\n", d)
	}
	fmt.Fprintf(w, "prefetches inserted: %d (%d direct, %d indirect, %d pointer-chasing)\n",
		st.TotalPrefetches(), st.DirectPrefetches, st.IndirectPrefetches, st.PointerPrefetches)
	fmt.Fprintf(w, "verifier: %d traces checked, %d rejected\n", st.TracesVerified, st.VerifyRejects)
	fmt.Fprintf(w, "policy: %s\n", ctrl.PolicyKey())
	if use := ctrl.PolicyUse(); use != nil {
		fmt.Fprintf(w, "  selector decisions: %d (%d fell back to nextline)\n",
			st.PolicySelections, st.PolicySwitches)
		for _, pol := range core.PrefetchPolicyNames() {
			if n := use[pol]; n > 0 {
				fmt.Fprintf(w, "    %-9s %d traces\n", pol, n)
			}
		}
	}
	for _, rec := range ctrl.Patches() {
		fmt.Fprintf(w, "patch @%#x -> trace %#x..%#x (active %v)\n", rec.Entry, rec.TraceAddr, rec.TraceEnd, rec.Active)
	}
	if !pool {
		return
	}
	for _, s := range res.Code.Segments() {
		if s.Name != "trace-pool" {
			continue
		}
		n := ctrl.Pool().Used()
		sub := &program.Segment{Name: s.Name, Base: s.Base, Bundles: s.Bundles[:n]}
		fmt.Fprintf(w, "\ntrace pool (%d bundles):\n%s", n, program.Listing(sub))
	}
}

// missRow is one loop's share of a run's sampled miss latency.
type missRow struct {
	id     int
	loop   string
	pfable bool
	events int
	lat    uint64
}

// missRows folds a DEAR capture into per-loop rows, highest total latency
// first and equal latencies by ascending loop ID, and counts the events
// outside every loop.
func missRows(events []harness.DearEvent, img *program.Image) (rows []missRow, outside int) {
	index := map[int]int{} // loop ID -> row
	for _, ev := range events {
		l, ok := img.LoopAt(ev.PC)
		if !ok {
			outside++
			continue
		}
		i, ok := index[l.ID]
		if !ok {
			i = len(rows)
			index[l.ID] = i
			rows = append(rows, missRow{id: l.ID, loop: l.Name, pfable: l.Prefetchable})
		}
		rows[i].events++
		rows[i].lat += uint64(ev.Latency)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].lat != rows[j].lat {
			return rows[i].lat > rows[j].lat
		}
		return rows[i].id < rows[j].id
	})
	return rows, outside
}

// printMisses is the -misses view.
func printMisses(w io.Writer, name string, events []harness.DearEvent, img *program.Image) {
	rows, outside := missRows(events, img)
	var total uint64
	for _, r := range rows {
		total += r.lat
	}
	fmt.Fprintf(w, "miss profile of %s: %d DEAR events, %d outside loops\n", name, len(events), outside)
	fmt.Fprintf(w, "%-4s %-16s %12s %14s %8s %12s\n", "id", "loop", "events", "total latency", "share", "prefetchable")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-16s %12d %14d %7.1f%% %12v\n",
			r.id, r.loop, r.events, r.lat, 100*float64(r.lat)/float64(total), r.pfable)
	}
}

// writeFile renders one output file and notes it on stderr.
func writeFile(stderr io.Writer, path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
