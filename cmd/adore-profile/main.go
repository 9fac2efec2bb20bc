// adore-profile collects a cache-miss sampling profile of a workload (the
// Table 1 training run), prints the per-loop miss latency breakdown, and
// shows which loops a profile-guided recompilation would keep.
//
// Usage:
//
//	adore-profile -bench gcc [-scale 1.0]
//	adore-profile -bench mcf -timeline
//	adore-profile -bench mcf -annotate [-adore] [-sample-every 4093]
//	adore-profile -bench mcf -profile sim.pb.gz   # then: go tool pprof -top sim.pb.gz
//
// With -timeline the workload instead runs under ADORE with the
// observability layer on, and the recorded event stream prints as a
// per-window text timeline (windows, CPI-stack shares, prefetch deltas,
// phase/patch events).
//
// With -annotate or -profile the workload runs under the simulated-execution
// profiler (cycle sampling on the simulated clock; DESIGN.md §15):
// -annotate prints a perf-annotate-style disassembly with per-bundle cycle
// shares, L2/L3 miss and prefetch-usefulness columns — the fastest answer
// to "which loads miss" — and -profile writes a gzipped pprof proto that
// `go tool pprof` reads directly. -adore attaches the optimizer first, so
// the listing shows the post-patch cost distribution.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/cmd/internal/cli"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("bench", "gcc", "benchmark: "+strings.Join(workloads.Names(), " "))
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	timeline := flag.Bool("timeline", false, "run under ADORE with observability and print the event timeline")
	annotate := flag.Bool("annotate", false, "run the cycle-sampling profiler and print an annotated disassembly")
	profileOut := flag.String("profile", "", "run the cycle-sampling profiler and write a pprof proto (gzipped) to this file")
	sampleEvery := flag.Uint64("sample-every", 4093, "profiler sampling interval in simulated cycles (prefer a prime)")
	withADORE := flag.Bool("adore", false, "attach the ADORE optimizer during -annotate/-profile runs")
	flag.Parse()

	bench, err := adore.Benchmark(*name, *scale)
	fatal(err)
	build, err := adore.Compile(bench.Kernel, adore.CompileOptions())
	fatal(err)

	if *timeline {
		res, err := adore.RunContext(cli.Context(), build,
			adore.WithObserve(adore.WithADORE(adore.RunOptions())))
		fatal(err)
		fmt.Print(adore.Timeline(res.Obs))
		return
	}

	if *annotate || *profileOut != "" {
		fatal(simProfile(build, *withADORE, *sampleEvery, *annotate, *profileOut))
		return
	}

	rc := adore.RunOptions()
	rc.Core = adore.DefaultConfig()
	pr, err := harness.RunProfiledContext(cli.Context(), build, rc)
	fatal(err)

	type agg struct {
		loop   string
		id     int
		pfable bool
		events int
		lat    uint64
	}
	perLoop := map[int]*agg{}
	var total uint64
	outside := 0
	for _, ev := range pr.DearEvents {
		l, ok := build.Image.LoopAt(ev.PC)
		if !ok {
			outside++
			continue
		}
		a := perLoop[l.ID]
		if a == nil {
			a = &agg{loop: l.Name, id: l.ID, pfable: l.Prefetchable}
			perLoop[l.ID] = a
		}
		a.events++
		a.lat += uint64(ev.Latency)
		total += uint64(ev.Latency)
	}
	rows := make([]*agg, 0, len(perLoop))
	for _, a := range perLoop {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lat > rows[j].lat })

	fmt.Printf("miss profile of %s: %d DEAR events, %d outside loops\n",
		bench.Name, len(pr.DearEvents), outside)
	fmt.Printf("%-4s %-16s %12s %14s %8s %12s\n", "id", "loop", "events", "total latency", "share", "prefetchable")
	for _, a := range rows {
		fmt.Printf("%-4d %-16s %12d %14d %7.1f%% %12v\n",
			a.id, a.loop, a.events, a.lat, 100*float64(a.lat)/float64(total), a.pfable)
	}
}

// simProfile runs build under the cycle-sampling profiler and renders the
// requested views.
func simProfile(build *adore.Build, withADORE bool, sampleEvery uint64, annotate bool, profileOut string) error {
	rc := adore.RunOptions()
	rc.ADORE = withADORE
	rc.Profile = sampleEvery
	res, err := harness.RunContext(cli.Context(), build, rc)
	if err != nil {
		return err
	}
	if annotate {
		if err := obs.WriteAnnotate(os.Stdout, res.Profile, build.Image); err != nil {
			return err
		}
	}
	if profileOut != "" {
		f, err := os.Create(profileOut)
		if err != nil {
			return err
		}
		if err := obs.WritePprof(f, res.Profile); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (inspect with: go tool pprof -top %s)\n", profileOut, profileOut)
	}
	return nil
}

func fatal(err error) { cli.Fatal(err) }
