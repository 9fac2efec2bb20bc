// adore-lint runs the static machine-code verifier (internal/verify) over
// compiled workloads and prints findings with bundle/slot coordinates. By
// default it lints the generated image of every workload at every opt
// level; -adore additionally runs each workload under the dynamic
// optimizer and lints the installed trace pool plus any traces the runtime
// verifier rejected.
//
// -analyze additionally runs the internal/analysis engine over each image
// (and, with -adore, over the installed trace pool), printing per-loop
// CFG, liveness and load-classification reports plus static findings
// (unreachable bundles, dead lfetches, prefetches no load consumes).
//
// Usage:
//
//	adore-lint [-bench all] [-level all] [-advisory] [-adore] [-analyze]
//	           [-werror] [-scale 0.1]
//
// Identical findings surfacing at multiple boundaries (image lint, trace
// reject, pool lint) are reported once. Exit status is non-zero when any
// error-severity finding is reported; -werror promotes advisory and
// analysis findings to errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/cmd/internal/cli"
	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/verify"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "all", "benchmark to lint, or \"all\": "+strings.Join(workloads.Names(), " "))
	level := flag.String("level", "all", "opt level: O2, O3, or \"all\"")
	scale := flag.Float64("scale", 0.1, "workload scale factor (used with -adore)")
	swp := flag.Bool("swp", false, "compile with software pipelining")
	noReserve := flag.Bool("noreserve", false, "compile without reserving r27-r30/p6 for the runtime")
	advisory := flag.Bool("advisory", false, "also report advisory findings (RAW inside or across bundles)")
	dynamic := flag.Bool("adore", false, "run each workload under ADORE and lint the trace pool too")
	analyze := flag.Bool("analyze", false, "print per-loop CFG/liveness/classification reports and static findings")
	werror := flag.Bool("werror", false, "treat advisory and analysis findings as errors")
	traceFile := flag.String("trace", "", "validate a Chrome trace-event file (as written by adore-run -trace) and exit")
	flag.Parse()

	if *traceFile != "" {
		data, err := os.ReadFile(*traceFile)
		cli.Fatal(err)
		n, err := adore.ValidateChromeTrace(data)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", *traceFile, err))
		}
		fmt.Printf("%s: valid Chrome trace, %d timestamped events\n", *traceFile, n)
		return
	}

	var levels []compiler.OptLevel
	switch *level {
	case "all":
		levels = []compiler.OptLevel{compiler.O2, compiler.O3}
	case "O2", "o2":
		levels = []compiler.OptLevel{compiler.O2}
	case "O3", "o3":
		levels = []compiler.OptLevel{compiler.O3}
	default:
		cli.Fatal(fmt.Errorf("unknown level %q", *level))
	}
	var benches []adore.WorkloadInfo
	if *bench == "all" {
		benches = adore.Benchmarks(*scale)
	} else {
		b, err := adore.Benchmark(*bench, *scale)
		cli.Fatal(err)
		benches = []adore.WorkloadInfo{b}
	}

	errorFindings := 0
	seen := make(map[verify.Finding]bool)
	report := func(tag string, fs []verify.Finding) {
		for _, f := range fs {
			if seen[f] {
				continue // already reported at an earlier boundary
			}
			seen[f] = true
			if f.Sev == verify.SevError || *werror {
				errorFindings++
			}
			fmt.Printf("%-18s %-8s %s\n", tag, f.Sev, f)
		}
	}
	analyzeSeg := func(tag string, seg *program.Segment) {
		res := analysis.AnalyzeSegment(seg)
		fmt.Printf("%-18s analysis:\n", tag)
		res.Fprint(os.Stdout)
		if *werror {
			errorFindings += len(res.Findings)
		}
	}

	for _, b := range benches {
		for _, lv := range levels {
			opts := compiler.DefaultOptions()
			opts.Level = lv
			opts.SWP = *swp
			opts.ReserveRegs = !*noReserve
			tag := fmt.Sprintf("%s/%s", b.Name, lv)
			build, err := compiler.Build(b.Kernel, opts)
			if err != nil {
				// Build itself verifies: a failure here IS a finding.
				fmt.Printf("%-18s %-8s %v\n", tag, "error", err)
				errorFindings++
				continue
			}
			fs := verify.CheckImage(build.Image, verify.Options{
				Advisory:           *advisory,
				ReservedRegsUnused: opts.ReserveRegs,
			})
			report(tag, fs)
			if *analyze {
				analyzeSeg(tag, build.Image.Code)
			}
			n := len(build.Image.Code.Bundles)
			if *dynamic {
				rejected, poolFs, used, err := lintRun(build, *advisory)
				if err != nil {
					cli.Fatal(fmt.Errorf("%s: %w", tag, err))
				}
				report(tag+"+adore", rejected)
				report(tag+"+pool", poolFs)
				if *analyze && used != nil {
					analyzeSeg(tag+"+pool", used)
				}
				fmt.Printf("%-18s ok: %d bundles, %d rejected trace finding(s), %d pool finding(s)\n",
					tag, n, len(rejected), len(poolFs))
			} else {
				fmt.Printf("%-18s ok: %d bundles, %d finding(s)\n", tag, n, len(fs))
			}
		}
	}
	if errorFindings > 0 {
		fmt.Printf("\n%d error finding(s)\n", errorFindings)
		os.Exit(1)
	}
}

// lintRun executes one workload under ADORE with runtime verification on,
// returning the findings of rejected traces, a lint of the installed trace
// pool, and the used portion of the pool segment (nil when nothing was
// installed) for further analysis.
func lintRun(build *compiler.BuildResult, advisory bool) (rejected, pool []verify.Finding, used *program.Segment, err error) {
	cfg := harness.DefaultRunConfig()
	cfg.ADORE = true
	cfg.Core.Verify = true
	res, err := harness.RunContext(cli.Context(), build, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	ctrl := res.Controller
	for _, s := range res.Code.Segments() {
		if s.Name != "trace-pool" || ctrl.Pool().Used() == 0 {
			continue
		}
		used = &program.Segment{Name: s.Name, Base: s.Base, Bundles: s.Bundles[:ctrl.Pool().Used()]}
		pool = append(pool, verify.CheckSegment(used, verify.Options{Advisory: advisory, Code: res.Code})...)
	}
	return ctrl.Findings(), pool, used, nil
}
