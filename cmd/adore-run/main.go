// adore-run executes one of the SPEC2000-like workloads on the simulated
// machine, with or without the ADORE dynamic optimizer.
//
// Usage:
//
//	adore-run -bench mcf [-O3] [-adore] [-swp] [-noreserve] [-scale 1.0] [-series]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/cmd/internal/cli"
	"repro/internal/program"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("bench", "mcf", "benchmark: "+strings.Join(workloads.Names(), " "))
	o3 := flag.Bool("O3", false, "compile at O3 (static prefetching)")
	runADORE := flag.Bool("adore", false, "attach the ADORE dynamic optimizer")
	policy := flag.String("policy", "", "prefetch policy (implies -adore): "+strings.Join(adore.Policies(), " "))
	selector := flag.Bool("selector", false, "pick the prefetch policy at runtime per phase (implies -adore)")
	swp := flag.Bool("swp", false, "enable software pipelining")
	noReserve := flag.Bool("noreserve", false, "do not reserve r27-r30/p6")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	series := flag.Bool("series", false, "print the per-window CPI/DEAR series")
	save := flag.String("save", "", "write the compiled image to this file (binary ADORE image format)")
	disasm := flag.Bool("disasm", false, "print the compiled image's disassembly and exit")
	flag.Parse()

	bench, err := adore.Benchmark(*name, *scale)
	fatal(err)

	opts := adore.CompileOptions()
	if *o3 {
		opts.Level = adore.O3
	}
	opts.SWP = *swp
	opts.ReserveRegs = !*noReserve
	build, err := adore.Compile(bench.Kernel, opts)
	fatal(err)

	if *save != "" {
		f, err := os.Create(*save)
		fatal(err)
		fatal(program.EncodeImage(f, build.Image))
		fatal(f.Close())
		fmt.Printf("wrote %s (%d bundles)\n", *save, build.Image.BundleCount)
	}
	if *disasm {
		fmt.Print(program.Listing(build.Image.Code))
		return
	}

	rc := adore.RunOptions()
	if *policy != "" || *selector {
		*runADORE = true
	}
	if *runADORE {
		rc = adore.WithADORE(rc)
		if *policy != "" {
			rc = adore.WithPolicy(rc, *policy)
		}
		if *selector {
			rc = adore.WithSelector(rc)
		}
	} else if *series {
		rc.SampleOnly = true
		rc.Core = adore.DefaultConfig()
	}
	rc.RecordSeries = *series
	res, err := adore.RunContext(cli.Context(), build, rc)
	fatal(err)

	fmt.Printf("%s (%s, %s%s%s):\n", bench.Name, bench.Class, opts.Level,
		flagStr(*swp, "+swp"), flagStr(*runADORE, "+adore"))
	fmt.Printf("  cycles:        %d\n", res.CPU.Cycles)
	fmt.Printf("  instructions:  %d (CPI %.3f)\n", res.CPU.Retired, res.CPU.CPI())
	fmt.Printf("  loads/stores:  %d/%d, prefetches %d\n", res.CPU.Loads, res.CPU.Stores, res.CPU.Prefetches)
	fmt.Printf("  load stalls:   %d cycles, I-cache stalls %d\n", res.CPU.LoadStalls, res.CPU.ICacheStalls)
	fmt.Printf("  L1D misses:    %d  L2 misses: %d  L3 misses: %d\n",
		res.Mem.L1D.Misses, res.Mem.L2.Misses, res.Mem.L3.Misses)
	if res.Core != nil {
		s := res.Core
		fmt.Printf("  ADORE (policy %s): %d phases optimized, %d traces patched\n",
			rc.Core.PolicyKey(), s.PhasesOptimized, s.TracesPatched)
		if rc.Core.Selector {
			fmt.Printf("         selector: %d decisions, %d fallbacks\n",
				s.PolicySelections, s.PolicySwitches)
		}
		fmt.Printf("         prefetches inserted: %d direct, %d indirect, %d pointer-chasing\n",
			s.DirectPrefetches, s.IndirectPrefetches, s.PointerPrefetches)
		fmt.Printf("         windows %d, phase changes %d, analysis failures %d\n",
			s.WindowsObserved, s.PhaseChanges, s.AnalysisFailures)
	}
	if *series {
		fmt.Println("  window series (cycle, CPI, DEAR/1000 inst):")
		step := len(res.Series)/30 + 1
		for i := 0; i < len(res.Series); i += step {
			p := res.Series[i]
			fmt.Printf("    %12d  %6.2f  %6.2f\n", p.Cycle, p.CPI, p.DearPerK)
		}
	}
}

func flagStr(on bool, s string) string {
	if on {
		return s
	}
	return ""
}

func fatal(err error) { cli.Fatal(err) }
