package harness

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/workloads"
)

// TestDifferentialAllWorkloads is the PR's acceptance matrix: every paper
// workload, compiled at O2 and O3, runs through the reference oracle and
// the full machine in all four machine modes — patching {off,on} ×
// observability {off,on} — and the engines must agree on final
// architectural state, memory, and counters (see DiffAgainstContext).
// The oracle runs once per (workload, level); the four machine runs
// compare against that single result. The (workload, level) cells are independent and run
// in parallel; the patch total is checked once all of them are done.
func TestDifferentialAllWorkloads(t *testing.T) {
	const scale = 0.02
	var patched atomic.Int64 // across all ADORE legs; proves the matrix isn't vacuous
	// Cleanup runs after every parallel cell has finished.
	t.Cleanup(func() {
		// The transparency claim is only tested if patches were
		// installed. At this scale ~15 of the 17 workloads patch;
		// require a healthy margin so a silent regression in the
		// optimizer trips the test.
		if n := patched.Load(); n < 10 {
			t.Errorf("only %d traces patched across all ADORE legs; matrix is near-vacuous", n)
		}
	})
	for _, bench := range workloads.All(scale) {
		for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			t.Run(fmt.Sprintf("%s/%s", bench.Name, level), func(t *testing.T) {
				t.Parallel()
				opts := compiler.DefaultOptions()
				opts.Level = level
				build, err := compiler.Build(bench.Kernel, opts)
				if err != nil {
					t.Fatal(err)
				}

				or, err := RunOracle(build.Image, 0)
				if err != nil {
					t.Fatal(err)
				}

				for _, mode := range []struct {
					name    string
					adore   bool
					observe bool
				}{
					{"plain", false, false},
					{"plain-observed", false, true},
					{"adore", true, false},
					{"adore-observed", true, true},
				} {
					cfg := DefaultRunConfig()
					cfg.ADORE = mode.adore
					cfg.Observe = mode.observe
					if mode.adore {
						cfg.Core = fastCore()
					}
					rep, err := DiffAgainstContext(context.Background(), or, build.Image, cfg)
					if err != nil {
						t.Fatalf("%s: %v", mode.name, err)
					}
					if rep.Failed() {
						t.Errorf("%s: %s", mode.name, rep)
					}
					if mode.adore && rep.CPU.Core != nil {
						patched.Add(int64(rep.CPU.Core.TracesPatched))
					}
				}
			})
		}
	}
}

// TestDifferentialCatchesPerturbation proves the harness has teeth:
// corrupting the oracle's view of a register or a memory byte must surface
// as a reported divergence on re-comparison.
func TestDifferentialCatchesPerturbation(t *testing.T) {
	bench, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(bench.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	or, err := RunOracle(build.Image, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DiffAgainstContext(context.Background(), or, build.Image, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("baseline diverges: %s", rep)
	}

	// One flipped register bit on the oracle side must be reported.
	or.Arch.GR[9] ^= 1
	regRep, err := DiffAgainstContext(context.Background(), or, build.Image, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	or.Arch.GR[9] ^= 1
	if !regRep.Failed() {
		t.Error("flipped register bit not detected")
	}

	// One flipped memory byte must be reported.
	v := or.Mem.ReadN(compiler.DataBase, 1)
	or.Mem.WriteN(compiler.DataBase, 1, v^0xff)
	memRep, err := DiffAgainstContext(context.Background(), or, build.Image, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	or.Mem.WriteN(compiler.DataBase, 1, v)
	if !memRep.Failed() {
		t.Error("flipped memory byte not detected")
	}
}
