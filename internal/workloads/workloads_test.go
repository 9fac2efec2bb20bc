package workloads_test

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func TestAllBenchmarksCompileBothLevels(t *testing.T) {
	for _, b := range workloads.All(0.05) {
		for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			opts := compiler.DefaultOptions()
			opts.Level = level
			if _, err := compiler.Build(b.Kernel, opts); err != nil {
				t.Errorf("%s at %v: %v", b.Name, level, err)
			}
		}
	}
}

func TestSuiteShape(t *testing.T) {
	all := workloads.All(1.0)
	if len(all) != 17 {
		t.Fatalf("benchmarks = %d, want 17", len(all))
	}
	ints, fps := 0, 0
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		switch b.Class {
		case workloads.INT:
			ints++
		case workloads.FP:
			fps++
		}
		if b.PaperNote == "" {
			t.Errorf("%s has no paper note", b.Name)
		}
	}
	if ints != 8 || fps != 9 {
		t.Fatalf("suite split %d INT / %d FP, want 8/9", ints, fps)
	}
}

func TestByName(t *testing.T) {
	b, err := workloads.ByName("mcf", 1.0)
	if err != nil || b.Name != "mcf" {
		t.Fatalf("workloads.ByName(mcf) = %v, %v", b.Name, err)
	}
	if _, err := workloads.ByName("nope", 1.0); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestSuiteTableMatchesKernels pins the static suite table against the
// kernels it builds: Names follows All's order, ByName builds exactly the
// benchmark All would, and Known agrees with ByName's error.
func TestSuiteTableMatchesKernels(t *testing.T) {
	names := workloads.Names()
	for _, scale := range []float64{0.05, 1.0} {
		all := workloads.All(scale)
		if len(all) != len(names) {
			t.Fatalf("scale %g: All has %d benchmarks, Names %d", scale, len(all), len(names))
		}
		for i, b := range all {
			if b.Name != names[i] {
				t.Errorf("scale %g: All[%d] = %s, Names[%d] = %s", scale, i, b.Name, i, names[i])
			}
			one, err := workloads.ByName(names[i], scale)
			if err != nil {
				t.Fatalf("ByName(%s, %g): %v", names[i], scale, err)
			}
			if !reflect.DeepEqual(one, b) {
				t.Errorf("ByName(%s, %g) differs from All(%g)[%d]", names[i], scale, scale, i)
			}
		}
	}
	for _, name := range append(names, "nope", "") {
		_, err := workloads.ByName(name, 0.05)
		if known := workloads.Known(name); known != (err == nil) {
			t.Errorf("Known(%q) = %v, ByName error = %v", name, known, err)
		}
	}
}

func TestScaleReducesWork(t *testing.T) {
	big, err := workloads.ByName("mcf", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := workloads.ByName("mcf", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0 is the one-shot setup phase; scaling applies to the work
	// phases after it.
	if small.Kernel.Phases[1].Repeat >= big.Kernel.Phases[1].Repeat {
		t.Fatal("scale did not reduce repeats")
	}
	if small.Kernel.Phases[1].Repeat < 1 {
		t.Fatal("scale produced zero repeats")
	}
}

// Every benchmark must run to completion at O2 under the plain machine.
func TestAllBenchmarksRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, b := range workloads.All(0.03) {
		build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		r, err := harness.Run(build, harness.DefaultRunConfig())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if r.CPU.Retired == 0 || r.CPU.Cycles == 0 {
			t.Fatalf("%s: empty run", b.Name)
		}
	}
}
