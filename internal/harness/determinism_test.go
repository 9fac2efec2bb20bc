package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/workloads"
)

// TestRunDeterminism is the engine refactor's safety net at the single-run
// level: the simulator has no hidden global state, so compiling once and
// running the same RunConfig twice must yield bit-identical statistics.
func TestRunDeterminism(t *testing.T) {
	b, err := workloads.ByName("art", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.ADORE = true

	first, err := Run(build, rc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if first.CPU != second.CPU {
		t.Errorf("cpu stats diverged:\n  first:  %+v\n  second: %+v", first.CPU, second.CPU)
	}
	if !reflect.DeepEqual(first.Core, second.Core) {
		t.Errorf("core stats diverged:\n  first:  %+v\n  second: %+v", first.Core, second.Core)
	}
}

// TestFig7SerialParallelIdentical is the safety net at the sweep level:
// running the same sweep serially and on a 4-worker pool must produce
// identical rows — order and values — because each run is hermetic and
// results are slotted by index. This is what licenses the parallel engine.
// The parallel side is the golden corpus's shared Fig. 7(a) sweep; the
// serial side runs fresh.
func TestFig7SerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long: two full 17-benchmark sweeps")
	}
	_, parallel := goldenFig7O2(t)
	cfg := GoldenExpConfig()
	cfg.Engine = NewEngine(EngineConfig{Parallelism: 1})
	serial, err := RunFig7Context(context.Background(), cfg, compiler.O2)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if !reflect.DeepEqual(serial.Rows[i], parallel.Rows[i]) {
			t.Errorf("row %d diverged:\n  serial:   %+v\n  parallel: %+v",
				i, serial.Rows[i], parallel.Rows[i])
		}
	}
}
