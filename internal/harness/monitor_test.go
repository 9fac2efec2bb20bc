package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/workloads"
)

// TestMonitorRunIsTrainingRun pins the equivalence Table 1 relies on when
// it takes its training profile from Fig. 11's monitor run: for every
// golden-scale O2 build, the sample-only profiling run (RunProfiledContext)
// and the monitor run (ADORE attached, insertion off, DEAR capture on)
// simulate the same machine — equal CPU counters, equal hierarchy counters
// and the same DEAR event stream. The controller's analysis runs free on
// the second processor; only patch installs charge cycles, and the monitor
// installs none.
func TestMonitorRunIsTrainingRun(t *testing.T) {
	cfg := GoldenExpConfig()
	cache := NewBuildCache()
	for _, b := range workloads.All(cfg.Scale) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			build, err := cache.Build(benchSpec(b, cfg.Scale, compiler.O2))
			if err != nil {
				t.Fatal(err)
			}
			sample := cfg.runConfig()
			sample.Core = cfg.Core
			profiled, err := RunProfiledContext(context.Background(), build, sample)
			if err != nil {
				t.Fatal(err)
			}
			mon, err := RunContext(context.Background(), build, cfg.monitorConfig())
			if err != nil {
				t.Fatal(err)
			}
			if mon.Core == nil || mon.Core.TracesPatched != 0 {
				t.Fatalf("monitor run stats %+v: want an attached controller that patched nothing", mon.Core)
			}
			if profiled.CPU != mon.CPU {
				t.Errorf("CPU stats differ:\n profiled %+v\n monitor  %+v", profiled.CPU, mon.CPU)
			}
			if !reflect.DeepEqual(profiled.Mem, mon.Mem) {
				t.Errorf("hierarchy stats differ:\n profiled %+v\n monitor  %+v", profiled.Mem, mon.Mem)
			}
			if len(profiled.DearEvents) == 0 {
				t.Fatal("profiling run captured no DEAR events")
			}
			if !reflect.DeepEqual(profiled.DearEvents, mon.DearEvents) {
				t.Errorf("DEAR streams differ: profiled %d events, monitor %d", len(profiled.DearEvents), len(mon.DearEvents))
			}
		})
	}
}
