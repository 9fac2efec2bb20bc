package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
	"repro/internal/workloads"
)

// runSamplingMachine assembles the sampling-only machine, which no production
// path builds: the PMU samples the run and a bare User Event Buffer takes
// its overflows, with no controller attached. It captures the DEAR stream
// and the per-window series the way runImage does for a monitor run.
func runSamplingMachine(t *testing.T, img *program.Image, cfg RunConfig) *RunResult {
	t.Helper()
	code := program.NewCodeSpace()
	seg := &program.Segment{Name: img.Code.Name, Base: img.Code.Base, Bundles: append([]isa.Bundle{}, img.Code.Bundles...)}
	if err := code.AddSegment(seg); err != nil {
		t.Fatal(err)
	}
	hier := memsys.NewHierarchy(cfg.Hierarchy)
	p := pmu.New(cfg.Core.Sampling)
	m := cpu.New(cfg.CPU, code, img.NewMemory(), hier, p)
	m.SetPC(img.Entry)

	res := &RunResult{Name: img.Name}
	ueb := core.NewUEB(cfg.Core.W)
	p.SetHandler(func(s []pmu.Sample) {
		for i := range s {
			if d := s[i].DEAR; d.Valid {
				res.DearEvents = append(res.DearEvents, DearEvent{PC: d.PC, Addr: d.Addr, Latency: d.Latency})
			}
		}
		w := ueb.AddWindow(s)
		var dearPerK float64
		if w.Retired > 0 {
			dearPerK = float64(w.DearEvents) / float64(w.Retired) * 1000
		}
		res.Series = append(res.Series, SeriesPoint{Cycle: w.EndCycle, CPI: w.CPI, DearPerK: dearPerK, DPI: w.DPI})
	})
	p.Start(0)
	st, err := m.RunContext(context.Background(), cfg.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatalf("%s did not halt within %d instructions", img.Name, cfg.MaxInsts)
	}
	p.Stop()
	res.CPU = st
	res.Mem = hier.Stats()
	return res
}

// TestMonitorRunIsTrainingRun pins the equivalence every sampling view
// relies on: for every golden-scale O2 build, a sampling-only machine
// (PMU and User Event Buffer, no controller) and the monitor run (ADORE
// attached, insertion off, DEAR capture on) simulate the same machine —
// equal CPU counters, equal hierarchy counters, the same DEAR event
// stream and the same per-window series. The controller's analysis runs
// free on the second processor; only patch installs charge cycles, and
// the monitor installs none. This is why Table 1 trains on Fig. 11's
// monitor run and Figs. 8-9 plot it as the "no runtime prefetching" side.
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
			sampled := runSamplingMachine(t, build.Image, sample)
			mc := cfg.monitorConfig()
			mc.RecordSeries = true
			mon, err := RunContext(context.Background(), build, mc)
			if err != nil {
				t.Fatal(err)
			}
			if mon.Core == nil || mon.Core.TracesPatched != 0 {
				t.Fatalf("monitor run stats %+v: want an attached controller that patched nothing", mon.Core)
			}
			if sampled.CPU != mon.CPU {
				t.Errorf("CPU stats differ:\n sampled %+v\n monitor %+v", sampled.CPU, mon.CPU)
			}
			if !reflect.DeepEqual(sampled.Mem, mon.Mem) {
				t.Errorf("hierarchy stats differ:\n sampled %+v\n monitor %+v", sampled.Mem, mon.Mem)
			}
			if len(sampled.DearEvents) == 0 || len(sampled.Series) == 0 {
				t.Fatalf("sampling run captured %d DEAR events and %d windows", len(sampled.DearEvents), len(sampled.Series))
			}
			if !reflect.DeepEqual(sampled.DearEvents, mon.DearEvents) {
				t.Errorf("DEAR streams differ: sampled %d events, monitor %d", len(sampled.DearEvents), len(mon.DearEvents))
			}
			if !reflect.DeepEqual(sampled.Series, mon.Series) {
				t.Errorf("series differ: sampled %d windows, monitor %d", len(sampled.Series), len(mon.Series))
			}
		})
	}
}
