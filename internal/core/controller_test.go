package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/program"
)

func testControllerConfig() Config {
	cfg := DefaultConfig()
	cfg.StableWindows = 2
	cfg.MinDPI = 0.001
	return cfg
}

func newTestController(t *testing.T, cfg Config, bundles []isa.Bundle) *Controller {
	t.Helper()
	cs := codeWith(t, bundles)
	c, err := NewController(cfg, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTracePoolInstallAndExit(t *testing.T) {
	cfg := DefaultConfig()
	cs := codeWith(t, loopBundles())
	pool, err := NewTracePool(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{
		Start:    0x1000,
		IsLoop:   true,
		LoopHead: 0,
		BackEdge: 1,
		Bundles:  append([]isa.Bundle{}, loopBundles()[:2]...),
		Orig:     []uint64{0x1000, 0x1010},
	}
	addr, err := pool.Install(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Contains(addr) {
		t.Fatal("installed trace outside pool")
	}
	// The back edge must now target the in-pool loop head.
	b, _ := cs.Fetch(addr + isa.BundleBytes)
	if b.Slots[2].Op != isa.OpBrCond || b.Slots[2].Target != addr {
		t.Fatalf("back edge not retargeted: %v", b.Slots[2])
	}
	// The appended exit bundle returns to the original fall-through.
	exit, _ := cs.Fetch(addr + 2*isa.BundleBytes)
	if exit.Slots[2].Op != isa.OpBr || exit.Slots[2].Target != 0x1020 {
		t.Fatalf("exit bundle = %v", exit)
	}
	if pool.Used() != 3 {
		t.Fatalf("pool used = %d", pool.Used())
	}
}

func TestTracePoolFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TracePoolBundles = 4
	cs := codeWith(t, loopBundles())
	pool, err := NewTracePool(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{
		Start: 0x1000, IsLoop: true, BackEdge: 1,
		Bundles: append([]isa.Bundle{}, loopBundles()[:2]...),
		Orig:    []uint64{0x1000, 0x1010},
	}
	if _, err := pool.Install(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Install(tr); err == nil {
		t.Fatal("second install fit a full pool")
	}
}

func TestApplyAndUndoPatch(t *testing.T) {
	cs := codeWith(t, loopBundles())
	orig, _ := cs.Fetch(0x1000)
	saved := *orig
	rec, err := applyPatch(cs, 0x1000, 0x40000000, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	patched, _ := cs.Fetch(0x1000)
	if patched.Slots[2].Op != isa.OpBr || patched.Slots[2].Target != 0x40000000 {
		t.Fatalf("patch not installed: %v", patched)
	}
	if rec.Saved != saved {
		t.Fatal("original bundle not saved")
	}
	if err := undoPatch(cs, rec); err != nil {
		t.Fatal(err)
	}
	restored, _ := cs.Fetch(0x1000)
	if *restored != saved {
		t.Fatal("unpatch did not restore the original bundle")
	}
	if rec.Active {
		t.Fatal("record still active after undo")
	}
	// Undo is idempotent.
	if err := undoPatch(cs, rec); err != nil {
		t.Fatal(err)
	}
}

// stableWindow fabricates identical windows that establish a stable phase
// at the given PC center and DPI.
func feedStablePhase(c *Controller, pc float64, cpi, dpi float64, n int) {
	for i := 0; i < n; i++ {
		c.newWindows = append(c.newWindows, WindowMetrics{
			Seq: c.det.windowsSeen + i, CPI: cpi, DPI: dpi, PCCenter: pc, Retired: 100000,
		})
	}
	c.poll(0)
}

func TestControllerSkipsLowMissPhase(t *testing.T) {
	c := newTestController(t, testControllerConfig(), loopBundles())
	feedStablePhase(c, 0x1008, 1.0, 0.00001, 4)
	if c.Stats.PhasesDetected != 1 {
		t.Fatalf("phases detected = %d", c.Stats.PhasesDetected)
	}
	if c.Stats.SkipLowMiss != 1 {
		t.Fatalf("low-miss phase not skipped: %+v", c.Stats)
	}
	if c.Stats.TracesPatched != 0 {
		t.Fatal("low-miss phase was optimized")
	}
}

func TestControllerSkipsPoolPhase(t *testing.T) {
	cfg := testControllerConfig()
	c := newTestController(t, cfg, loopBundles())
	feedStablePhase(c, float64(cfg.TracePoolBase+0x100), 1.0, 0.01, 4)
	if c.Stats.SkipInPool != 1 {
		t.Fatalf("pool phase not skipped: %+v", c.Stats)
	}
}

func TestControllerUnpatchesUnprofitableTrace(t *testing.T) {
	cfg := testControllerConfig()
	cfg.UnpatchSlowdown = 1.10
	cs := codeWith(t, loopBundles())
	c, err := NewController(cfg, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Install a patch by hand with a known pre-patch CPI.
	addr, err := c.pool.Install(&Trace{
		Start: 0x1000, IsLoop: true, BackEdge: 1,
		Bundles: append([]isa.Bundle{}, loopBundles()[:2]...),
		Orig:    []uint64{0x1000, 0x1010},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := applyPatch(cs, 0x1000, addr, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rec.TraceEnd = addr + 3*isa.BundleBytes
	c.patches = append(c.patches, rec)

	// A stable phase inside the trace running 50% slower than pre-patch
	// triggers unpatching.
	feedStablePhase(c, float64(addr+0x10), 3.0, 0.01, 4)
	if c.Stats.Unpatches != 1 {
		t.Fatalf("unprofitable trace not unpatched: %+v", c.Stats)
	}
	if rec.Active {
		t.Fatal("patch still active")
	}
	restored, _ := cs.Fetch(0x1000)
	if restored.Slots[0].Op != isa.OpLd8 {
		t.Fatal("original code not restored")
	}
}

func TestControllerKeepsProfitableTrace(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Observe = true
	cfg.Metrics = metrics.NewRegistry()
	cs := codeWith(t, loopBundles())
	c, err := NewController(cfg, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := c.pool.Install(&Trace{
		Start: 0x1000, IsLoop: true, BackEdge: 1,
		Bundles: append([]isa.Bundle{}, loopBundles()[:2]...),
		Orig:    []uint64{0x1000, 0x1010},
	})
	rec, _ := applyPatch(cs, 0x1000, addr, 2.0)
	rec.TraceEnd = addr + 3*isa.BundleBytes
	c.patches = append(c.patches, rec)

	// Faster than pre-patch: stays.
	feedStablePhase(c, float64(addr+0x10), 1.0, 0.01, 4)
	if c.Stats.Unpatches != 0 || !rec.Active {
		t.Fatalf("profitable trace unpatched: %+v", c.Stats)
	}

	// dyn_close removes it: one Unpatch in Stats, on the counter and in
	// the ring, with no observed phase CPI.
	if err := c.UnpatchAll(); err != nil {
		t.Fatal(err)
	}
	var unpatches []obs.Event
	for _, e := range c.Capture().Events {
		if e.Kind == obs.KindUnpatch {
			unpatches = append(unpatches, e)
		}
	}
	counter := cfg.Metrics.Counter("adore_core_unpatches_total", "").Value()
	if c.Stats.Unpatches != 1 || counter != 1 || len(unpatches) != 1 {
		t.Fatalf("dyn_close: Stats %d, counter %d, events %d; want 1 each", c.Stats.Unpatches, counter, len(unpatches))
	}
	if e := unpatches[0]; e.PC != 0x1000 || e.A != addr || e.V != 0 || e.W != 2.0 {
		t.Errorf("dyn_close unpatch event %+v", e)
	}
}

func TestIsPatched(t *testing.T) {
	c := newTestController(t, testControllerConfig(), loopBundles())
	if c.isPatched(0x1000) {
		t.Fatal("fresh controller reports patch")
	}
	c.patches = append(c.patches, &PatchRecord{Entry: 0x1000, Active: true})
	if !c.isPatched(0x1000) {
		t.Fatal("active patch not found")
	}
	c.patches[0].Active = false
	if c.isPatched(0x1000) {
		t.Fatal("inactive patch reported")
	}
}

func TestSigMatches(t *testing.T) {
	list := []float64{0x1000, 0x9000}
	if !sigMatches(list, 0x1000+100, 384) {
		t.Fatal("near signature not matched")
	}
	if sigMatches(list, 0x5000, 384) {
		t.Fatal("far signature matched")
	}
	if sigMatches(nil, 0x1000, 384) {
		t.Fatal("empty list matched")
	}
}

// program.Listing should render installed pool traces (smoke test for the
// tooling path).
func TestPoolListing(t *testing.T) {
	cfg := DefaultConfig()
	cs := codeWith(t, loopBundles())
	pool, _ := NewTracePool(cfg, cs)
	_, err := pool.Install(&Trace{
		Start: 0x1000, IsLoop: true, BackEdge: 1,
		Bundles: append([]isa.Bundle{}, loopBundles()[:2]...),
		Orig:    []uint64{0x1000, 0x1010},
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := &program.Segment{Name: "pool", Base: cfg.TracePoolBase, Bundles: pool.seg.Bundles[:pool.Used()]}
	if program.Listing(seg) == "" {
		t.Fatal("empty listing")
	}
}
