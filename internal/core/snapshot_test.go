package core

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pmu"
)

// checkFieldCoverage is the state-exhaustiveness net for the fork engine:
// every field of the controller (and the pipeline sub-structures flattened
// into its snapshot) must be explicitly classified. A new field that
// Snapshot/Restore were not taught about fails the test by name.
func checkFieldCoverage(t *testing.T, typ reflect.Type, covered map[string]string) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := covered[name]; !ok {
			t.Errorf("%s has a new field %q not classified for snapshot coverage — teach Snapshot/Restore about it, then add it to this list", typ, name)
		}
	}
	for name := range covered {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s coverage list names %q, which no longer exists — prune it", typ, name)
		}
	}
}

func TestControllerSnapshotFieldCoverage(t *testing.T) {
	checkFieldCoverage(t, reflect.TypeOf(Controller{}), map[string]string{
		"cfg":  "structural: the continuation assembles its own (policy fields MAY differ)",
		"code": "structural: code contents restored separately (program.CodeSnapshot)",
		"pmu":  "structural: restored separately (pmu.Snapshot)",
		"mem":  "structural: forked separately (memsys.Memory.Fork)",

		"ueb":  "state flattened into the snapshot (windows, seq, prev counters)",
		"det":  "state flattened into the snapshot (history, aggregation, signature table)",
		"pool": "cursor captured; capacity validated by Restore; contents live in the code space",
		"sel":  "usage counts captured; policy table is structural",

		"opt": "stateless: pure function of cfg",
		"pf":  "policy object; continuations deliberately swap it (fork contract)",

		"newWindows": "captured",
		"patches":    "captured",
		"optimized":  "captured",
		"blacklist":  "captured",
		"instr":      "captured (patch pointers flattened to indices)",
		"findings":   "captured",
		"obs":        "enablement validated; recorder contents and delta baselines captured",
		"Stats":      "captured",
		"counters":   "structural: resolved from cfg.Metrics by NewController; fleet-wide instruments, not run state",
		"shadows":    "host-side: lockstep deciders of other fork-group members; a resumed run attaches its own",

		"OnWindow":      "host closure, re-registered by the resuming assembly",
		"OnSamples":     "host closure, re-registered by the resuming assembly",
		"OnOptimize":    "host closure, re-registered by the resuming assembly",
		"OnPolicyPoint": "host closure (the fork engine's own divergence hook)",
	})
	checkFieldCoverage(t, reflect.TypeOf(UEB{}), map[string]string{
		"w":           "structural: capacity from cfg",
		"windows":     "captured",
		"seq":         "captured",
		"prevCycles":  "captured",
		"prevRetired": "captured",
		"prevDMiss":   "captured",
		"havePrev":    "captured",
	})
	checkFieldCoverage(t, reflect.TypeOf(PhaseDetector{}), map[string]string{
		"cfg":          "structural: thresholds from cfg",
		"history":      "captured",
		"pending":      "captured",
		"agg":          "captured",
		"inStable":     "captured",
		"sinceStable":  "captured",
		"lastSig":      "captured",
		"windowsSeen":  "captured",
		"DoubleEvents": "captured",
		"table":        "captured",
		"TableHits":    "captured",
		"TableMisses":  "captured",
	})
	checkFieldCoverage(t, reflect.TypeOf(TracePool{}), map[string]string{
		"code": "structural: pool segment contents restored with the code space",
		"seg":  "structural: capacity validated by Restore",
		"next": "captured",
	})
	checkFieldCoverage(t, reflect.TypeOf(observeState{}), map[string]string{
		"rec":       "enablement validated; events and drop count captured (obs.Recorder.Restore)",
		"m":         "structural: re-attached by Attach",
		"img":       "structural: re-attached by SetImage",
		"prevStack": "captured",
		"prevLoop":  "captured",
		"prevPf":    "captured",
		"prevL1D":   "captured",
	})
	checkFieldCoverage(t, reflect.TypeOf(Selector{}), map[string]string{
		"policies": "structural: rebuilt from the policy registry",
		"use":      "captured",
	})
}

// TestControllerSnapshotRoundTrip populates every captured field of a
// controller, snapshots it, restores into a freshly assembled twin, and
// demands the twin's own snapshot be deeply equal — which exercises every
// deep-copy path in both directions.
func TestControllerSnapshotRoundTrip(t *testing.T) {
	cfg := testControllerConfig()
	cfg.Selector = true
	cfg.Observe = true
	mk := func() *Controller {
		cs := codeWith(t, loopBundles())
		c, err := NewController(cfg, cs, pmu.New(cfg.Sampling))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := mk()

	c.ueb.windows = []windowData{{
		samples: []pmu.Sample{{Index: 1, PC: 0x1000, Cycles: 5000, Retired: 1200, DMiss: 30}},
		metrics: WindowMetrics{Seq: 1, CPI: 2.5},
	}}
	c.ueb.seq = 2
	c.ueb.prevCycles, c.ueb.prevRetired, c.ueb.prevDMiss, c.ueb.havePrev = 5000, 1200, 30, true

	c.det.history = []WindowMetrics{{Seq: 0}, {Seq: 1, CPI: 2.5}}
	c.det.pending = []WindowMetrics{{Seq: 2}}
	c.det.agg = 2
	c.det.inStable = true
	c.det.sinceStable = 3
	c.det.lastSig = 0x1080
	c.det.windowsSeen = 7
	c.det.DoubleEvents = 1
	c.det.table = []tableEntry{{pcCenter: 0x1080, cpiSum: 5.0, dpiSum: 0.02, count: 4, fired: true}}
	c.det.TableHits, c.det.TableMisses = 2, 5

	c.pool.next = 3
	c.patches = []*PatchRecord{{Entry: 0x1000, TraceAddr: cfg.TracePoolBase, TraceEnd: cfg.TracePoolBase + 48, Active: true, PrePatch: 2.0}}
	c.optimized = []float64{0x1080}
	c.blacklist = []float64{0x2080}
	c.newWindows = []WindowMetrics{{Seq: 9}}
	c.instr = []*instrRecord{{
		patch:   c.patches[0],
		bufBase: 0x9000, loadPC: 0x1010, addrReg: 4, avgLat: 12.5, phaseCPI: 1.5,
		origCopy: &Trace{Start: 0x1000, Bundles: append([]isa.Bundle(nil), loopBundles()[:2]...), Orig: []uint64{0x1000, 0x1010}, IsLoop: true, BackEdge: 1},
	}}
	c.sel.use["adaptive"] = 3
	c.sel.use["nextline"] = 1
	c.obs.prevLoop = map[int]cpu.CPIStack{1: {}}
	c.Stats.WindowsObserved = 12
	c.Stats.TracesPatched = 1

	snap := c.Snapshot()
	twin := mk()
	if err := twin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := twin.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("restored controller re-snapshots differently:\n got %+v\nwant %+v", got, snap)
	}

	// The restore must be a deep copy: mutating the source afterwards must
	// not leak into the twin.
	c.ueb.windows[0].samples[0].PC = 0xdead
	c.det.table[0].count = 99
	*c.patches[0] = PatchRecord{}
	if twin.ueb.windows[0].samples[0].PC == 0xdead || twin.det.table[0].count == 99 || twin.patches[0].Entry != 0x1000 {
		t.Fatal("restored state aliases the source controller")
	}
}

// TestControllerSnapshotRestoreValidation pins the structural error paths:
// trace-pool capacity and observability enablement must match.
func TestControllerSnapshotRestoreValidation(t *testing.T) {
	cfg := testControllerConfig()
	c, err := NewController(cfg, codeWith(t, loopBundles()), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()

	smaller := cfg
	smaller.TracePoolBundles /= 2
	sc, err := NewController(smaller, codeWith(t, loopBundles()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Restore(snap); err == nil {
		t.Error("trace-pool capacity mismatch not rejected")
	}

	observed := cfg
	observed.Observe = true
	oc, err := NewController(observed, codeWith(t, loopBundles()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.Restore(snap); err == nil {
		t.Error("observability mismatch not rejected (blind snapshot into observed controller)")
	}
	if err := c.Restore(oc.Snapshot()); err == nil {
		t.Error("observability mismatch not rejected (observed snapshot into blind controller)")
	}
}
