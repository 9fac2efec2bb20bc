package core

import (
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/program"
)

// The controller's one event path: every pipeline decision is built as one
// obs.Event and handed to emit, which counts it in Stats, bumps its live
// adore_core_* counter and appends it to the event ring. Without Observe
// the ring is nil, without Config.Metrics the counters are; nil-receiver
// no-ops either way, so the pipeline's behaviour and timing are untouched.

// kindMetrics names the live counter each counted event kind feeds. The
// counters aggregate across every run wired to the same registry (per-run
// totals live in Stats) and are execution-side: result-cache hits run no
// controller and add nothing, a fork continuation counts only what it
// executes, not the prefix restored from its probe's snapshot, and a
// merged fork-group member (served its leader's run, shadow.go) adds
// nothing, like a cache hit. Shadows never feed them. Every help string
// ends with execSide to say so.
var kindMetrics = [...]struct{ name, help string }{
	obs.KindWindowObserved: {"adore_core_windows_observed_total", "profile windows copied from the SSB"},
	obs.KindPhaseDetected:  {"adore_core_phases_detected_total", "stable phases confirmed by the detector"},
	obs.KindPhaseChange:    {"adore_core_phase_changes_total", "stable phases that ended"},
	obs.KindTraceSelected:  {"adore_core_traces_selected_total", "candidate traces produced by selection"},
	obs.KindPatchInstalled: {"adore_core_patches_installed_total", "traces patched live into the pool"},
	obs.KindVerifyReject:   {"adore_core_verify_rejects_total", "traces the static verifier refused"},
	obs.KindUnpatch:        {"adore_core_unpatches_total", "patches removed (unprofitable or dyn_close)"},
	obs.KindPolicySelected: {"adore_core_policy_selections_total", "per-phase prefetch-policy decisions"},
	obs.KindPolicySwitched: {"adore_core_policy_switches_total", "selector fallbacks after an empty optimize"},
}

// execSide ends every adore_core_* help string.
const execSide = " (execution-side: a fork continuation does not re-count its restored prefix, nor a merged fork member its leader's run)"

// emit records one event on all three views: Stats, the live counter and
// the ring.
func (c *Controller) emit(e obs.Event) {
	c.Stats.count(e.Kind)
	if int(e.Kind) < len(c.counters) {
		c.counters[e.Kind].Inc()
	}
	c.obs.rec.Emit(e)
}

// observeState is the controller's recorder plus the previous-window
// snapshots the per-window counter deltas difference against.
type observeState struct {
	rec *obs.Recorder
	m   *cpu.CPU
	img *program.Image

	prevStack cpu.CPIStack
	prevLoop  map[int]cpu.CPIStack
	prevPf    memsys.PrefetchStats
	prevL1D   memsys.CacheStats
}

// SetImage attaches compiler loop metadata so events carry loop IDs and the
// exporters can label per-loop tracks. Harmless without Observe.
func (c *Controller) SetImage(img *program.Image) { c.obs.img = img }

// Recording reports whether this controller records events.
func (c *Controller) Recording() bool { return c.obs.rec != nil }

// Capture returns the recorded event stream, or nil without Config.Observe.
func (c *Controller) Capture() *obs.Capture {
	if c.obs.rec == nil {
		return nil
	}
	cp := &obs.Capture{
		Events:  c.obs.rec.Events(),
		Dropped: c.obs.rec.Dropped(),
	}
	if img := c.obs.img; img != nil {
		cp.Meta.Program = img.Name
		for i := range img.Loops {
			l := &img.Loops[i]
			cp.Meta.Loops = append(cp.Meta.Loops, obs.LoopLabel{ID: l.ID, Name: l.Name})
		}
	}
	// Name table the PolicySelected/PolicySwitched indices resolve against
	// (only emitted when the selector ran, but always present so viewers
	// need no special case).
	cp.Meta.Policies = PrefetchPolicyNames()
	return cp
}

// loopOf maps a code address to its compiler loop ID (-1 when unknown).
func (c *Controller) loopOf(pc uint64) int32 {
	if c.obs.img == nil {
		return -1
	}
	if l, ok := c.obs.img.LoopAt(pc); ok {
		return int32(l.ID)
	}
	return -1
}

// observeWindow samples the per-window counters under Observe: the
// CPI-stack deltas (whole-core and per loop, when the CPU runs with
// Accounting), then the prefetch-usefulness deltas. The events are stamped
// at the snapshot instant — the CPU clock at overflow delivery, which can
// trail the window's EndCycle by the monitoring cycles charged between
// windows (patch installation, handler cost) — so consecutive core-level
// CPIStack deltas sum exactly to the cycles between their stamps.
func (c *Controller) observeWindow() {
	o := &c.obs
	if o.rec == nil || o.m == nil {
		return
	}
	now := o.m.Now()
	if stack, ok := o.m.Accounting(); ok {
		d := stack.Sub(o.prevStack)
		o.prevStack = stack
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindCPIStack, Loop: -1,
			A: d.Busy, B: d.LoadStall, C: d.Flush, D: d.Fetch,
		})
		loops := o.m.LoopAccounting()
		for _, id := range o.m.LoopIDs() {
			ld := loops[id].Sub(o.prevLoop[id])
			o.prevLoop[id] = loops[id]
			if ld.Total() == 0 || id < 0 {
				continue // idle loop this window; core already emitted
			}
			c.emit(obs.Event{
				Cycle: now, Kind: obs.KindCPIStack, Loop: int32(id),
				A: ld.Busy, B: ld.LoadStall, C: ld.Flush, D: ld.Fetch,
			})
		}
	}

	if h := o.m.Hier; h != nil {
		pf := h.Prefetch()
		d := pf.Sub(o.prevPf)
		o.prevPf = pf
		l1d := h.L1D.Stats
		var missRatio float64
		if acc := l1d.Accesses - o.prevL1D.Accesses; acc > 0 {
			missRatio = float64(l1d.Misses-o.prevL1D.Misses) / float64(acc)
		}
		o.prevL1D = l1d
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindPrefetchWindow, Loop: -1,
			A: d.Issued, B: d.Useful, C: d.Late, D: d.EvictedUnused,
			V: missRatio,
		})
	}
}
