package obs

import (
	"fmt"
	"strings"
)

// Timeline renders the capture as a plain-text per-window history: one row
// per profile window (cycle, CPI, DPI, CPI-stack shares, prefetch deltas)
// with the controller's actions — phase events, trace selections, patches,
// rejections — interleaved at the window positions where they happened.
// This is the `-timeline` view of cmd/adore-run.
func Timeline(c *Capture) string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline of %s: %d events", c.Meta.Program, len(c.Events))
	if c.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped)", c.Dropped)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%14s %7s %8s | %5s %5s %5s %5s | %s\n",
		"cycle", "CPI", "DPI", "busy", "stall", "flush", "fetch", "lfetch issued/useful/late/unused")

	// Per-window rows assemble from the WindowObserved + core CPIStack +
	// PrefetchWindow events the controller emits back to back; everything
	// else prints as an annotation line in stream order.
	type row struct {
		cycle     uint64
		cpi, dpi  float64
		haveStack bool
		stack     [4]uint64
		havePf    bool
		pf        [4]uint64
	}
	var cur *row
	flush := func() {
		if cur == nil {
			return
		}
		fmt.Fprintf(&b, "%14d %7.3f %8.5f", cur.cycle, cur.cpi, cur.dpi)
		if cur.haveStack {
			total := cur.stack[0] + cur.stack[1] + cur.stack[2] + cur.stack[3]
			if total == 0 {
				total = 1
			}
			pct := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
			fmt.Fprintf(&b, " | %4.0f%% %4.0f%% %4.0f%% %4.0f%%",
				pct(cur.stack[0]), pct(cur.stack[1]), pct(cur.stack[2]), pct(cur.stack[3]))
		} else {
			fmt.Fprintf(&b, " | %5s %5s %5s %5s", "-", "-", "-", "-")
		}
		if cur.havePf {
			fmt.Fprintf(&b, " | %d/%d/%d/%d", cur.pf[0], cur.pf[1], cur.pf[2], cur.pf[3])
		}
		b.WriteString("\n")
		cur = nil
	}
	note := func(cycle uint64, format string, args ...any) {
		flush()
		fmt.Fprintf(&b, "%14d   * ", cycle)
		fmt.Fprintf(&b, format, args...)
		b.WriteString("\n")
	}

	for i := range c.Events {
		e := &c.Events[i]
		switch e.Kind {
		case KindWindowObserved:
			flush()
			cur = &row{cycle: e.Cycle, cpi: e.V, dpi: e.W}
		case KindCPIStack:
			if e.Loop >= 0 {
				continue // per-loop stacks stay in the JSONL/Perfetto views
			}
			if cur != nil {
				cur.haveStack = true
				cur.stack = [4]uint64{e.A, e.B, e.C, e.D}
			}
		case KindPrefetchWindow:
			if cur != nil {
				cur.havePf = true
				cur.pf = [4]uint64{e.A, e.B, e.C, e.D}
			}
		case KindPhaseDetected:
			note(e.Cycle, "phase detected: pc-center %#x, CPI %.3f, DEAR/K %.2f (%d windows)",
				e.PC, e.V, e.W, e.A)
		case KindPhaseChange:
			note(e.Cycle, "phase change")
		case KindTraceSelected:
			kind := "trace"
			if e.B != 0 {
				kind = "loop trace"
			}
			note(e.Cycle, "%s selected @%#x (%d bundles, loop %d)", kind, e.PC, e.A, e.Loop)
		case KindPatchInstalled:
			note(e.Cycle, "patch installed @%#x -> %#x..%#x (%d prefetches, loop %d)",
				e.PC, e.A, e.B, e.C, e.Loop)
		case KindVerifyReject:
			note(e.Cycle, "verifier rejected trace @%#x (%d findings)", e.PC, e.A)
		case KindUnpatch:
			note(e.Cycle, "unpatched @%#x (CPI %.3f vs pre-patch %.3f)", e.PC, e.V, e.W)
		case KindPolicySelected:
			note(e.Cycle, "policy selected: %s (phase pc-center %#x)", c.Meta.PolicyName(e.A), e.PC)
		case KindPolicySwitched:
			note(e.Cycle, "policy fallback %s -> %s @%#x", c.Meta.PolicyName(e.A), c.Meta.PolicyName(e.B), e.PC)
		}
	}
	flush()
	return b.String()
}
