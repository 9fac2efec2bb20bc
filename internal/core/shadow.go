package core

import "reflect"

// Lockstep deciders for the fork engine (DESIGN.md §16). ADORE's only
// policy-dependent act is the prefetch code a stable phase's loop traces
// receive, so two configurations that differ only in Config.Policy or
// Config.Selector run identical machines for as long as their policies
// return identical (optimized trace, OptimizeResult) pairs. A Shadow is one
// such other configuration riding along a leader controller's run: at
// every policy point it makes its own pick and optimizes its own clone of
// each pristine trace, and it stays merged while its outcomes equal the
// leader's. A merged shadow's run is the leader's run; only the
// selector-only bookkeeping differs, and the shadow keeps that in its own
// ledger. A shadow that unmerges records where and how it first decided
// differently, so the fork engine can tell which unmerged shadows may
// still share one run (SamePath). Shadows never touch the leader's
// machine, state, events or counters.

// Shadow is one lockstep decider attached to a leader controller
// (Controller.AddShadow).
type Shadow struct {
	pf     PrefetchPolicy
	sel    *Selector
	pick   PrefetchPolicy // this stable phase's policy
	merged bool

	// Ledger of the selector-only bookkeeping: picks and fallback wins,
	// the shadow's PolicySelections/PolicySwitches.
	selections, switches int

	// decisions counts the trace decisions followed while merged; an
	// unmerged shadow's divAt is the 1-based decision it first differed
	// at (0: it never merged) and divTrace/divRes its own outcome there.
	decisions int
	divAt     int
	divTrace  *Trace
	divRes    OptimizeResult
}

// AddShadow attaches a lockstep decider built from cfg's prefetch policy
// and selector; every other field of cfg must equal the leader's. A cfg
// whose policy does not resolve yields a shadow that is never merged, so
// its own run reports the error; so does an observed cfg or leader, whose
// event stream records its own policy picks. Shadows are host-side:
// Snapshot does not capture them, and a resumed run attaches its own.
func (c *Controller) AddShadow(cfg Config) {
	sh := &Shadow{}
	if cfg.Observe || c.cfg.Observe {
		c.shadows = append(c.shadows, sh)
		return
	}
	if pf, err := NewPrefetchPolicy(cfg.Policy, cfg); err == nil {
		sh.pf, sh.merged = pf, true
		if cfg.Selector {
			sh.sel = NewSelector(cfg)
		}
	}
	c.shadows = append(c.shadows, sh)
}

// Shadows returns the attached deciders in AddShadow order.
func (c *Controller) Shadows() []*Shadow { return c.shadows }

// Merged reports whether every decision the shadow made matched the
// leader's, so the leader's run is the shadow's.
func (s *Shadow) Merged() bool { return s.merged }

// SamePath reports whether two shadows of the same leader unmerged at the
// same decision with equal outcomes there, so they may still share one
// run. Shadows that first differed anywhere else, or never merged, follow
// different decision paths.
func (s *Shadow) SamePath(o *Shadow) bool {
	return s.divAt != 0 && s.divAt == o.divAt &&
		reflect.DeepEqual(s.divTrace, o.divTrace) && reflect.DeepEqual(s.divRes, o.divRes)
}

// Stats returns the shadow configuration's statistics given its merged
// leader's: the leader's counts with the shadow's own selector ledger.
func (s *Shadow) Stats(leader Stats) Stats {
	leader.PolicySelections = s.selections
	leader.PolicySwitches = s.switches
	return leader
}

// pickShadows makes each merged shadow's policy decision for the stable
// phase the leader is deciding.
func (c *Controller) pickShadows(ctx PrefetchContext) {
	for _, sh := range c.shadows {
		if !sh.merged {
			continue
		}
		sh.pick = sh.pf
		if sh.sel != nil {
			sh.pick = sh.sel.Pick(ctx)
			sh.selections++
		}
	}
}

// followShadows replays one trace's decision under each merged shadow's
// pick, on its own clone of pristine, and unmerges every shadow whose
// outcome differs from the leader's (t, res), recording its own.
func (c *Controller) followShadows(t *Trace, res OptimizeResult, pristine *Trace,
	loads []DelinquentLoad, ctx PrefetchContext) {
	for _, sh := range c.shadows {
		if !sh.merged {
			continue
		}
		sh.decisions++
		st := cloneTrace(pristine)
		sres, fb := optimizeTrace(sh.pick, sh.sel, st, pristine, loads, ctx)
		if !reflect.DeepEqual(st, t) || !reflect.DeepEqual(sres, res) {
			sh.merged = false
			sh.divAt, sh.divTrace, sh.divRes = sh.decisions, st, sres
			continue
		}
		if fb != nil {
			sh.switches++
		}
	}
}

// optimizeTrace is one trace's policy decision: pol optimizes t in place,
// and under a selector a trace pol injected nothing into is retried with
// the fallback policy from pristine. It returns the result and the
// fallback policy that won, or nil.
func optimizeTrace(pol PrefetchPolicy, sel *Selector, t, pristine *Trace,
	loads []DelinquentLoad, ctx PrefetchContext) (OptimizeResult, PrefetchPolicy) {
	res := pol.Optimize(t, loads, ctx)
	if sel == nil || res.Total() != 0 {
		return res, nil
	}
	fb := sel.Fallback(pol.PolicyName())
	if fb == nil {
		return res, nil
	}
	*t = *cloneTrace(pristine)
	if fres := fb.Optimize(t, loads, ctx); fres.Total() > 0 {
		sel.noteUse(fb.PolicyName())
		return fres, fb
	}
	*t = *cloneTrace(pristine) // nothing worked: restore
	return res, nil
}
