package core

import (
	"repro/internal/obs"
	"repro/internal/verify"
)

// This file wires the static machine-code verifier (internal/verify) into
// the dynamic optimizer. Behind Config.Verify (on by default), every trace
// the controller is about to install is checked against the pristine copy
// it was grown from; a trace with findings is rejected and the original
// code keeps running unpatched — a bad patch becomes a missed optimization
// instead of a corrupted program.

// View exposes the trace to the verifier. verify cannot import core (core
// imports verify), so the trace crosses as a neutral struct.
func (t *Trace) View() verify.TraceView {
	return verify.TraceView{
		Start:    t.Start,
		Bundles:  t.Bundles,
		Orig:     t.Orig,
		IsLoop:   t.IsLoop,
		LoopHead: t.LoopHead,
		BackEdge: t.BackEdge,
	}
}

// verifyTrace checks an edited trace against the pristine clone its edits
// started from. It reports true when the trace is safe to install. A
// rejection is a VerifyReject event stamped at now; its findings are
// accumulated for inspection (Findings, cmd/adore-lint).
func (c *Controller) verifyTrace(now uint64, t, pristine *Trace) bool {
	if !c.cfg.Verify {
		return true
	}
	var base *verify.TraceView
	if pristine != nil {
		v := pristine.View()
		base = &v
	}
	c.Stats.TracesVerified++
	fs := verify.Errors(verify.CheckTrace(t.View(), base, verify.Options{Code: c.code}))
	if len(fs) == 0 {
		return true
	}
	c.findings = append(c.findings, fs...)
	c.emit(obs.Event{
		Cycle: now, Kind: obs.KindVerifyReject, Loop: c.loopOf(t.Start),
		PC: t.Start, A: uint64(len(fs)),
	})
	return false
}

// Findings returns the verifier findings of every rejected trace, in
// rejection order.
func (c *Controller) Findings() []verify.Finding { return c.findings }
