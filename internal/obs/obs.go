// Package obs is the observability layer of the reproduction: a
// low-overhead, cycle-stamped structured event recorder plus exporters that
// render one run's event stream as JSONL, as a Chrome-trace-format file
// loadable in Perfetto, and as a plain-text timeline.
//
// The recorder is a fixed-capacity ring of value-typed events, stamped on
// the *simulated* clock (cpu.Now()), so two identical runs produce
// identical streams and recording never perturbs the simulation. A nil
// *Recorder is a valid disabled recorder: every method is a no-op, which is
// how the zero-overhead-when-off guarantee is kept without branching at
// call sites.
package obs

import (
	"errors"
	"fmt"
)

// Kind identifies what an Event records. The controller-pipeline kinds
// mirror the ADORE control loop (DESIGN.md §10); the counter kinds carry
// per-profile-window deltas for the Perfetto counter tracks.
type Kind uint8

const (
	// KindWindowObserved: one profile window left the SSB.
	// A=window sequence, B=DEAR events, C=retired instructions,
	// V=window CPI, W=window DPI.
	KindWindowObserved Kind = iota
	// KindPhaseDetected: the phase detector confirmed a stable phase.
	// PC=phase PC-center, A=windows establishing stability, V=phase CPI,
	// W=DEAR events per 1000 instructions.
	KindPhaseDetected
	// KindPhaseChange: the previously stable phase ended.
	KindPhaseChange
	// KindTraceSelected: trace selection produced a candidate.
	// PC=trace start, A=trace bundles, B=1 for loop traces.
	KindTraceSelected
	// KindPatchInstalled: a trace went live in the pool.
	// PC=patched entry, A=trace pool address, B=first address past the
	// trace, C=prefetches inserted (by a stride-profiling reinstall: the
	// profiled prefetch it adds, 0 or 1).
	KindPatchInstalled
	// KindVerifyReject: the static verifier refused a trace.
	// PC=trace start, A=error-severity findings.
	KindVerifyReject
	// KindUnpatch: a patch was removed — a non-profitable trace, or any
	// live patch at dyn_close (Controller.UnpatchAll, V=0 there).
	// PC=patched entry, A=trace pool address, V=observed phase CPI,
	// W=pre-patch CPI.
	KindUnpatch
	// KindCPIStack: per-window cycle accounting deltas (cpu.CPIStack).
	// A=busy, B=load-use stall, C=mispredict flush, D=bundle fetch.
	// Loop >= 0 scopes the delta to one loop; Loop == -1 is the whole
	// core.
	KindCPIStack
	// KindPrefetchWindow: per-window prefetch-usefulness deltas.
	// A=lfetch issued, B=useful hits, C=late (demand hit while the fill
	// was still in flight), D=evicted unused, V=L1D miss ratio over the
	// window.
	KindPrefetchWindow
	// KindPolicySelected: the runtime selector picked a prefetch policy
	// for a stable phase. PC=phase PC-center, A=index into Meta.Policies,
	// B=selection ordinal.
	KindPolicySelected
	// KindPolicySwitched: the selected policy injected nothing into a
	// trace and the selector fell back. PC=trace start, A=from-policy
	// index, B=to-policy index (both into Meta.Policies).
	KindPolicySwitched

	// kindCount is one past the last kind. A kind missing from kindNames
	// leaves a hole the compiler cannot see; TestKindNamesComplete checks
	// every kind below kindCount has a name.
	kindCount
)

var kindNames = [kindCount]string{
	KindWindowObserved: "WindowObserved",
	KindPhaseDetected:  "PhaseDetected",
	KindPhaseChange:    "PhaseChange",
	KindTraceSelected:  "TraceSelected",
	KindPatchInstalled: "PatchInstalled",
	KindVerifyReject:   "VerifyReject",
	KindUnpatch:        "Unpatch",
	KindCPIStack:       "CPIStack",
	KindPrefetchWindow: "PrefetchWindow",
	KindPolicySelected: "PolicySelected",
	KindPolicySwitched: "PolicySwitched",
}

func (k Kind) String() string {
	if k < kindCount && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Kind?"
}

// Event is one recorded occurrence. It is a fixed-size value — no pointers,
// no per-kind payload types — so emitting one costs a struct copy and
// nothing else. Cycle is the simulated clock; Loop is the compiler loop ID
// the event concerns (-1 when none); the meaning of PC, A-D, V and W is
// per-kind (see the Kind constants).
type Event struct {
	Cycle      uint64
	Kind       Kind
	Loop       int32
	PC         uint64
	A, B, C, D uint64
	V, W       float64
}

// DefaultCapacity is the ring size used when a Recorder is created with
// capacity <= 0: large enough to hold every event of the paper-scale runs,
// small enough (a few MB) to keep observed runs cheap.
const DefaultCapacity = 1 << 16

// Recorder is a fixed-capacity ring buffer of events. Once full, new events
// overwrite the oldest and Dropped counts the overwrites — a timeline tail
// is more useful than a head when the buffer is undersized, matching the
// SSB's own newest-wins behaviour.
//
// A nil *Recorder is the disabled recorder: Emit and the query methods are
// no-ops, allocation-free by construction.
type Recorder struct {
	buf     []Event
	next    int // oldest entry once the ring is full
	dropped uint64
}

// NewRecorder returns a recorder holding up to capacity events
// (DefaultCapacity when capacity <= 0). All memory is allocated up front;
// Emit never allocates.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Emit appends one event. On a full ring the oldest event is overwritten.
// Safe on a nil receiver.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.dropped++
}

// Len reports the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Dropped reports how many events were overwritten after the ring filled.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the buffered events oldest-first, as a copy the caller
// owns.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Restore replaces the recorder's contents with the given oldest-first
// events and dropped count — the values a prior Events()/Dropped() pair
// returned. The ring resumes exactly as the original would: a full ring
// keeps overwriting oldest-first, so the event stream a restored run
// produces is identical to the uninterrupted one. Restoring more events
// than the ring's capacity is an error.
func (r *Recorder) Restore(events []Event, dropped uint64) error {
	if r == nil {
		if len(events) > 0 {
			return errors.New("obs: restoring events into a nil recorder")
		}
		return nil
	}
	if len(events) > cap(r.buf) {
		return fmt.Errorf("obs: restoring %d events into a %d-capacity recorder", len(events), cap(r.buf))
	}
	r.buf = append(r.buf[:0], events...)
	r.next = 0
	r.dropped = dropped
	return nil
}

// LoopLabel names one compiler loop for the exporters' per-loop tracks.
type LoopLabel struct {
	ID   int
	Name string
}

// Meta is run-level context the exporters attach to the stream.
type Meta struct {
	Program string
	Loops   []LoopLabel
	// Policies is the name table the policy events' indices resolve
	// against (PolicySelected/PolicySwitched carry integers only).
	Policies []string `json:",omitempty"`
}

// PolicyName resolves a policy-event index against the name table.
func (m Meta) PolicyName(idx uint64) string {
	if idx < uint64(len(m.Policies)) {
		return m.Policies[idx]
	}
	return "policy?"
}

// Capture is one run's complete recorded stream, ready for export.
type Capture struct {
	Meta    Meta
	Events  []Event
	Dropped uint64
}
