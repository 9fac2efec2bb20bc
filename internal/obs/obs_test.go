package obs

import (
	"testing"
)

func ev(cycle uint64, k Kind) Event { return Event{Cycle: cycle, Kind: k, Loop: -1} }

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := uint64(1); i <= 6; i++ {
		r.Emit(ev(i, KindWindowObserved))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	got := r.Events()
	want := []uint64{3, 4, 5, 6}
	for i, w := range want {
		if got[i].Cycle != w {
			t.Fatalf("Events()[%d].Cycle = %d, want %d (full: %+v)", i, got[i].Cycle, w, got)
		}
	}
	// Keep wrapping past a full revolution.
	for i := uint64(7); i <= 11; i++ {
		r.Emit(ev(i, KindWindowObserved))
	}
	got = r.Events()
	want = []uint64{8, 9, 10, 11}
	for i, w := range want {
		if got[i].Cycle != w {
			t.Fatalf("after revolution: Events()[%d].Cycle = %d, want %d", i, got[i].Cycle, w)
		}
	}
}

func TestRecorderBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(ev(1, KindPhaseDetected))
	r.Emit(ev(2, KindPatchInstalled))
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	got := r.Events()
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 2 {
		t.Fatalf("Events() = %+v", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	if cap(r.buf) != DefaultCapacity {
		t.Fatalf("cap = %d, want %d", cap(r.buf), DefaultCapacity)
	}
}

// TestDisabledRecorderZeroAlloc pins the zero-overhead-when-off contract:
// emitting on a nil (disabled) recorder allocates nothing, and a live
// recorder allocates nothing per Emit either (all memory is up-front).
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var disabled *Recorder
	e := Event{Cycle: 1, Kind: KindCPIStack, Loop: -1, A: 1, B: 2, C: 3, D: 4}
	if n := testing.AllocsPerRun(1000, func() { disabled.Emit(e) }); n != 0 {
		t.Fatalf("nil recorder: %v allocs/Emit, want 0", n)
	}
	if disabled.Len() != 0 || disabled.Dropped() != 0 || disabled.Events() != nil {
		t.Fatal("nil recorder leaked state")
	}

	live := NewRecorder(64)
	if n := testing.AllocsPerRun(1000, func() { live.Emit(e) }); n != 0 {
		t.Fatalf("live recorder: %v allocs/Emit, want 0", n)
	}
}

// BenchmarkRecorder measures the per-event cost of the enabled recorder —
// the number CHANGES.md quotes next to the <5% run-overhead guard.
func BenchmarkRecorder(b *testing.B) {
	r := NewRecorder(1 << 12)
	e := Event{Cycle: 1, Kind: KindWindowObserved, Loop: -1, A: 1, B: 2, V: 1.5, W: 0.01}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Cycle = uint64(i)
		r.Emit(e)
	}
}

// BenchmarkRecorderDisabled is the disabled-path cost (a nil check).
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	e := Event{Cycle: 1, Kind: KindWindowObserved, Loop: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(e)
	}
}

// TestKindNamesComplete: every Kind needs a kindNames entry, or its events
// print as "Kind?" in every log and trace — a gap the keyed array literal
// hides from the compiler.
func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "Kind?" {
			t.Errorf("Kind %d has no kindNames entry", k)
		}
	}
	if kindCount.String() != "Kind?" {
		t.Errorf("kindCount sentinel prints %q, want Kind?", kindCount.String())
	}
}
