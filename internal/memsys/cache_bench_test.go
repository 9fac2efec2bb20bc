package memsys

import "testing"

// These microbenchmarks bound the cost of the access shapes the simulator
// performs most (DESIGN.md §12): a repeat L1 hit and alternating I-line
// hits through the hierarchy's full Access* path, the same shapes plus an
// FP load's L2 hit through the entry the CPU calls first (ReadyHit, with
// the full path as its fallback), and a full three-level miss with fills
// (the victim-hint path). The end-to-end number lives in BenchmarkMIPS;
// these exist so a hot-path change can be attributed to the operation it
// touched.

func BenchmarkL1Hit(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.AccessLoad(0, 0x1000) // install
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessLoad(uint64(i), 0x1000)
	}
}

func BenchmarkL1HitAlternating(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.AccessInst(0, 0x1000)
	h.AccessInst(0, 0x1040)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessInst(uint64(i), 0x1000+uint64(i&1)*0x40)
	}
}

// BenchmarkReadyHitInstAlternating is the CPU's I-line change: a fetch
// alternating between two resident lines, as a loop straddling an I-line
// boundary does.
func BenchmarkReadyHitInstAlternating(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.AccessInst(0, 0x1000)
	h.AccessInst(0, 0x1040)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, addr := uint64(i)+1000, 0x1000+uint64(i&1)*0x40
		if !h.L1I.ReadyHit(now, addr, false, true) {
			h.AccessInst(now, addr)
		}
	}
}

// BenchmarkReadyHitFPL2 is the CPU's FP load of a resident line: FP loads
// bypass L1D, so the ready hit is L2's.
func BenchmarkReadyHitFPL2(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.AccessLoadFP(0, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i) + 1000
		if !h.L2.ReadyHit(now, 0x1000, false, true) {
			h.AccessLoadFP(now, 0x1000)
		}
	}
}

func BenchmarkFullMiss(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessLoad(uint64(i)*200, uint64(i)<<7)
	}
}
