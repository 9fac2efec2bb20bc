package program

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memsys"
)

// TestNewMemoryInitializesOnce: concurrent NewMemory calls run InitData
// exactly once, and each caller gets a private copy of its data.
func TestNewMemoryInitializesOnce(t *testing.T) {
	const addr, val = 0x20000, 0xfeed
	var calls atomic.Int32
	im := &Image{Name: "once", InitData: func(m *memsys.Memory) {
		calls.Add(1)
		m.Write64(addr, val)
	}}

	const n = 8
	mems := make([]*memsys.Memory, n)
	var wg sync.WaitGroup
	for i := range mems {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mems[i] = im.NewMemory()
		}(i)
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("InitData ran %d times, want 1", c)
	}
	for i, m := range mems {
		if got := m.Read64(addr); got != val {
			t.Fatalf("memory %d reads %#x at %#x, want %#x", i, got, addr, val)
		}
	}

	mems[0].Write64(addr, 1)
	mems[0].Write64(addr+8, 2)
	for i, m := range append(mems[1:], im.NewMemory()) {
		if got := m.Read64(addr); got != val {
			t.Errorf("memory %d sees a sibling's store: %#x at %#x, want %#x", i+1, got, addr, val)
		}
		if got := m.Read64(addr + 8); got != 0 {
			t.Errorf("memory %d sees a sibling's store: %#x at %#x, want 0", i+1, got, addr+8)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("InitData ran %d times, want 1", c)
	}
}

// TestNewMemoryNilInitData: a literal image without InitData — a pure
// register kernel — yields an empty, writable memory.
func TestNewMemoryNilInitData(t *testing.T) {
	im := &Image{}
	m := im.NewMemory()
	if fp := m.Footprint(); fp != 0 {
		t.Fatalf("footprint %d, want an empty memory", fp)
	}
	m.Write64(0x1000, 7)
	if got := m.Read64(0x1000); got != 7 {
		t.Fatalf("read back %d, want 7", got)
	}
	if got := im.NewMemory().Read64(0x1000); got != 0 {
		t.Fatalf("a later memory sees an earlier one's store: %d", got)
	}
}
