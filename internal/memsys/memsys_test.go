package memsys

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.WriteN(0x1000, 8, 0x1122334455667788)
	if got := m.ReadN(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("Read64 = %#x", got)
	}
	if got := m.ReadN(0x1000, 4); got != 0x55667788 {
		t.Fatalf("Read32 low = %#x", got)
	}
	if got := m.ReadN(0x1004, 4); got != 0x11223344 {
		t.Fatalf("Read32 high = %#x", got)
	}
	if got := m.ReadN(0x1007, 1); got != 0x11 {
		t.Fatalf("Read8 = %#x", got)
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if got := m.Read64(0xdeadbeef000); got != 0 {
		t.Fatalf("untouched memory = %#x, want 0", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	m.WriteN(addr, 8, 0xa1b2c3d4e5f60718)
	if got := m.ReadN(addr, 8); got != 0xa1b2c3d4e5f60718 {
		t.Fatalf("straddling read = %#x", got)
	}
	// Byte view must agree.
	if got := m.ReadN(addr+3, 1); got != 0xe5 {
		t.Fatalf("byte 3 = %#x", got)
	}
}

func TestMemoryFloatRoundTrip(t *testing.T) {
	m := NewMemory()
	m.WriteFloat(64, 3.25)
	if got := m.ReadFloat(64); got != 3.25 {
		t.Fatalf("ReadFloat = %v", got)
	}
}

// Property: a write followed by a read of the same size and address always
// returns the written value masked to the size.
func TestMemoryWriteReadProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, szSel uint8, v uint64) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr %= 1 << 30
		m.WriteN(addr, size, v)
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * uint(size))) - 1
		}
		return m.ReadN(addr, size) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// access runs one access of the given kind through the hierarchy's per-kind
// entry point, so the tests below can name the client by its kind.
func access(h *Hierarchy, now, addr uint64, kind AccessKind) Result {
	switch kind {
	case KindLoad:
		return h.AccessLoad(now, addr)
	case KindStore:
		return h.AccessStore(now, addr)
	case KindInst:
		return h.AccessInst(now, addr)
	case KindPrefetch:
		return h.AccessPrefetch(now, addr)
	}
	return h.AccessLoadFP(now, addr)
}

func smallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:          CacheConfig{Name: "L1D", Size: 1 << 10, LineSize: 64, Assoc: 2, HitLat: 1},
		L1I:          CacheConfig{Name: "L1I", Size: 1 << 10, LineSize: 64, Assoc: 2, HitLat: 0},
		L2:           CacheConfig{Name: "L2", Size: 8 << 10, LineSize: 128, Assoc: 4, HitLat: 6},
		L3:           CacheConfig{Name: "L3", Size: 64 << 10, LineSize: 128, Assoc: 4, HitLat: 14},
		MemLatency:   160,
		BusOccupancy: 16,
		MSHRs:        4,
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad line size accepted")
		}
	}()
	NewCache(CacheConfig{Name: "x", Size: 1024, LineSize: 48, Assoc: 2})
}

func TestColdMissThenHit(t *testing.T) {
	h := NewHierarchy(smallConfig())
	r := access(h, 0, 0x4000, KindLoad)
	if r.Level != LevelMem {
		t.Fatalf("cold access level = %v", r.Level)
	}
	if r.Latency < 160 {
		t.Fatalf("cold latency = %d, want >= 160", r.Latency)
	}
	// After the fill completes, it is an L1 hit.
	later := r.Latency + 10
	r2 := access(h, later, 0x4000, KindLoad)
	if r2.Level != LevelL1 || r2.Latency != 1 {
		t.Fatalf("post-fill access = %+v", r2)
	}
}

func TestInFlightFillWaits(t *testing.T) {
	h := NewHierarchy(smallConfig())
	r := access(h, 0, 0x4000, KindLoad)
	// A second access to the same line before the fill completes waits
	// only for the remainder (miss coalescing), not a full memory trip.
	r2 := access(h, 50, 0x4000, KindLoad)
	if r2.Level != LevelL1 {
		t.Fatalf("coalesced access level = %v", r2.Level)
	}
	want := r.Latency - 50
	if r2.Latency != want {
		t.Fatalf("coalesced latency = %d, want %d", r2.Latency, want)
	}
}

func TestFPLoadBypassesL1(t *testing.T) {
	h := NewHierarchy(smallConfig())
	access(h, 0, 0x8000, KindLoad) // fills all levels
	r := access(h, 1000, 0x8000, KindLoadFP)
	if r.Level != LevelL2 {
		t.Fatalf("FP load level = %v, want L2", r.Level)
	}
	if r.Latency != 6 {
		t.Fatalf("FP L2 hit latency = %d, want 6", r.Latency)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	h := NewHierarchy(smallConfig())
	pf := access(h, 0, 0xc000, KindPrefetch)
	if pf.Latency != 0 || pf.Dropped {
		t.Fatalf("prefetch result = %+v", pf)
	}
	// Demand access long after the prefetch: full hit.
	r := access(h, 1000, 0xc000, KindLoad)
	if r.Level != LevelL1 || r.Latency != 1 {
		t.Fatalf("post-prefetch access = %+v", r)
	}
	// Late prefetch: demand arrives before fill completes, waits partially.
	access(h, 2000, 0x10000, KindPrefetch)
	r2 := access(h, 2100, 0x10000, KindLoad)
	if r2.Latency == 0 || r2.Latency >= 160 {
		t.Fatalf("late-prefetch latency = %d, want partial wait", r2.Latency)
	}
	if h.L1D.Stats.LatePfHits == 0 {
		t.Fatal("late prefetch hit not counted")
	}
}

func TestMSHRFullDropsPrefetch(t *testing.T) {
	h := NewHierarchy(smallConfig()) // 4 MSHRs
	for i := 0; i < 4; i++ {
		access(h, 0, uint64(0x20000+i*4096), KindPrefetch)
	}
	r := access(h, 0, 0x40000, KindPrefetch)
	if !r.Dropped {
		t.Fatal("5th concurrent prefetch not dropped")
	}
	if h.DroppedPrefetches != 1 {
		t.Fatalf("DroppedPrefetches = %d", h.DroppedPrefetches)
	}
	// A demand miss instead waits for an MSHR.
	r2 := access(h, 0, 0x50000, KindLoad)
	if r2.Latency <= 160 {
		t.Fatalf("demand miss under full MSHRs latency = %d, want > mem latency", r2.Latency)
	}
	if h.MSHRWaitCycles == 0 {
		t.Fatal("MSHR wait not accounted")
	}
}

func TestBusOccupancySerializesMisses(t *testing.T) {
	h := NewHierarchy(smallConfig())
	r1 := access(h, 0, 0x100000, KindLoad)
	r2 := access(h, 0, 0x200000, KindLoad)
	if r2.Latency != r1.Latency+16 {
		t.Fatalf("second miss latency = %d, want %d (bus occupancy)", r2.Latency, r1.Latency+16)
	}
	if h.BusWaitCycles == 0 {
		t.Fatal("bus wait not accounted")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := CacheConfig{Name: "t", Size: 256, LineSize: 64, Assoc: 2, HitLat: 1} // 2 sets
	c := NewCache(cfg)
	// Three lines mapping to set 0: addresses 0, 128, 256.
	c.Fill(0, 0, false, false)
	c.Fill(128, 0, false, false)
	c.Access(10, 0, false) // touch 0, making 128 LRU
	c.Fill(256, 0, false, false)
	if !c.Probe(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(128) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(256) {
		t.Fatal("new line not resident")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	cfg := CacheConfig{Name: "t", Size: 128, LineSize: 64, Assoc: 1, HitLat: 1} // 2 sets, direct-mapped
	c := NewCache(cfg)
	c.Fill(0, 0, false, false)
	c.Access(1, 0, true) // dirty it
	if evicted := c.Fill(128, 0, false, false); !evicted {
		t.Fatal("dirty eviction not reported")
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestStatsMissRatio(t *testing.T) {
	var s CacheStats
	if s.MissRatio() != 0 {
		t.Fatal("idle miss ratio non-zero")
	}
	s.Accesses, s.Misses = 10, 3
	if got := s.MissRatio(); got != 0.3 {
		t.Fatalf("MissRatio = %v", got)
	}
}

func TestInstFetchPath(t *testing.T) {
	h := NewHierarchy(smallConfig())
	r := access(h, 0, 0x7000, KindInst)
	if r.Level != LevelMem {
		t.Fatalf("cold inst fetch level = %v", r.Level)
	}
	r2 := access(h, r.Latency+1, 0x7000, KindInst)
	if r2.Level != LevelL1 || r2.Latency != 0 {
		t.Fatalf("warm inst fetch = %+v", r2)
	}
	// Instruction fills do not pollute L1D.
	if h.L1D.Probe(0x7000) {
		t.Fatal("inst fetch filled L1D")
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(smallConfig())
	access(h, 0, 0x9000, KindLoad)
	h.Reset()
	if h.L1D.Probe(0x9000) || h.MemAccesses != 0 || h.L1D.Stats.Accesses != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: latency is monotone in hierarchy depth — an access that hits
// closer to the core is never slower than one that goes deeper, measured
// on fresh hierarchies with an idle bus.
func TestLevelLatencyOrdering(t *testing.T) {
	h := NewHierarchy(smallConfig())
	memLat := access(h, 0, 0x1000, KindLoad).Latency
	h2 := NewHierarchy(smallConfig())
	access(h2, 0, 0x1000, KindLoad)
	l1Lat := access(h2, 100000, 0x1000, KindLoad).Latency
	fp := access(h2, 200000, 0x1000, KindLoadFP).Latency
	if !(l1Lat < fp && fp < memLat) {
		t.Fatalf("latency ordering violated: L1=%d L2=%d MEM=%d", l1Lat, fp, memLat)
	}
}

func TestPrefetchUsefulnessCounters(t *testing.T) {
	h := NewHierarchy(smallConfig())

	// Useful: demand touch long after the fill completed.
	access(h, 0, 0xc000, KindPrefetch)
	access(h, 1000, 0xc000, KindLoad)
	if h.L1D.Stats.PfUseful != 1 {
		t.Fatalf("PfUseful = %d, want 1", h.L1D.Stats.PfUseful)
	}

	// Late: demand touch while the fill is still in flight.
	access(h, 2000, 0x10000, KindPrefetch)
	access(h, 2100, 0x10000, KindLoad)
	if h.L1D.Stats.PfLate != 1 {
		t.Fatalf("PfLate = %d, want 1", h.L1D.Stats.PfLate)
	}

	// The first demand touch consumes the pf bit: re-touching the same
	// line is an ordinary hit, not another useful prefetch.
	access(h, 3000, 0xc000, KindLoad)
	if h.L1D.Stats.PfUseful != 1 {
		t.Fatalf("second touch recounted: PfUseful = %d", h.L1D.Stats.PfUseful)
	}

	// A prefetch probing its own line must not consume the bit.
	access(h, 4000, 0x20000, KindPrefetch)
	access(h, 5000, 0x20000, KindPrefetch)
	access(h, 6000, 0x20000, KindLoad)
	if h.L1D.Stats.PfUseful != 2 {
		t.Fatalf("prefetch probe consumed pf bit: PfUseful = %d, want 2", h.L1D.Stats.PfUseful)
	}

	// Unused: prefetched line evicted (1 KB / 64 B / 2-way L1D -> 8 sets,
	// 512-byte set stride) before any demand touch.
	access(h, 7000, 0x30000, KindPrefetch)
	access(h, 8000, 0x30200, KindLoad)
	access(h, 9000, 0x30400, KindLoad)
	if h.L1D.Stats.PfUnused != 1 {
		t.Fatalf("PfUnused = %d, want 1", h.L1D.Stats.PfUnused)
	}

	agg := h.Prefetch()
	if agg.Issued != 5 {
		t.Fatalf("Issued = %d, want 5", agg.Issued)
	}
	if agg.Useful < 2 || agg.Late < 1 || agg.EvictedUnused < 1 {
		t.Fatalf("aggregate = %+v", agg)
	}

	// Deltas for per-window sampling.
	before := agg
	access(h, 10000, 0x40000, KindPrefetch)
	d := h.Prefetch().Sub(before)
	if d.Issued != 1 || d.Useful != 0 {
		t.Fatalf("delta = %+v", d)
	}

	h.Reset()
	if got := h.Prefetch(); got != (PrefetchStats{}) {
		t.Fatalf("Reset left counters: %+v", got)
	}
}

func TestDemandFillNotCountedUnused(t *testing.T) {
	h := NewHierarchy(smallConfig())
	// Demand-filled lines evicted untouched-again are not "unused
	// prefetches": the pf bit is only set by lfetch fills.
	access(h, 0, 0x50000, KindLoad)
	access(h, 1000, 0x50200, KindLoad)
	access(h, 2000, 0x50400, KindLoad)
	if h.L1D.Stats.PfUnused != 0 {
		t.Fatalf("PfUnused = %d, want 0", h.L1D.Stats.PfUnused)
	}
}
