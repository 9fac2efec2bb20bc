package memsys

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestReadyHitMatchesFullPath is the differential check of Cache.ReadyHit
// as the CPU uses it: one hierarchy takes every access through the ready
// memo hit first and falls back to the full Access* path when it declines;
// a twin takes Access* only. After every access of a seeded mixed stream
// the two must be identical in every field — statistics, each line's tag,
// meta and ready time, the lastWay memos, the victim hints, the bus and
// MSHR state — and the latency the fast side charges must equal the full
// path's. Small caches keep evictions, prefetch marks and in-flight fills
// frequent, and the stream reports that it exercised each of them.
func TestReadyHitMatchesFullPath(t *testing.T) {
	cfg := HierarchyConfig{
		L1D:          CacheConfig{Name: "L1D", Size: 2 << 10, LineSize: 64, Assoc: 2, HitLat: 1},
		L1I:          CacheConfig{Name: "L1I", Size: 1 << 10, LineSize: 64, Assoc: 2, HitLat: 0},
		L2:           CacheConfig{Name: "L2", Size: 8 << 10, LineSize: 128, Assoc: 4, HitLat: 6},
		L3:           CacheConfig{Name: "L3", Size: 32 << 10, LineSize: 128, Assoc: 4, HitLat: 14},
		MemLatency:   160,
		BusOccupancy: 16,
		MSHRs:        4,
	}
	fast, ref := NewHierarchy(cfg), NewHierarchy(cfg)
	l1dLat, l1iLat, l2Lat := uint64(cfg.L1D.HitLat), uint64(cfg.L1I.HitLat), uint64(cfg.L2.HitLat)

	const n = 60_000
	rng := rand.New(rand.NewSource(30))
	kinds := []AccessKind{KindLoad, KindLoadFP, KindStore, KindPrefetch, KindInst}
	names := []string{"load", "fp load", "store", "lfetch", "ifetch"}
	var took, declined [5]int
	var now, data, code uint64
	for i := 0; i < n; i++ {
		now += uint64(rng.Intn(3))
		k := rng.Intn(len(kinds))
		// Each side of the address space walks: mostly the same or the
		// next line, sometimes a jump within a footprint larger than L3.
		walk := func(a, base uint64) uint64 {
			switch r := rng.Intn(20); {
			case r < 14:
				return a&^63 | uint64(rng.Intn(8))*8
			case r < 18:
				return a + 64
			default:
				return base + uint64(rng.Intn(48<<10))&^7
			}
		}
		var addr uint64
		if kinds[k] == KindInst {
			code = walk(code, 0x400000)
			addr = code
		} else {
			data = walk(data, 0x100000)
			addr = data
		}

		var want Result
		var got uint64
		hit := false
		switch kinds[k] {
		case KindLoad:
			want = ref.AccessLoad(now, addr)
			if hit = fast.L1D.ReadyHit(now, addr, false, true); hit {
				got = l1dLat
			} else {
				got = fast.AccessLoad(now, addr).Latency
			}
		case KindLoadFP:
			want = ref.AccessLoadFP(now, addr)
			if hit = fast.L2.ReadyHit(now, addr, false, true); hit {
				got = l2Lat
			} else {
				got = fast.AccessLoadFP(now, addr).Latency
			}
		case KindStore:
			want = ref.AccessStore(now, addr)
			if hit = fast.L1D.ReadyHit(now, addr, true, true); hit {
				got = l1dLat
			} else {
				got = fast.AccessStore(now, addr).Latency
			}
		case KindPrefetch:
			want = ref.AccessPrefetch(now, addr)
			if hit = fast.L1D.ReadyHit(now, addr, false, false); hit {
				fast.PrefetchesIssued++
			} else {
				got = fast.AccessPrefetch(now, addr).Latency
			}
		case KindInst:
			want = ref.AccessInst(now, addr)
			if hit = fast.L1I.ReadyHit(now, addr, false, true); hit {
				got = l1iLat
			} else {
				got = fast.AccessInst(now, addr).Latency
			}
		}
		if hit {
			took[k]++
			// A ready hit is served by the first level it probes.
			first := LevelL1
			if kinds[k] == KindLoadFP {
				first = LevelL2
			}
			if want.Level != first {
				t.Fatalf("access %d (%s %#x at %d): ReadyHit took it, full path served it from %s",
					i, names[k], addr, now, want.Level)
			}
		} else {
			declined[k]++
		}
		if got != want.Latency {
			t.Fatalf("access %d (%s %#x at %d, ready hit %v): latency %d, full path %d",
				i, names[k], addr, now, hit, got, want.Latency)
		}
		// Half the time the next access waits for this one, as a
		// dependent use does, so fills complete as well as pile up.
		if rng.Intn(2) == 0 {
			now += want.Latency
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("access %d (%s %#x at %d, ready hit %v): hierarchies diverged:\n fast %+v\n full %+v",
				i, names[k], addr, now, hit, fast.Stats(), ref.Stats())
		}
	}

	for k := range kinds {
		if took[k] == 0 || declined[k] == 0 {
			t.Errorf("%s: %d ready hits, %d fallbacks; the stream must exercise both", names[k], took[k], declined[k])
		}
	}
	// The cases ReadyHit must decline: a demand touch of a prefetched
	// line, a hit on an in-flight fill; and the write hits it must mark.
	s := ref.Stats()
	if s.L1D.PfUseful+s.L2.PfUseful == 0 || s.L1D.PfLate+s.L2.PfLate == 0 || s.L1D.LatePfHits+s.L1I.LatePfHits == 0 {
		t.Errorf("stream missed prefetch or in-flight cases: %+v", s)
	}
	if s.L1D.Writebacks+s.L2.Writebacks == 0 {
		t.Errorf("no dirty line was ever evicted; write hits went unchecked: %+v", s)
	}
	t.Logf("ready hits %v, fallbacks %v", took, declined)
}

// TestReadyHitDeclines pins what ReadyHit takes on its own terms, since
// the full path starts with it too: only the set's memo way, only a valid
// line whose fill has completed, and for a demand access only a line with
// no prefetch mark. A taken hit does the hit bookkeeping — statistics, the
// LRU stamp, the dirty bit on a store — and a declined one changes nothing.
func TestReadyHitDeclines(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 256, LineSize: 64, Assoc: 2, HitLat: 1}) // 2 sets
	c.Fill(0x000, 10, false, false)                                                     // set 0, way 0: fill in flight until 10
	c.Fill(0x080, 0, false, true)                                                       // set 0, way 1: prefetched, ready; the memo
	lineOf := func(addr uint64) *cacheLine { return &c.lines[c.lookup(addr)] }

	type step struct {
		what          string
		now, addr     uint64
		write, demand bool
		want          bool
		accs, hits    uint64 // the cache's counts after the step
	}
	for i, s := range []step{
		{"demand touch of a prefetched line", 5, 0x080, false, true, false, 0, 0},
		{"lfetch of a prefetched line", 5, 0x080, false, false, true, 1, 1},
		{"valid line outside the memo way", 5, 0x000, false, true, false, 1, 1},
		{"tag that is not resident", 5, 0x100, false, true, false, 1, 1},
	} {
		tick := c.useTick
		lines := append([]cacheLine(nil), c.lines...)
		if got := c.ReadyHit(s.now, s.addr, s.write, s.demand); got != s.want {
			t.Fatalf("step %d (%s): ReadyHit = %v, want %v", i, s.what, got, s.want)
		}
		if c.Stats.Accesses != s.accs || c.Stats.Hits != s.hits {
			t.Fatalf("step %d (%s): accesses %d hits %d, want %d %d", i, s.what, c.Stats.Accesses, c.Stats.Hits, s.accs, s.hits)
		}
		if !s.want {
			if c.useTick != tick || !reflect.DeepEqual(c.lines, lines) {
				t.Fatalf("step %d (%s): a declined ReadyHit changed the cache", i, s.what)
			}
			continue
		}
		l := lineOf(s.addr)
		if c.useTick != tick+1 || l.meta>>metaUseShift != c.useTick {
			t.Fatalf("step %d (%s): LRU stamp %d, tick %d (was %d)", i, s.what, l.meta>>metaUseShift, c.useTick, tick)
		}
		if l.meta&flagDirty != 0 || l.meta&flagPf == 0 {
			t.Fatalf("step %d (%s): meta %#x, want clean and still prefetch-marked", i, s.what, l.meta)
		}
	}

	// The full path moves the memo to way 0 and waits on its fill.
	if hit, ready := c.Access(5, 0x000, false); !hit || ready != 10 {
		t.Fatalf("Access = %v %d, want a hit ready at 10", hit, ready)
	}
	if c.ReadyHit(9, 0x000, false, true) {
		t.Fatal("ReadyHit took a line whose fill completes at 10 at cycle 9")
	}
	if !c.ReadyHit(10, 0x000, true, true) {
		t.Fatal("ReadyHit declined the memo line once its fill completed")
	}
	if l := lineOf(0x000); l.meta&flagDirty == 0 || l.meta>>metaUseShift != c.useTick {
		t.Fatalf("store hit left meta %#x (tick %d): want dirty and stamped", l.meta, c.useTick)
	}
}
