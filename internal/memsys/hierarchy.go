package memsys

// Level identifies which level of the hierarchy satisfied an access.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "MEM"
	}
	return "?"
}

// AccessKind distinguishes the hierarchy's clients. Floating-point loads
// bypass L1D on Itanium 2 and do so here as well; that asymmetry is why the
// paper aligns small integer prefetch strides to the L1D line size "not for
// FP operations since they bypass L1 cache".
type AccessKind uint8

const (
	KindLoad     AccessKind = iota // integer load
	KindLoadFP                     // floating-point load (bypasses L1D)
	KindStore                      // integer or FP store
	KindPrefetch                   // lfetch: non-blocking, non-faulting
	KindInst                       // instruction fetch (L1I then L2)
)

// Result reports the outcome of one access.
type Result struct {
	Latency uint64 // cycles until the value is usable
	Level   Level  // level that supplied the line
	Dropped bool   // prefetch discarded (MSHRs full)
}

// HierarchyConfig sizes the full memory system. The defaults model the
// paper's 900 MHz Itanium 2 zx6000 (DESIGN.md §1).
type HierarchyConfig struct {
	L1D CacheConfig
	L1I CacheConfig
	L2  CacheConfig
	L3  CacheConfig

	MemLatency   int // cycles from L3 miss to data return, before queueing
	BusOccupancy int // cycles the memory bus is held per line transfer
	MSHRs        int // maximum in-flight misses to memory
}

// DefaultConfig returns the Itanium-2-like geometry used throughout the
// reproduction.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:          CacheConfig{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 4, HitLat: 1},
		L1I:          CacheConfig{Name: "L1I", Size: 16 << 10, LineSize: 64, Assoc: 4, HitLat: 0},
		L2:           CacheConfig{Name: "L2", Size: 256 << 10, LineSize: 128, Assoc: 8, HitLat: 6},
		L3:           CacheConfig{Name: "L3", Size: 1536 << 10, LineSize: 128, Assoc: 12, HitLat: 14},
		MemLatency:   160,
		BusOccupancy: 16,
		MSHRs:        16,
	}
}

// Hierarchy ties the cache levels to the bus and MSHR models.
type Hierarchy struct {
	cfg HierarchyConfig
	L1D *Cache
	L1I *Cache
	L2  *Cache
	L3  *Cache

	// Hit latencies hoisted out of cfg: the hot access paths read these
	// once per access, and a flat uint64 field load beats chasing into the
	// nested config structs.
	l1dLat uint64
	l1iLat uint64
	l2Lat  uint64
	l3Lat  uint64

	busNextFree uint64
	// MSHR model: a fixed-capacity ring of per-miss completion times,
	// ordered oldest-first. memFetch start times never decrease (the
	// clock and busNextFree are both monotone), so completions are
	// pushed in non-decreasing order and the ring is a sorted queue:
	// pruning pops expired entries from the head (amortized O(1)) and
	// the earliest completion — what a blocked demand miss waits for —
	// is the head, replacing the full-slice scans this bookkeeping
	// started with.
	inflight []uint64 // ring storage, len = max(1, cfg.MSHRs)
	infHead  int
	infCount int

	// Aggregate statistics beyond the per-cache counters.
	DroppedPrefetches uint64
	PrefetchesIssued  uint64 // lfetch accesses presented to the hierarchy
	MemAccesses       uint64
	BusWaitCycles     uint64
	MSHRWaitCycles    uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	slots := cfg.MSHRs
	if slots < 1 {
		slots = 1
	}
	return &Hierarchy{
		cfg:      cfg,
		L1D:      NewCache(cfg.L1D),
		L1I:      NewCache(cfg.L1I),
		L2:       NewCache(cfg.L2),
		L3:       NewCache(cfg.L3),
		l1dLat:   uint64(cfg.L1D.HitLat),
		l1iLat:   uint64(cfg.L1I.HitLat),
		l2Lat:    uint64(cfg.L2.HitLat),
		l3Lat:    uint64(cfg.L3.HitLat),
		inflight: make([]uint64, slots),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// pruneInflight drops completed MSHR entries: entries are ordered by
// completion time, so popping from the head until it is in the future is
// exact.
func (h *Hierarchy) pruneInflight(now uint64) {
	for h.infCount > 0 && h.inflight[h.infHead] <= now {
		h.infHead++
		if h.infHead == len(h.inflight) {
			h.infHead = 0
		}
		h.infCount--
	}
}

// addInflight records a new in-flight miss. Completion times are monotone
// in practice (see the ring comment); the backward walk keeps the ring
// sorted even if a future change breaks that, at a cost bounded by the
// MSHR count.
func (h *Hierarchy) addInflight(readyAt uint64) {
	n := len(h.inflight)
	j := h.infCount
	for j > 0 {
		p := h.infHead + j - 1
		if p >= n {
			p -= n
		}
		if h.inflight[p] <= readyAt {
			break
		}
		q := p + 1
		if q >= n {
			q -= n
		}
		h.inflight[q] = h.inflight[p]
		j--
	}
	q := h.infHead + j
	if q >= n {
		q -= n
	}
	h.inflight[q] = readyAt
	h.infCount++
}

// reserveMSHR acquires an in-flight slot at time now. When the file is
// full: demand accesses wait for the earliest completion (the returned
// delay), prefetches report failure and are dropped by the caller.
func (h *Hierarchy) reserveMSHR(now uint64, isPrefetch bool) (delay uint64, ok bool) {
	h.pruneInflight(now)
	if h.infCount < h.cfg.MSHRs {
		return 0, true
	}
	if isPrefetch {
		return 0, false
	}
	earliest := h.inflight[h.infHead]
	delay = earliest - now
	h.MSHRWaitCycles += delay
	h.pruneInflight(now + delay)
	return delay, true
}

// memFetch models an access that has missed L3: it queues on the bus,
// occupies it for one line transfer, and completes MemLatency cycles after
// the transfer starts.
func (h *Hierarchy) memFetch(now uint64) (readyAt uint64) {
	h.MemAccesses++
	start := max64(now, h.busNextFree)
	h.BusWaitCycles += start - now
	h.busNextFree = start + uint64(h.cfg.BusOccupancy)
	return start + uint64(h.cfg.MemLatency)
}

// Access runs one data access through the hierarchy at time now and
// returns its timing. The functional value transfer happens elsewhere
// (Memory); Access only moves lines and accounts cycles.
//
// It is a dispatcher over the per-kind entry points below. The CPU's hot
// paths call those directly — with the kind fixed at the call site the
// dispatch is dead weight on every simulated access — but kind-driven
// callers (tests, tools replaying traces) keep this single front door.
func (h *Hierarchy) Access(now uint64, addr uint64, kind AccessKind) Result {
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
	return h.accessDataMiss(now, addr, kind) // KindLoadFP: straight to L2
}

// AccessLoad resolves an integer load: L1D first, then the shared miss
// path. The L1D hit — the most frequent data outcome — returns straight
// from the first probe.
func (h *Hierarchy) AccessLoad(now uint64, addr uint64) Result {
	if hit, ready := h.L1D.Access(now, addr, false); hit {
		lat := h.l1dLat
		if d := saturatingSub(ready, now); d > lat {
			lat = d
		}
		return Result{Latency: lat, Level: LevelL1}
	}
	return h.accessDataMiss(now, addr, KindLoad)
}

// AccessStore resolves an integer or FP store. Write-allocate: a miss
// pulls the line in through the same path as a load, marked dirty.
func (h *Hierarchy) AccessStore(now uint64, addr uint64) Result {
	if hit, ready := h.L1D.Access(now, addr, true); hit {
		lat := h.l1dLat
		if d := saturatingSub(ready, now); d > lat {
			lat = d
		}
		return Result{Latency: lat, Level: LevelL1}
	}
	return h.accessDataMiss(now, addr, KindStore)
}

// accessDataMiss resolves a demand data access past L1D: the L2/L3/memory
// portion of Access, shared by L1D misses and L1D-bypassing FP loads.
func (h *Hierarchy) accessDataMiss(now uint64, addr uint64, kind AccessKind) Result {
	isWrite := kind == KindStore
	if hit, ready := h.L2.Access(now, addr, isWrite); hit {
		lat := max64(h.l2Lat, saturatingSub(ready, now))
		if kind != KindLoadFP {
			h.L1D.Fill(addr, now+lat, isWrite, false)
		}
		return Result{Latency: lat, Level: LevelL2}
	}
	if hit, ready := h.L3.Access(now, addr, isWrite); hit {
		lat := max64(h.l3Lat, saturatingSub(ready, now))
		h.L2.Fill(addr, now+lat, false, false)
		if kind != KindLoadFP {
			h.L1D.Fill(addr, now+lat, isWrite, false)
		}
		return Result{Latency: lat, Level: LevelL3}
	}

	// Full miss: MSHR + bus + memory.
	delay, _ := h.reserveMSHR(now, false)
	ready := h.memFetch(now + delay)
	h.addInflight(ready)
	lat := ready - now
	if evicted := h.L3.Fill(addr, ready, false, false); evicted {
		h.busNextFree += uint64(h.cfg.BusOccupancy)
	}
	h.L2.Fill(addr, ready, false, false)
	if kind != KindLoadFP {
		h.L1D.Fill(addr, ready, isWrite, false)
	}
	return Result{Latency: lat, Level: LevelMem}
}

// AccessPrefetch implements lfetch: it never stalls the issuing thread
// (Latency is always 0) and is dropped when the MSHR file is full, like
// hardware. The line is installed at all levels with its fill-completion
// time so that later demand accesses wait only for the remaining portion.
func (h *Hierarchy) AccessPrefetch(now uint64, addr uint64) Result {
	h.PrefetchesIssued++
	if hit, _ := h.L1D.accessPf(now, addr); hit {
		return Result{Latency: 0, Level: LevelL1}
	}
	if hit, ready := h.L2.accessPf(now, addr); hit {
		h.L1D.Fill(addr, max64(ready, now+h.l2Lat), false, true)
		return Result{Latency: 0, Level: LevelL2}
	}
	if hit, ready := h.L3.accessPf(now, addr); hit {
		at := max64(ready, now+h.l3Lat)
		h.L2.Fill(addr, at, false, true)
		h.L1D.Fill(addr, at, false, true)
		return Result{Latency: 0, Level: LevelL3}
	}
	_, ok := h.reserveMSHR(now, true)
	if !ok {
		h.DroppedPrefetches++
		return Result{Latency: 0, Level: LevelMem, Dropped: true}
	}
	ready := h.memFetch(now)
	h.addInflight(ready)
	if evicted := h.L3.Fill(addr, ready, false, true); evicted {
		h.busNextFree += uint64(h.cfg.BusOccupancy)
	}
	h.L2.Fill(addr, ready, false, true)
	h.L1D.Fill(addr, ready, false, true)
	return Result{Latency: 0, Level: LevelMem}
}

// AccessInst fetches an instruction line through L1I, then L2/L3/memory.
// Returned latency is the front-end bubble charged to the fetch. The CPU
// calls this once per I-line transition — after the data side, the
// highest-frequency entry into the hierarchy.
func (h *Hierarchy) AccessInst(now uint64, addr uint64) Result {
	if hit, ready := h.L1I.Access(now, addr, false); hit {
		return Result{Latency: max64(h.l1iLat, saturatingSub(ready, now)), Level: LevelL1}
	}
	if hit, ready := h.L2.Access(now, addr, false); hit {
		lat := max64(h.l2Lat, saturatingSub(ready, now))
		h.L1I.Fill(addr, now+lat, false, false)
		return Result{Latency: lat, Level: LevelL2}
	}
	if hit, ready := h.L3.Access(now, addr, false); hit {
		lat := max64(h.l3Lat, saturatingSub(ready, now))
		h.L2.Fill(addr, now+lat, false, false)
		h.L1I.Fill(addr, now+lat, false, false)
		return Result{Latency: lat, Level: LevelL3}
	}
	delay, _ := h.reserveMSHR(now, false)
	ready := h.memFetch(now + delay)
	h.addInflight(ready)
	// A dirty L3 victim occupies the bus for its writeback, exactly as on
	// the demand-data (Access) and prefetch (accessPrefetch) full-miss
	// paths; I-side misses used to skip this charge.
	if evicted := h.L3.Fill(addr, ready, false, false); evicted {
		h.busNextFree += uint64(h.cfg.BusOccupancy)
	}
	h.L2.Fill(addr, ready, false, false)
	h.L1I.Fill(addr, ready, false, false)
	return Result{Latency: ready - now, Level: LevelMem}
}

// PrefetchStats is the aggregate usefulness view the controller samples
// once per profile window for the observability counter track.
type PrefetchStats struct {
	Issued        uint64 // lfetches presented to the hierarchy
	Useful        uint64 // first demand touch found the fill complete
	Late          uint64 // first demand touch waited on an in-flight fill
	EvictedUnused uint64 // prefetched lines evicted before any demand touch
}

// Prefetch returns the usefulness counters aggregated over L1D and L2 —
// the levels lfetch installs into for integer and FP streams respectively.
// A line can be counted at both levels (it exists in both), so the split
// is indicative, not an exact partition of Issued.
func (h *Hierarchy) Prefetch() PrefetchStats { return h.Stats().Prefetch() }

// HierarchyStats is the counter state of a hierarchy: every per-level
// CacheStats plus the aggregate bus, MSHR and prefetch counters, without
// the line arrays. It is what a finished run keeps of its memory system.
type HierarchyStats struct {
	L1D, L1I, L2, L3 CacheStats

	PrefetchesIssued  uint64
	DroppedPrefetches uint64
	MemAccesses       uint64
	BusWaitCycles     uint64
	MSHRWaitCycles    uint64
}

// Stats returns a copy of the hierarchy's counters.
func (h *Hierarchy) Stats() HierarchyStats {
	return HierarchyStats{
		L1D:               h.L1D.Stats,
		L1I:               h.L1I.Stats,
		L2:                h.L2.Stats,
		L3:                h.L3.Stats,
		PrefetchesIssued:  h.PrefetchesIssued,
		DroppedPrefetches: h.DroppedPrefetches,
		MemAccesses:       h.MemAccesses,
		BusWaitCycles:     h.BusWaitCycles,
		MSHRWaitCycles:    h.MSHRWaitCycles,
	}
}

// Prefetch is Hierarchy.Prefetch over the recorded counters.
func (s HierarchyStats) Prefetch() PrefetchStats {
	return PrefetchStats{
		Issued:        s.PrefetchesIssued,
		Useful:        s.L1D.PfUseful + s.L2.PfUseful,
		Late:          s.L1D.PfLate + s.L2.PfLate,
		EvictedUnused: s.L1D.PfUnused + s.L2.PfUnused,
	}
}

// Sub returns s - prev per counter (per-window deltas).
func (s PrefetchStats) Sub(prev PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Issued:        s.Issued - prev.Issued,
		Useful:        s.Useful - prev.Useful,
		Late:          s.Late - prev.Late,
		EvictedUnused: s.EvictedUnused - prev.EvictedUnused,
	}
}

// Reset clears all cache contents and statistics.
func (h *Hierarchy) Reset() {
	h.L1D.Reset()
	h.L1I.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.busNextFree = 0
	h.infHead = 0
	h.infCount = 0
	h.DroppedPrefetches = 0
	h.PrefetchesIssued = 0
	h.MemAccesses = 0
	h.BusWaitCycles = 0
	h.MSHRWaitCycles = 0
}

func saturatingSub(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return 0
}
