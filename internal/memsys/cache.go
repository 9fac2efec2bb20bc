package memsys

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name     string
	Size     int // total bytes; must be Assoc * LineSize * power-of-two sets
	LineSize int // bytes per line; power of two
	Assoc    int // ways per set
	HitLat   int // cycles to return a hit from this level
}

// Per-line flag bits, stored in the low byte of the packed meta word.
// pf marks a line installed by lfetch that no demand access has touched
// yet — the bit behind the prefetch-usefulness counters.
const (
	flagValid uint64 = 1 << iota
	flagDirty
	flagPf
	flagMask uint64 = (1 << metaUseShift) - 1
)

// metaUseShift splits the meta word: bits [8,64) hold the LRU timestamp,
// bits [0,8) the flags. useTick would need 2^56 touches to overflow —
// thousands of years of simulation at current speeds.
const metaUseShift = 8

// CacheStats counts accesses per level.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Prefetches uint64 // fills initiated by lfetch
	LatePfHits uint64 // demand hits on a still-in-flight prefetch fill
	Writebacks uint64
	// Prefetch usefulness: where each prefetched line's first demand touch
	// found it — fill already complete (useful), fill still in flight
	// (late), or never touched before eviction (unused). Useful + Late +
	// Unused converges on Prefetches as lines age out.
	PfUseful uint64
	PfLate   uint64
	PfUnused uint64
}

// cacheLine is the bookkeeping state of one way. The three words a lookup
// needs sit in one 24-byte struct, so the common access touches one or
// two host cache lines; splitting them across parallel arrays (tried
// first) cost three to four potentially cold lines per simulated access,
// which dominated the profile once the simulated working set outgrew the
// host caches.
//
//   - tag: line tag (addr >> lineBits); stale while the way is invalid,
//     so every tag match must be confirmed against the meta valid bit.
//   - meta: useTick<<metaUseShift | flags. Invalid ways keep meta 0, the
//     smallest possible value, so the LRU victim compare needs no
//     separate valid branch beyond its early-out.
//   - ready: when an in-flight fill completes. A "hit" on a line still
//     being filled waits for it, which is how prefetch-too-late and miss
//     coalescing behave on real hardware.
type cacheLine struct {
	tag   uint64
	meta  uint64
	ready uint64
}

// Cache is one set-associative, write-back, write-allocate cache level.
// Lines are indexed set*assoc+way.
type Cache struct {
	cfg      CacheConfig
	numSets  int
	assoc    int // == cfg.Assoc, hoisted for the hot scans
	lineBits uint
	setMask  uint64
	useTick  uint64
	lines    []cacheLine
	// Per-set last-hit way memo: accesses that repeat a set's most recent
	// line (struct-field runs on the data side, the alternating pair of
	// I-lines of a straddling loop on the instruction side) are ReadyHit's
	// and skip the way scan. Purely a prediction — it is validated against
	// the indexed tag+valid state before use, so Fill need not clear it,
	// and it never changes hit/miss outcomes, LRU updates or statistics.
	lastWay []uint8
	// Victim hint: every hierarchy fill is preceded by the missing access
	// that triggered it, and that access's way scan already saw every
	// way's meta word. The scan stashes the victim Fill would choose;
	// Fill consumes it only when nothing touched this cache in between
	// (the tick matches) and the set matches, so out-of-band fills — tests
	// driving Fill directly — still take the full scan and pick the same
	// way they always did.
	victimIdx  int
	victimBase int
	victimTick uint64
	Stats      CacheStats
}

// NewCache builds a cache from cfg. It panics on non-power-of-two or
// inconsistent geometry: configurations are static, so this is a
// programming error, not a runtime condition.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("memsys: %s line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.Assoc <= 0 || cfg.Size%(cfg.LineSize*cfg.Assoc) != 0 {
		panic(fmt.Sprintf("memsys: %s geometry %d/%d/%d inconsistent", cfg.Name, cfg.Size, cfg.LineSize, cfg.Assoc))
	}
	numSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("memsys: %s set count %d not a power of two", cfg.Name, numSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	return &Cache{
		cfg:        cfg,
		numSets:    numSets,
		assoc:      cfg.Assoc,
		lineBits:   lineBits,
		setMask:    uint64(numSets - 1),
		lines:      make([]cacheLine, numSets*cfg.Assoc),
		lastWay:    make([]uint8, numSets),
		victimTick: ^uint64(0), // no hint until the first missing access
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// lookup finds addr's line, returning its slot index or -1. An invalid
// way's stale tag may match (a freshly reset cache has tag 0 everywhere),
// so a match counts only with the valid bit set — and the scan continues
// past it rather than breaking, since the real line may sit in a later
// way. Cold-path variant (Probe); the hot path is the fused
// scan in access.
func (c *Cache) lookup(addr uint64) int {
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]
	for w := range set {
		if set[w].tag == tag && set[w].meta&flagValid != 0 {
			return base + w
		}
	}
	return -1
}

// Probe reports whether addr is resident (valid, fill possibly still in
// flight) without touching LRU state or statistics.
func (c *Cache) Probe(addr uint64) bool { return c.lookup(addr) != -1 }

// Access looks up addr at time now. On a hit it returns (true, readyAt):
// readyAt <= now means the data is available immediately; a later readyAt
// means the line is still being filled (the caller waits). On a miss it
// returns (false, 0); the caller must Fill the line after resolving the
// next level. Stores mark the line dirty.
func (c *Cache) Access(now uint64, addr uint64, isWrite bool) (hit bool, readyAt uint64) {
	return c.access(now, addr, isWrite, true)
}

// accessPf is the lookup lfetch uses: identical timing, but it does not
// consume a line's pf bit — only demand accesses decide usefulness.
func (c *Cache) accessPf(now uint64, addr uint64) (hit bool, readyAt uint64) {
	return c.access(now, addr, false, false)
}

// ReadyHit is the front of every access: when the set's memo way (the
// lastWay entry) holds addr's valid line, its fill has completed by now
// and — for a demand access — no prefetch mark waits to be consumed, it
// performs the access as a hit and reports true. That outcome is the
// level's hit latency and nothing else, so a caller that needs only the
// latency (the CPU's fetch, load, store and lfetch paths) is done. Any
// other case changes nothing and reports false; the caller then takes the
// full path (access), which starts with the same two steps.
func (c *Cache) ReadyHit(now uint64, addr uint64, isWrite, demand bool) bool {
	tag := addr >> c.lineBits
	l := c.readyMemo(now, tag, int(tag&c.setMask), demand)
	if l == nil {
		return false
	}
	c.readyHit(l, isWrite)
	return true
}

// readyMemo returns the line ReadyHit takes for an access to tag in set,
// or nil. It and readyHit are small enough to inline, so access starts
// with ReadyHit's logic without a call.
func (c *Cache) readyMemo(now, tag uint64, set int, demand bool) *cacheLine {
	l := &c.lines[set*c.assoc+int(c.lastWay[set])]
	if l.tag != tag || l.meta&flagValid == 0 || l.ready > now || (demand && l.meta&flagPf != 0) {
		return nil
	}
	return l
}

// readyHit does a ready memo hit's bookkeeping on l: the access and hit
// counts, the LRU stamp, and the dirty bit on a store.
func (c *Cache) readyHit(l *cacheLine, isWrite bool) {
	c.Stats.Accesses++
	c.Stats.Hits++
	c.useTick++
	f := l.meta & flagMask
	if isWrite {
		f |= flagDirty
	}
	l.meta = c.useTick<<metaUseShift | f
}

func (c *Cache) access(now uint64, addr uint64, isWrite, demand bool) (hit bool, readyAt uint64) {
	tag := addr >> c.lineBits
	set := int(tag & c.setMask)
	if l := c.readyMemo(now, tag, set, demand); l != nil {
		c.readyHit(l, isWrite)
		return true, l.ready
	}
	c.Stats.Accesses++
	c.useTick++
	base := set * c.assoc
	// ReadyHit declined the memo way, so scan the ways (fused here rather
	// than calling lookup). addr's line may still be the memo's, with a
	// fill in flight or a prefetch mark to consume; the scan finds it
	// there like in any other way.
	var l *cacheLine
	ways := c.lines[base : base+c.assoc]
	// The scan doubles as Fill's victim selection (see the victim hint
	// fields): first invalid way, else least-recently-used. Ways past the
	// first invalid one are skipped exactly as Fill's scan breaks there.
	victim, bestUse := 0, ^uint64(0)
	invalidFound := false
	for w := range ways {
		m := ways[w].meta
		if ways[w].tag == tag && m&flagValid != 0 {
			c.lastWay[set] = uint8(w)
			l = &ways[w]
			break
		}
		if !invalidFound {
			if m&flagValid == 0 {
				invalidFound = true
				victim = w
			} else if m>>metaUseShift < bestUse {
				victim = w
				bestUse = m >> metaUseShift
			}
		}
	}
	if l == nil {
		c.Stats.Misses++
		c.victimIdx = victim
		c.victimBase = base
		c.victimTick = c.useTick
		return false, 0
	}
	f := l.meta & flagMask
	if isWrite {
		f |= flagDirty
	}
	c.Stats.Hits++
	ready := l.ready
	if ready > now {
		c.Stats.LatePfHits++
	}
	if demand && f&flagPf != 0 {
		f &^= flagPf
		if ready > now {
			c.Stats.PfLate++
		} else {
			c.Stats.PfUseful++
		}
	}
	l.meta = c.useTick<<metaUseShift | f
	return true, ready
}

// Fill installs addr's line with the given fill-completion time, evicting
// the LRU way. It reports whether a dirty line was evicted (write-back
// traffic the bus model charges for).
func (c *Cache) Fill(addr uint64, readyAt uint64, dirty bool, isPrefetch bool) (evictedDirty bool) {
	if isPrefetch {
		c.Stats.Prefetches++
	}
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.assoc
	var victim int
	if c.victimTick == c.useTick && c.victimBase == base {
		victim = c.victimIdx
	} else {
		bestUse := ^uint64(0) // useTick never reaches this, so way 0 always wins it
		ways := c.lines[base : base+c.assoc]
		for w := range ways {
			m := ways[w].meta
			if m&flagValid == 0 {
				victim = w
				break
			}
			if m>>metaUseShift < bestUse {
				victim = w
				bestUse = m >> metaUseShift
			}
		}
	}
	v := &c.lines[base+victim]
	evictedDirty = v.meta&(flagValid|flagDirty) == flagValid|flagDirty
	if evictedDirty {
		c.Stats.Writebacks++
	}
	if v.meta&(flagValid|flagPf) == flagValid|flagPf {
		c.Stats.PfUnused++
	}
	c.useTick++
	nf := flagValid
	if dirty {
		nf |= flagDirty
	}
	if isPrefetch {
		nf |= flagPf
	}
	v.tag = tag
	v.meta = c.useTick<<metaUseShift | nf
	v.ready = readyAt
	c.lastWay[int(tag&c.setMask)] = uint8(victim)
	return evictedDirty
}

// Reset clears all lines and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.lastWay)
	c.useTick = 0
	c.victimTick = ^uint64(0)
	c.Stats = CacheStats{}
}

// MissRatio returns misses/accesses, or 0 when idle.
func (s CacheStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}
