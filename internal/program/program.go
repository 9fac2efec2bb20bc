// Package program defines the executable image the simulated CPU runs: a
// code space made of bundle-addressed segments (the static code plus the
// trace pool ADORE allocates at runtime), a data initializer, symbols, and
// the compiler's loop metadata used by the profile-guided prefetching
// experiment.
package program

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/memsys"
)

// Segment is one contiguous region of code.
type Segment struct {
	Name    string
	Base    uint64
	Bundles []isa.Bundle
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 {
	return s.Base + uint64(len(s.Bundles))*isa.BundleBytes
}

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint64) bool {
	return addr >= s.Base && addr < s.End()
}

// ChangeHook observes mutations to a code space: bundles [first, first+n)
// of seg were just (re)written, or seg was newly registered (first = 0,
// n = len(seg.Bundles)). The CPU's predecoded code image subscribes so
// runtime patching — ADORE's entry-bundle rewrites and trace-pool installs
// — updates its direct-indexed slab in place instead of invalidating it.
type ChangeHook func(seg *Segment, first, n int)

// CodeSpace is the set of code segments visible to the CPU. Bundles are
// mutable: ADORE patches them at runtime exactly as it rewrites the text
// segment of a live process in the paper. All mutations must go through
// Write or WriteBundles so registered ChangeHooks observe them.
type CodeSpace struct {
	segs  []*Segment // sorted by Base
	last  *Segment   // one-entry fetch cache
	hooks []ChangeHook
}

// NewCodeSpace returns an empty code space.
func NewCodeSpace() *CodeSpace { return &CodeSpace{} }

// OnChange registers h to observe every subsequent segment registration
// and bundle write.
func (cs *CodeSpace) OnChange(h ChangeHook) { cs.hooks = append(cs.hooks, h) }

func (cs *CodeSpace) notify(seg *Segment, first, n int) {
	for _, h := range cs.hooks {
		h(seg, first, n)
	}
}

// AddSegment registers a segment. Segments must not overlap.
func (cs *CodeSpace) AddSegment(seg *Segment) error {
	if seg.Base%isa.BundleBytes != 0 {
		return fmt.Errorf("program: segment %q base %#x not bundle-aligned", seg.Name, seg.Base)
	}
	for _, s := range cs.segs {
		if seg.Base < s.End() && s.Base < seg.End() {
			return fmt.Errorf("program: segment %q overlaps %q", seg.Name, s.Name)
		}
	}
	cs.segs = append(cs.segs, seg)
	sort.Slice(cs.segs, func(i, j int) bool { return cs.segs[i].Base < cs.segs[j].Base })
	cs.last = nil
	cs.notify(seg, 0, len(seg.Bundles))
	return nil
}

// SegmentAt returns the segment containing addr.
func (cs *CodeSpace) SegmentAt(addr uint64) (*Segment, bool) {
	if cs.last != nil && cs.last.Contains(addr) {
		return cs.last, true
	}
	for _, s := range cs.segs {
		if s.Contains(addr) {
			cs.last = s
			return s, true
		}
	}
	return nil, false
}

// Fetch returns a pointer to the bundle at addr (which may carry a slot
// offset in its low 4 bits; those are masked off).
func (cs *CodeSpace) Fetch(addr uint64) (*isa.Bundle, bool) {
	addr &^= isa.BundleBytes - 1
	s, ok := cs.SegmentAt(addr)
	if !ok {
		return nil, false
	}
	return &s.Bundles[(addr-s.Base)/isa.BundleBytes], true
}

// Write replaces the bundle at addr. This is the patching primitive.
func (cs *CodeSpace) Write(addr uint64, b isa.Bundle) error {
	addr &^= isa.BundleBytes - 1
	s, ok := cs.SegmentAt(addr)
	if !ok {
		return fmt.Errorf("program: write to unmapped code address %#x", addr)
	}
	i := int((addr - s.Base) / isa.BundleBytes)
	s.Bundles[i] = b
	cs.notify(s, i, 1)
	return nil
}

// WriteBundles replaces len(bs) consecutive bundles starting at addr — the
// bulk form of Write the trace pool uses to install a finished trace, so
// ChangeHooks see one notification instead of one per bundle.
func (cs *CodeSpace) WriteBundles(addr uint64, bs []isa.Bundle) error {
	addr &^= isa.BundleBytes - 1
	s, ok := cs.SegmentAt(addr)
	if !ok {
		return fmt.Errorf("program: write to unmapped code address %#x", addr)
	}
	i := int((addr - s.Base) / isa.BundleBytes)
	if i+len(bs) > len(s.Bundles) {
		return fmt.Errorf("program: write of %d bundles at %#x overruns segment %q", len(bs), addr, s.Name)
	}
	copy(s.Bundles[i:], bs)
	cs.notify(s, i, len(bs))
	return nil
}

// Segments returns the registered segments in address order.
func (cs *CodeSpace) Segments() []*Segment { return cs.segs }

// LoopInfo is compiler metadata about one innermost loop: where it lives
// and whether the static prefetcher scheduled prefetches for it. The
// profile-guided experiment (Table 1) maps sampled miss PCs back to loops
// through this table.
type LoopInfo struct {
	ID        int
	Name      string
	Head      uint64 // loop header bundle address
	BodyStart uint64
	BodyEnd   uint64 // first address past the loop body
	// Prefetchable marks loops the static prefetch algorithm would
	// consider (affine array references with known strides).
	Prefetchable bool
	// Prefetched marks loops for which the compiler emitted lfetch.
	Prefetched bool
}

// Contains reports whether pc falls inside the loop body.
func (l *LoopInfo) Contains(pc uint64) bool {
	return pc >= l.BodyStart && pc < l.BodyEnd
}

// Image is one loadable program.
type Image struct {
	Name    string
	Entry   uint64
	Code    *Segment
	Symbols map[string]uint64
	Loops   []LoopInfo

	// InitData populates simulated data memory before execution. It may
	// be nil for pure register kernels. Set it before the first NewMemory
	// call: NewMemory runs it once and every later run forks that result,
	// so a later change to InitData is never seen.
	InitData func(m *memsys.Memory)

	// BundleCount at build time; used for the normalized-binary-size
	// column of Table 1.
	BundleCount int

	// The initialized data memory, built once by NewMemory and sealed.
	// Images are always handled by pointer, so the Once is never copied.
	dataOnce sync.Once
	data     *memsys.Memory
}

// NewImage wraps assembled code into an image.
func NewImage(name string, code *Segment, entry uint64) *Image {
	return &Image{
		Name:        name,
		Entry:       entry,
		Code:        code,
		Symbols:     make(map[string]uint64),
		BundleCount: len(code.Bundles),
	}
}

// NewMemory returns a private data memory holding the image's initial data.
// The first call runs InitData (if any) into a fresh memory and seals it;
// every call returns a copy-on-write Fork of that sealed memory, so runs
// share the pages they only read and copy a page the first time they write
// it. Safe for concurrent use: a sealed memory may be forked by any number
// of goroutines. The sealed memory lives as long as the image.
func (im *Image) NewMemory() *memsys.Memory {
	im.dataOnce.Do(func() {
		m := memsys.NewMemory()
		if im.InitData != nil {
			im.InitData(m)
		}
		im.data = m.Fork() // Fork leaves its result sealed
	})
	return im.data.Fork()
}

// LoopAt returns the loop whose body contains pc.
func (im *Image) LoopAt(pc uint64) (*LoopInfo, bool) {
	for i := range im.Loops {
		if im.Loops[i].Contains(pc) {
			return &im.Loops[i], true
		}
	}
	return nil, false
}

// Listing disassembles a code segment for debugging and golden tests.
func Listing(seg *Segment) string {
	var b strings.Builder
	for i := range seg.Bundles {
		addr := seg.Base + uint64(i)*isa.BundleBytes
		fmt.Fprintf(&b, "%#06x  %s\n", addr, seg.Bundles[i].String())
	}
	return b.String()
}
