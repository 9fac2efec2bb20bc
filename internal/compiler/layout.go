package compiler

import (
	"repro/internal/memsys"
)

// DataBase is where the data segment starts in the simulated address space.
const DataBase uint64 = 0x1000_0000

// Layout assigns each array a base address, page-aligned to keep conflict
// behaviour deterministic across option sweeps.
type Layout struct {
	Base map[string]uint64
	End  uint64
}

// layoutArrays places arrays sequentially from DataBase.
func layoutArrays(arrays []Array) *Layout {
	l := &Layout{Base: make(map[string]uint64), End: DataBase}
	for _, a := range arrays {
		l.Base[a.Name] = l.End
		sz := uint64(a.Bytes())
		// Round up to 4 KiB and add a guard page so streams over one
		// array do not silently flow into the next.
		sz = (sz + 0xfff) &^ uint64(0xfff)
		l.End += sz + 0x1000
	}
	return l
}

// lcg is a small deterministic pseudo-random generator for chain shuffles.
type lcg struct{ s uint64 }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}

// initData returns the memory initializer for the kernel under the layout.
func initData(arrays []Array, l *Layout) func(m *memsys.Memory) {
	// Copy inputs so the closure is self-contained.
	as := make([]Array, len(arrays))
	copy(as, arrays)
	bases := make(map[string]uint64, len(l.Base))
	for k, v := range l.Base {
		bases[k] = v
	}
	return func(m *memsys.Memory) {
		for _, a := range as {
			base := bases[a.Name]
			switch a.Init.Kind {
			case InitZero:
				// memory reads as zero by default
			case InitLinear:
				for i := int64(0); i < a.N; i++ {
					v := i*a.Init.Mult + a.Init.Add
					if a.Init.Mod > 0 {
						v %= a.Init.Mod
						if v < 0 {
							v += a.Init.Mod
						}
					}
					if a.Float {
						m.WriteFloat(base+uint64(i)*uint64(a.Elem), float64(v))
					} else {
						m.WriteN(base+uint64(i)*uint64(a.Elem), a.Elem, uint64(v))
					}
				}
			case InitChain:
				buildChain(m, base, a.N, a.Init)
			case InitRandom:
				r := lcg{s: a.Init.Seed | 1}
				for i := int64(0); i < a.N; i++ {
					v := int64(r.next())
					if a.Init.Mod > 0 {
						v %= a.Init.Mod
					}
					if a.Float {
						m.WriteFloat(base+uint64(i)*uint64(a.Elem), float64(v))
					} else {
						m.WriteN(base+uint64(i)*uint64(a.Elem), a.Elem, uint64(v))
					}
				}
			}
		}
	}
}

// buildChain lays out n nodes of spec.NodeSize bytes and links them through
// the pointer at spec.NextOff. The visit order is sequential except that
// spec.ShufflePct percent of nodes are transposed pseudo-randomly, giving
// mostly-regular strides with occasional breaks — the structure for which
// the paper's induction-pointer prefetching works. The last node's pointer
// wraps to the first so the walk can repeat.
func buildChain(m *memsys.Memory, base uint64, n int64, spec InitSpec) {
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	if spec.ShufflePct > 0 {
		r := lcg{s: spec.Seed | 1}
		swaps := n * int64(spec.ShufflePct) / 100
		for s := int64(0); s < swaps; s++ {
			i := int64(r.next() % uint64(n))
			j := int64(r.next() % uint64(n))
			order[i], order[j] = order[j], order[i]
		}
	}
	addr := func(k int64) uint64 { return base + uint64(k)*uint64(spec.NodeSize) }
	for i := int64(0); i < n; i++ {
		next := order[(i+1)%n]
		m.Write64(addr(order[i])+uint64(spec.NextOff), addr(next))
		// The payload word holds a pointer to an unrelated node — the
		// arc->tail second pointer level of mcf-style structures, so a
		// dereference of the payload is itself a chasing miss.
		m.Write64(addr(order[i]), addr((order[i]*31+7)%n))
	}
}
