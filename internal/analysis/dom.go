package analysis

// Dominator tree and natural-loop discovery, per Cooper, Harvey & Kennedy's
// "A Simple, Fast Dominance Algorithm": iterate idom approximations over the
// reverse postorder until fixpoint. The graphs here are small (a segment or
// a trace), so the simple O(N^2)-worst-case scheme beats Lengauer-Tarjan in
// both code size and constant factor.

// DomTree holds immediate dominators per block. Unreachable blocks have
// Idom -1 and dominate nothing.
type DomTree struct {
	c    *CFG
	Idom []int // per block ID; entry's idom is itself, unreachable -1
	// Iterations counts fixpoint rounds, exposed for termination tests.
	Iterations int

	rpoIndex []int // block ID -> position in RPO (-1 if unreachable)
}

// Dominators computes the dominator tree of the reachable CFG.
func (c *CFG) Dominators() *DomTree {
	d := &DomTree{c: c, Idom: make([]int, len(c.Blocks)), rpoIndex: make([]int, len(c.Blocks))}
	for i := range d.Idom {
		d.Idom[i] = -1
		d.rpoIndex[i] = -1
	}
	if len(c.RPO) == 0 {
		return d
	}
	for i, id := range c.RPO {
		d.rpoIndex[id] = i
	}
	entry := c.RPO[0]
	d.Idom[entry] = entry
	for changed := true; changed; {
		changed = false
		d.Iterations++
		for _, id := range c.RPO[1:] {
			newIdom := -1
			for _, p := range c.Blocks[id].Preds {
				if d.Idom[p] == -1 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && d.Idom[id] != newIdom {
				d.Idom[id] = newIdom
				changed = true
			}
		}
	}
	return d
}

// intersect walks two blocks up the idom chain to their common ancestor.
func (d *DomTree) intersect(a, b int) int {
	for a != b {
		for d.rpoIndex[a] > d.rpoIndex[b] {
			a = d.Idom[a]
		}
		for d.rpoIndex[b] > d.rpoIndex[a] {
			b = d.Idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (reflexively).
func (d *DomTree) Dominates(a, b int) bool {
	if d.Idom[b] == -1 || d.Idom[a] == -1 {
		return false
	}
	entry := d.c.RPO[0]
	for {
		if b == a {
			return true
		}
		if b == entry {
			return a == entry
		}
		b = d.Idom[b]
	}
}

// Loop is one natural loop: the header block plus every block that can
// reach a back edge (latch -> header) without passing through the header.
type Loop struct {
	Header  int
	Latches []int // blocks with a back edge to Header
	Blocks  []int // loop body, header first, discovery order
	inLoop  map[int]bool
}

// Contains reports whether block id belongs to the loop.
func (l *Loop) Contains(id int) bool { return l.inLoop[id] }

// NaturalLoops finds the natural loops of the CFG: every edge t->h where h
// dominates t contributes its natural loop, and loops sharing a header are
// merged.
func (c *CFG) NaturalLoops(d *DomTree) []*Loop {
	byHeader := map[int]*Loop{}
	var order []int
	for _, id := range c.RPO {
		for _, s := range c.Blocks[id].Succs {
			if !d.Dominates(s, id) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: []int{s}, inLoop: map[int]bool{s: true}}
				byHeader[s] = l
				order = append(order, s)
			}
			l.Latches = append(l.Latches, id)
			// Backward walk from the latch collects the body.
			stack := []int{id}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.inLoop[b] {
					continue
				}
				l.inLoop[b] = true
				l.Blocks = append(l.Blocks, b)
				for _, p := range c.Blocks[b].Preds {
					if c.Reach[p] {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHeader[h])
	}
	return loops
}

// Straighten linearizes a loop whose body is a single cycle: from the
// header, each block has exactly one successor inside the loop, ending back
// at the header. It returns the slot positions in execution order, or
// ok=false for multi-path loops (which the straightened-trace slicer model
// cannot represent). This mirrors what the runtime trace selector produces
// for the loops it patches: the body bundles in path order.
func (c *CFG) Straighten(l *Loop) (pos []int, ok bool) {
	id := l.Header
	for range l.Blocks {
		b := c.Blocks[id]
		for p := b.Start; p < b.End; p++ {
			pos = append(pos, p)
		}
		next := -1
		for _, s := range b.Succs {
			if !l.Contains(s) {
				continue
			}
			if next != -1 && next != s {
				return nil, false // two in-loop successors: not a simple cycle
			}
			next = s
		}
		if next == -1 {
			return nil, false
		}
		if next == l.Header {
			// A full cycle must cover every loop block, or some side
			// path exists that the linearization misses.
			return pos, len(pos) == c.loopSlotCount(l)
		}
		id = next
	}
	return nil, false
}

func (c *CFG) loopSlotCount(l *Loop) int {
	n := 0
	for _, id := range l.Blocks {
		n += c.Blocks[id].End - c.Blocks[id].Start
	}
	return n
}
