package core

import (
	"repro/internal/container"
)

// pNode abbreviates the tree node type in iteration callbacks.
type pNode = container.Node[*PBlock]

// pPool holds every pBlock. Inactive pBlocks are additionally indexed in an
// ordered tree so BestFit can scan them by size (the paper keeps the pool
// "sorted by block size in descending order"; we store ascending and walk
// backwards, which is equivalent).
type pPool struct {
	all      map[*PBlock]struct{}
	inactive *container.Tree[*PBlock]
	bytes    int64 // Σ sizes of all pBlocks == GMLake's reserved memory

	// probe is the search key ceil reuses: the tree compares through a
	// func value, so a key built per lookup would escape to the heap.
	probe PBlock
}

func newPPool() *pPool {
	return &pPool{
		all: make(map[*PBlock]struct{}),
		inactive: container.NewTree[*PBlock](func(a, b *PBlock) bool {
			if a.size != b.size {
				return a.size < b.size
			}
			return a.va < b.va
		}),
	}
}

// add registers a new (inactive) pBlock.
func (pp *pPool) add(p *PBlock) {
	pp.all[p] = struct{}{}
	pp.bytes += p.size
	p.node.Value = p
	pp.inactive.InsertNode(&p.node)
}

// remove unregisters a pBlock entirely (it is being split or destroyed).
func (pp *pPool) remove(p *PBlock) {
	delete(pp.all, p)
	pp.bytes -= p.size
	pp.markActive(p)
}

// markActive pulls p from the inactive index.
func (pp *pPool) markActive(p *PBlock) {
	if p.node.Linked() {
		pp.inactive.Delete(&p.node)
	}
}

// markInactive puts p back into the inactive index.
func (pp *pPool) markInactive(p *PBlock) {
	if !p.node.Linked() {
		pp.inactive.InsertNode(&p.node)
	}
}

// ceil returns the node of the smallest inactive pBlock of at least size
// bytes — the lowest-addressed one among equals — or nil.
func (pp *pPool) ceil(size int64) *pNode {
	pp.probe.size = size
	return pp.inactive.Ceil(&pp.probe)
}

// findExact returns an inactive pBlock of exactly size bytes, or nil.
// Among equal-sized blocks it prefers one with the fewest sBlocks stitched
// over it: assigning a lightly-shared block keeps the heavily-shared ones
// free, so the cached stitched views over them stay available for exact
// matches (the convergence mechanism of §5.4).
func (pp *pPool) findExact(size int64) *PBlock {
	n := pp.ceil(size)
	if n == nil || n.Value.size != size {
		return nil
	}
	best := n.Value
	for scanned := 0; scanned < 8 && len(best.owners) > 0; scanned++ {
		n = pp.inactive.Next(n)
		if n == nil || n.Value.size != size {
			break
		}
		if len(n.Value.owners) < len(best.owners) {
			best = n.Value
		}
	}
	return best
}

// sClass indexes the available sBlocks of one size as a min-heap on VA: the
// only query the allocator makes is "lowest-addressed available sBlock of
// exactly this size". Each sBlock stores its heap position, so a state flip
// costs O(log k) over the k available sBlocks of its own size, compares
// addresses directly and allocates nothing.
type sClass struct {
	avail []*SBlock
	live  int // sBlocks of this size in the pool, available or not
}

func (c *sClass) place(i int, s *SBlock) {
	c.avail[i] = s
	s.heapPos = i
}

// up settles s into the hole at i, moving the hole towards the root while
// its parent has a higher VA.
func (c *sClass) up(i int, s *SBlock) {
	for i > 0 {
		parent := (i - 1) / 2
		if c.avail[parent].va < s.va {
			break
		}
		c.place(i, c.avail[parent])
		i = parent
	}
	c.place(i, s)
}

// down settles s into the hole at i, moving the hole towards the leaves
// while a child has a lower VA.
func (c *sClass) down(i int, s *SBlock) {
	for {
		child := 2*i + 1
		if child >= len(c.avail) {
			break
		}
		if r := child + 1; r < len(c.avail) && c.avail[r].va < c.avail[child].va {
			child = r
		}
		if s.va < c.avail[child].va {
			break
		}
		c.place(i, c.avail[child])
		i = child
	}
	c.place(i, s)
}

func (c *sClass) push(s *SBlock) {
	c.avail = append(c.avail, nil)
	c.up(len(c.avail)-1, s)
}

func (c *sClass) remove(s *SBlock) {
	i, last := s.heapPos, len(c.avail)-1
	moved := c.avail[last]
	c.avail[last] = nil
	c.avail = c.avail[:last]
	s.heapPos = -1
	switch {
	case i == last:
	case i > 0 && moved.va < c.avail[(i-1)/2].va:
		c.up(i, moved)
	default:
		c.down(i, moved)
	}
}

// sPool holds every sBlock, the per-size available index, and the LRU queue
// StitchFree evicts from.
type sPool struct {
	all     map[*SBlock]struct{}
	classes map[int64]*sClass
	lru     container.Queue[*SBlock]
}

func newSPool() *sPool {
	return &sPool{
		all:     make(map[*SBlock]struct{}),
		classes: make(map[int64]*sClass),
	}
}

func (sp *sPool) add(s *SBlock) {
	sp.all[s] = struct{}{}
	c := sp.classes[s.size]
	if c == nil {
		c = &sClass{}
		sp.classes[s.size] = c
	}
	c.live++
	s.class = c
	s.lru = sp.lru.PushBack(s)
}

func (sp *sPool) remove(s *SBlock) {
	delete(sp.all, s)
	sp.markUnavailable(s)
	if s.class.live--; s.class.live == 0 {
		delete(sp.classes, s.size)
	}
	s.class = nil
	if s.lru != nil {
		sp.lru.Remove(s.lru)
		s.lru = nil
	}
}

func (sp *sPool) markAvailable(s *SBlock) {
	if s.heapPos < 0 {
		s.class.push(s)
	}
}

func (sp *sPool) markUnavailable(s *SBlock) {
	if s.heapPos >= 0 {
		s.class.remove(s)
	}
}

func (sp *sPool) touch(s *SBlock) {
	if s.lru != nil {
		sp.lru.MoveToBack(s.lru)
	}
}

// findExact returns the lowest-addressed available sBlock of exactly size
// bytes, or nil.
func (sp *sPool) findExact(size int64) *SBlock {
	if c := sp.classes[size]; c != nil && len(c.avail) > 0 {
		return c.avail[0]
	}
	return nil
}
