package core

import (
	"repro/internal/container"
)

// pNode abbreviates the tree node type in iteration callbacks.
type pNode = container.Node[*PBlock]

// pPool holds every pBlock and an ordered tree over the inactive ones, so
// BestFit can scan them by size (the paper keeps the pool "sorted by block
// size in descending order"; we store ascending and walk backwards, which is
// equivalent). The tree is pruned by its readers: activating a pBlock leaves
// its node linked, and ceil, next, prev and max — the only ways to read the
// tree — unlink the active nodes they meet, so what they return is exactly
// the inactive set in (size, VA) order.
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

// remove unregisters an inactive pBlock entirely (it is being split or
// destroyed).
func (pp *pPool) remove(p *PBlock) {
	delete(pp.all, p)
	pp.bytes -= p.size
	pp.inactive.Delete(&p.node)
}

// markInactive makes p, on its 1→0 edge, visible to readers again: a no-op
// unless one of them unlinked it while it was active.
func (pp *pPool) markInactive(p *PBlock) {
	if !p.node.Linked() {
		pp.inactive.InsertNode(&p.node)
	}
}

// skipActive returns the first inactive node at n or beyond it, ascending or
// descending, unlinking every active node on the way.
func (pp *pPool) skipActive(n *pNode, ascending bool) *pNode {
	for n != nil && n.Value.Active() {
		stale := n
		if ascending {
			n = pp.inactive.Next(n)
		} else {
			n = pp.inactive.Prev(n)
		}
		pp.inactive.Delete(stale)
	}
	return n
}

// ceil returns the node of the smallest inactive pBlock of at least size
// bytes — the lowest-addressed one among equals — or nil.
func (pp *pPool) ceil(size int64) *pNode {
	pp.probe.size = size
	return pp.skipActive(pp.inactive.Ceil(&pp.probe), true)
}

// next returns the inactive node after n in (size, VA) order, or nil.
func (pp *pPool) next(n *pNode) *pNode {
	return pp.skipActive(pp.inactive.Next(n), true)
}

// prev returns the inactive node before n in (size, VA) order, or nil.
func (pp *pPool) prev(n *pNode) *pNode {
	return pp.skipActive(pp.inactive.Prev(n), false)
}

// max returns the node of the largest inactive pBlock, or nil.
func (pp *pPool) max() *pNode {
	return pp.skipActive(pp.inactive.Max(), false)
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
		n = pp.next(n)
		if n == nil || n.Value.size != size {
			break
		}
		if len(n.Value.owners) < len(best.owners) {
			best = n.Value
		}
	}
	return best
}

// sClass indexes the sBlocks of one size that may be available as a min-heap
// on VA: the only query the allocator makes is "lowest-addressed available
// sBlock of exactly this size". An entry can have an active member; the heap
// holds every sBlock that has none. Each sBlock stores its heap position, so
// entering or leaving costs O(log k) over the k entries of its own size,
// compares addresses directly and allocates nothing.
type sClass struct {
	avail []*SBlock
	live  int // sBlocks of this size in the pool, available or not
}

func (c *sClass) place(i int, s *SBlock) {
	c.avail[i] = s
	s.heapPos = int32(i)
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
	i, last := int(s.heapPos), len(c.avail)-1
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

// sPool holds every sBlock, the per-size heaps, and the LRU queue StitchFree
// evicts from.
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

// add registers a freshly stitched, unassigned sBlock, in its heap: it is
// handed out at once or, should a member be active, discarded by the first
// lookup that meets it. The allocator runs stitchFreeIfNeeded only once the
// request is served, so a brand-new sBlock can never be evicted before the
// tensor lands in it.
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
	c.push(s)
}

func (sp *sPool) remove(s *SBlock) {
	delete(sp.all, s)
	switch {
	case s.heapPos >= 0:
		s.class.remove(s)
	case !s.assigned:
		s.unwatch()
	}
	if s.class.live--; s.class.live == 0 {
		delete(sp.classes, s.size)
	}
	s.class = nil
	if s.lru != nil {
		sp.lru.Remove(s.lru)
		s.lru = nil
	}
}

// activeMember returns the index of an active member, scanning from the hint
// and wrapping around, or -1 when every member is inactive.
func (s *SBlock) activeMember() int {
	i := int(s.hint)
	for range s.members {
		if s.members[i].activeRefs > 0 {
			return i
		}
		if i++; i == len(s.members) {
			i = 0
		}
	}
	return -1
}

// watch parks s, which is in no index, on the watcher list of its active
// member i.
func (s *SBlock) watch(i int) {
	p := s.members[i]
	s.hint = int32(i)
	s.watchNext, p.watchers = p.watchers, s
}

// unwatch takes s off the list of the member it watches. The list is singly
// linked: only tearing s down gets here, never a state flip.
func (s *SBlock) unwatch() {
	link := &s.members[s.hint].watchers
	for *link != s {
		if *link == nil {
			panic("core: watching sBlock missing from its member's watchers")
		}
		link = &(*link).watchNext
	}
	*link, s.watchNext = s.watchNext, nil
}

// wake re-files the watchers of p, which has just become inactive: each on
// the list of its next active member or, having none, in its heap.
func (p *PBlock) wake() {
	s := p.watchers
	p.watchers = nil
	for s != nil {
		next := s.watchNext
		s.watchNext = nil
		if i := s.activeMember(); i >= 0 {
			s.watch(i)
		} else {
			s.class.push(s)
		}
		s = next
	}
}

func (sp *sPool) touch(s *SBlock) {
	if s.lru != nil {
		sp.lru.MoveToBack(s.lru)
	}
}

// findExact returns the lowest-addressed available sBlock of exactly size
// bytes, or nil. Heap entries that turn out to have an active member leave
// the heap for that member's watcher list on the way.
func (sp *sPool) findExact(size int64) *SBlock {
	c := sp.classes[size]
	for c != nil && len(c.avail) > 0 {
		s := c.avail[0]
		i := s.activeMember()
		if i < 0 {
			return s
		}
		c.remove(s)
		s.watch(i)
	}
	return nil
}
