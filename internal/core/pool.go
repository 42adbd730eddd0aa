package core

import (
	"cmp"
	"slices"

	"repro/internal/container"
)

// pClass is one size of the pPool index. Its bit means "inactive" and is
// kept eagerly: set while the pBlock is inactive, clear while it is active.
type pClass = sizeClass[*PBlock]

// pPool is its size classes: every live pBlock sits in the class of its
// size, and nowhere else, so BestFit can scan the inactive ones by size (the
// paper keeps the pool "sorted by block size in descending order"; we store
// ascending and walk backwards, which is equivalent). The classes sit in
// ascending size order and their slots in ascending VA order, so ceil, floor,
// next and prev — the only ways to read the pool — return exactly the
// inactive set in (size, VA) order by walking classes and set bits. A state
// flip sets or clears one bit.
type pPool struct {
	classes []*pClass                // ascending size, none empty
	count   int                      // pBlocks in the classes
	bytes   int64                    // Σ sizes of all pBlocks == GMLake's reserved memory
	spare   container.Spares[pClass] // emptied classes, capacity kept
}

// search returns the index of the first class of at least size bytes, and
// whether that class is exactly size.
func (pp *pPool) search(size int64) (int, bool) {
	return slices.BinarySearchFunc(pp.classes, size, func(c *pClass, size int64) int {
		return cmp.Compare(c.size, size)
	})
}

// add registers a new (inactive) pBlock.
func (pp *pPool) add(p *PBlock) {
	pp.count++
	pp.bytes += p.size
	i, found := pp.search(p.size)
	if !found {
		c := pp.spare.Get()
		c.size = p.size
		pp.classes = slices.Insert(pp.classes, i, c)
	}
	p.class = pp.classes[i]
	p.class.insert(p)
}

// remove unregisters an inactive pBlock entirely (it is being split or
// destroyed).
func (pp *pPool) remove(p *PBlock) {
	pp.count--
	pp.bytes -= p.size
	c := p.class
	c.remove(p.slot)
	p.class = nil
	if len(c.slots) == 0 {
		i, _ := pp.search(c.size)
		pp.classes = slices.Delete(pp.classes, i, i+1)
		pp.spare.Put(c)
	}
}

// first returns the lowest-addressed inactive pBlock of the smallest size
// with one, from class i up, or nil.
func (pp *pPool) first(i int) *PBlock {
	for ; i < len(pp.classes); i++ {
		c := pp.classes[i]
		if j := c.next(0); j >= 0 {
			return c.slots[j]
		}
	}
	return nil
}

// last returns the highest-addressed inactive pBlock of the largest size
// with one, below class i, or nil.
func (pp *pPool) last(i int) *PBlock {
	for i--; i >= 0; i-- {
		c := pp.classes[i]
		if j := c.prev(int32(len(c.slots) - 1)); j >= 0 {
			return c.slots[j]
		}
	}
	return nil
}

// ceil returns the smallest inactive pBlock of at least size bytes — the
// lowest-addressed one among equals — or nil.
func (pp *pPool) ceil(size int64) *PBlock {
	i, _ := pp.search(size)
	return pp.first(i)
}

// floor returns the largest inactive pBlock of at most size bytes — the
// highest-addressed one among equals — or nil.
func (pp *pPool) floor(size int64) *PBlock {
	i, found := pp.search(size)
	if found {
		i++
	}
	return pp.last(i)
}

// next returns the inactive pBlock after p in (size, VA) order, or nil.
func (pp *pPool) next(p *PBlock) *PBlock {
	if j := p.class.next(p.slot + 1); j >= 0 {
		return p.class.slots[j]
	}
	i, _ := pp.search(p.size)
	return pp.first(i + 1)
}

// prev returns the inactive pBlock before p in (size, VA) order, or nil.
func (pp *pPool) prev(p *PBlock) *PBlock {
	if j := p.class.prev(p.slot - 1); j >= 0 {
		return p.class.slots[j]
	}
	i, _ := pp.search(p.size)
	return pp.last(i)
}

// findExact returns an inactive pBlock of exactly size bytes, or nil.
// Among equal-sized blocks it prefers one with the fewest sBlocks stitched
// over it: assigning a lightly-shared block keeps the heavily-shared ones
// free, so the cached stitched views over them stay available for exact
// matches (the convergence mechanism of §5.4).
func (pp *pPool) findExact(size int64) *PBlock {
	i, found := pp.search(size)
	if !found {
		return nil
	}
	c := pp.classes[i]
	j := c.next(0)
	if j < 0 {
		return nil
	}
	best := c.slots[j]
	for scanned := 0; scanned < 8 && len(best.owners) > 0; scanned++ {
		if j = c.next(j + 1); j < 0 {
			break
		}
		if p := c.slots[j]; len(p.owners) < len(best.owners) {
			best = p
		}
	}
	return best
}

// sClass is one size of the sPool index, the only query the allocator makes
// of it being "lowest-addressed available sBlock of exactly this size". Its
// bit means "may be available": it is set on every unassigned sBlock with no
// active member, and an sBlock with an active member may keep it until a
// lookup meets it.
type sClass = sizeClass[*SBlock]

// sPool is its size classes, keyed by size, each live sBlock in the class
// of its size and nowhere else; beside them runs the LRU queue StitchFree
// evicts from.
type sPool struct {
	classes map[int64]*sClass        // none empty
	count   int                      // sBlocks in the classes
	spare   container.Spares[sClass] // emptied classes, capacity kept
	lru     container.Queue[*SBlock]
	nodes   container.Spares[container.QueueNode[*SBlock]] // dead LRU nodes
}

// add registers a freshly stitched, unassigned sBlock, its bit set: it is
// handed out at once or, should a member be active, discarded by the first
// lookup that meets it. The allocator runs stitchFreeIfNeeded only once the
// request is served, so a brand-new sBlock can never be evicted before the
// tensor lands in it.
func (sp *sPool) add(s *SBlock) {
	sp.count++
	c := sp.classes[s.size]
	if c == nil {
		c = sp.spare.Get()
		c.size = s.size
		sp.classes[s.size] = c
	}
	s.class = c
	s.lru = sp.nodes.Get()
	s.lru.Value = s
	sp.lru.PushNode(s.lru)
	c.insert(s)
}

func (sp *sPool) remove(s *SBlock) {
	sp.count--
	c := s.class
	if !s.assigned && !c.has(s.slot) {
		s.unwatch()
	}
	if c.remove(s.slot); len(c.slots) == 0 {
		delete(sp.classes, s.size)
		sp.spare.Put(c)
	}
	s.class = nil
	if s.lru != nil {
		sp.lru.Remove(s.lru)
		s.lru.Value = nil
		sp.nodes.Put(s.lru)
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

// watch parks s, whose bit is clear, on the watcher list of its active
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

func (sp *sPool) touch(s *SBlock) {
	if s.lru != nil {
		sp.lru.MoveToBack(s.lru)
	}
}

// findExact returns the lowest-addressed available sBlock of exactly size
// bytes, or nil. Set bits that turn out to mark an sBlock with an active
// member are cleared on the way, the sBlock going to that member's watcher
// list.
func (sp *sPool) findExact(size int64) *SBlock {
	c := sp.classes[size]
	if c == nil {
		return nil
	}
	for j := c.next(0); j >= 0; j = c.next(j + 1) {
		s := c.slots[j]
		i := s.activeMember()
		if i < 0 {
			return s
		}
		c.clear(j)
		s.watch(i)
	}
	return nil
}
