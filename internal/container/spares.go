package container

// spareSlab caps a Spares slab at 255 records. Slabs hold 2^k − 1 of them
// — 1, 3, 7, …, 255 — so an owner that makes few records allocates about
// as much as it would one by one, and a busy one allocates once per 255.
const spareSlab = 255

// Spares is a free list of dead records of one type, the fast path of an
// owner that makes and drops many fixed-size records: Put keeps a record
// nothing references any more, Get hands the most recently kept one back
// and, when none is kept, takes the next entry of a slab the list owns,
// allocating a new slab only when the current one is used up. Growing the
// list is the only other allocation.
//
// Get does not clear a kept record: it still holds the dead one's fields,
// and the caller overwrites them all (a composite literal does) or reuses
// what it wants, like a slice's backing array. An entry fresh from a slab
// is zero. A record holding a tree or queue node must be unlinked before
// Put, and should drop its pointers so a dead record keeps nothing alive.
type Spares[T any] struct {
	list []*T
	slab []T
}

// Get returns a kept record, or a zero one from the slab when none is kept.
func (s *Spares[T]) Get() *T {
	n := len(s.list)
	if n == 0 {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]T, 0, min(2*cap(s.slab)+1, spareSlab))
		}
		s.slab = s.slab[:len(s.slab)+1]
		return &s.slab[len(s.slab)-1]
	}
	r := s.list[n-1]
	s.list[n-1] = nil
	s.list = s.list[:n-1]
	return r
}

// Put keeps r for a later Get. The caller must hold no reference to r.
func (s *Spares[T]) Put(r *T) { s.list = append(s.list, r) }
