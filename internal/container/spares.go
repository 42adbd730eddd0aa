package container

// Spares is a free list of dead records of one type, the fast path of an
// owner that makes and drops many fixed-size records: Put keeps a record
// nothing references any more, Get hands the most recently kept one back
// and asks the heap for a new record only when none is kept. Growing the
// list is the only other allocation.
//
// Get does not clear what it returns: the record still holds the dead
// one's fields, and the caller overwrites them all (a composite literal
// does) or reuses what it wants, like a slice's backing array. A record
// holding a tree Node must be unlinked before Put.
type Spares[T any] struct{ list []*T }

// Get returns a kept record, or a new zero one when none is kept.
func (s *Spares[T]) Get() *T {
	n := len(s.list)
	if n == 0 {
		return new(T)
	}
	r := s.list[n-1]
	s.list[n-1] = nil
	s.list = s.list[:n-1]
	return r
}

// Put keeps r for a later Get. The caller must hold no reference to r.
func (s *Spares[T]) Put(r *T) { s.list = append(s.list, r) }
