package container

// Heap is a binary min-heap of values ordered by the Key pushed with each,
// compared inline like a Tree's: the cluster's event spine, its re-dispatch
// pool and a session class's pending turns. The zero Heap is empty and ready
// to use; Push, Pop and ReplaceTop are O(log n) on one flat slice, which is
// reused, so a heap in steady state allocates nothing. Entries with equal
// keys pop in no particular order: an owner that needs one makes the key
// unique.
type Heap[T any] struct {
	items []heapEntry[T]
}

type heapEntry[T any] struct {
	key Key
	v   T
}

// Len returns the number of entries held.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts v under key k.
func (h *Heap[T]) Push(k Key, v T) {
	h.items = append(h.items, heapEntry[T]{})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(h.items[parent].key) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = heapEntry[T]{key: k, v: v}
}

// Peek returns the minimum entry without removing it. It panics on an empty
// heap; guard with Len.
func (h *Heap[T]) Peek() (Key, T) {
	e := &h.items[0]
	return e.key, e.v
}

// Pop removes and returns the minimum entry. It panics on an empty heap;
// guard with Len.
func (h *Heap[T]) Pop() (Key, T) {
	top := h.items[0]
	last := len(h.items) - 1
	x := h.items[last]
	h.items[last] = heapEntry[T]{} // release references for the garbage collector
	h.items = h.items[:last]
	if last > 0 {
		h.down(x)
	}
	return top.key, top.v
}

// ReplaceTop replaces the minimum entry with v under key k: a Pop followed
// by a Push, in one sift down from the root — the spine re-keying the
// replica it just ran. It panics on an empty heap; guard with Len.
func (h *Heap[T]) ReplaceTop(k Key, v T) {
	h.down(heapEntry[T]{key: k, v: v})
}

// down sifts the hole at the root down to where x belongs and puts x there.
func (h *Heap[T]) down(x heapEntry[T]) {
	n := len(h.items)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.items[r].key.less(h.items[c].key) {
			c = r
		}
		if !h.items[c].key.less(x.key) {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = x
}
