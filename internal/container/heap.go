package container

// Heap is a binary min-heap of values ordered by the Key pushed with each,
// compared inline like a Tree's: the cluster's event spine, its re-dispatch
// pool and a session class's pending turns. The zero Heap is empty and ready
// to use; Push and Pop are O(log n) on one flat slice, which is reused, so a
// heap in steady state allocates nothing. Entries with equal keys pop in no
// particular order: an owner that needs one makes the key unique.
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
	if last == 0 {
		return top.key, top.v
	}
	// Sift the hole at the root down to where the last entry belongs.
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.items[r].key.less(h.items[c].key) {
			c = r
		}
		if !h.items[c].key.less(x.key) {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = x
	return top.key, top.v
}
