package container

// Queue is a generic doubly-linked queue used for LRU bookkeeping (GMLake's
// StitchFree evicts least-recently-used sBlocks). Elements are addressed by
// *QueueNode handles, which the caller allocates and links in, so that
// touching an element (move-to-back) is O(1).
//
// The zero value is an empty queue ready to use.
type Queue[T any] struct {
	head, tail *QueueNode[T]
	size       int
}

// QueueNode is an element handle inside a Queue.
type QueueNode[T any] struct {
	Value      T
	prev, next *QueueNode[T]
	queue      *Queue[T]
}

// Len reports the number of elements in the queue.
func (q *Queue[T]) Len() int { return q.size }

// PushNode appends n, a node in no queue whose Value the caller has set,
// at the most-recently-used position. The caller owns the node, so it can
// reuse one that Remove has unlinked.
func (q *Queue[T]) PushNode(n *QueueNode[T]) {
	if n.queue != nil {
		panic("container: PushNode of node already in a queue")
	}
	n.queue = q
	if q.tail == nil {
		q.head, q.tail = n, n
	} else {
		n.prev = q.tail
		q.tail.next = n
		q.tail = n
	}
	q.size++
}

// Front returns the oldest element's handle (least-recently-used), or nil.
func (q *Queue[T]) Front() *QueueNode[T] { return q.head }

// Remove unlinks n from the queue. It panics on a handle that is not in this
// queue, since a stale LRU handle indicates an accounting bug.
func (q *Queue[T]) Remove(n *QueueNode[T]) {
	if n == nil || n.queue != q {
		panic("container: Remove of node not in queue")
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.prev, n.next, n.queue = nil, nil, nil
	q.size--
}

// MoveToBack marks n as most-recently-used.
func (q *Queue[T]) MoveToBack(n *QueueNode[T]) {
	if n == nil || n.queue != q {
		panic("container: MoveToBack of node not in queue")
	}
	if q.tail == n {
		return
	}
	// Unlink.
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	n.next.prev = n.prev
	// Relink at tail.
	n.prev = q.tail
	n.next = nil
	q.tail.next = n
	q.tail = n
}

// Each calls fn from oldest to newest until fn returns false.
func (q *Queue[T]) Each(fn func(v T) bool) {
	for n := q.head; n != nil; n = n.next {
		if !fn(n.Value) {
			return
		}
	}
}
