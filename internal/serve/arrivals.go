package serve

import "sort"

// arrivalQueue indexes not-yet-arrived requests by (ArrivalAt, ticket). On
// every live path arrivals are already pushed in that order — Serve
// pushes its input stream up front with ascending tickets and the cluster
// dispatches each request at its arrival instant — so the queue is a flat
// sorted cursor: push is an append, the minimum is a peek and promotion
// advances the head, with none of the per-request node allocation and
// rebalancing a tree pays on the O(n) stream. Sorted input is not part of
// the API contract, though: a push that lands out of order marks the queue
// dirty and the next read re-sorts the remaining entries once.
type arrivalQueue struct {
	items []waiting
	head  int
	dirty bool
}

// less is the queue order: arrival time, then FIFO ticket.
func (q *arrivalQueue) less(a, b waiting) bool {
	if at, bt := a.rec.req.ArrivalAt, b.rec.req.ArrivalAt; at != bt {
		return at < bt
	}
	return a.seq < b.seq
}

func (q *arrivalQueue) push(w waiting) {
	if n := len(q.items); !q.dirty && n > q.head && q.less(w, q.items[n-1]) {
		q.dirty = true
	}
	q.items = append(q.items, w)
}

func (q *arrivalQueue) sort() {
	if !q.dirty {
		return
	}
	rest := q.items[q.head:]
	sort.Slice(rest, func(i, j int) bool { return q.less(rest[i], rest[j]) })
	q.dirty = false
}

// min peeks the earliest pending arrival.
func (q *arrivalQueue) min() (waiting, bool) {
	if q.head == len(q.items) {
		return waiting{}, false
	}
	q.sort()
	return q.items[q.head], true
}

// popMin removes and returns the earliest pending arrival. The vacated slot
// is zeroed so the popped request's record is not pinned by the backing
// array, and a fully drained queue recycles it.
func (q *arrivalQueue) popMin() waiting {
	q.sort()
	w := q.items[q.head]
	q.items[q.head] = waiting{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return w
}

func (q *arrivalQueue) len() int { return len(q.items) - q.head }

// ascend visits the pending arrivals in queue order.
func (q *arrivalQueue) ascend(f func(waiting)) {
	q.sort()
	for _, w := range q.items[q.head:] {
		f(w)
	}
}
