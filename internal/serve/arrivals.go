package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/container"
)

// MaxRequestTokens bounds a request's prompt and its output length. It keeps
// a sequence's KV bytes under every model configuration, its prefill time and
// its TotalTokens inside int64.
const MaxRequestTokens = 1 << 24

// arrivalOrder is the one pass over an input stream before it is served: it
// rejects a request with nothing to prefill or nothing to decode, one past
// MaxRequestTokens, and under aging one whose aged rank would overflow (see
// agedRankFits), and returns the order the stream is released in — arrival
// time, input order preserved among ties, so a request's input index doubles
// as its FIFO ticket. The order is the stable permutation of input indexes,
// or nil when reqs is already non-decreasing in ArrivalAt (every generated
// stream is; no allocation).
func arrivalOrder(reqs []Request, aging time.Duration) ([]int, error) {
	for i := range reqs {
		r := &reqs[i]
		if err := checkPrompt(r); err != nil {
			return nil, err
		}
		if r.OutputLen <= 0 {
			return nil, fmt.Errorf("serve: request %d has %d output tokens", r.ID, r.OutputLen)
		}
		if r.PromptLen > MaxRequestTokens || r.OutputLen > MaxRequestTokens {
			return nil, fmt.Errorf("serve: request %d has %d prompt and %d output tokens, past the bound of %d each",
				r.ID, r.PromptLen, r.OutputLen, MaxRequestTokens)
		}
		if aging > 0 && !agedRankFits(r.Priority, aging, r.ArrivalAt) {
			return nil, fmt.Errorf("serve: request %d priority %d overflows its aged rank under aging %v",
				r.ID, r.Priority, aging)
		}
	}
	if slices.IsSortedFunc(reqs, func(a, b Request) int { return cmp.Compare(a.ArrivalAt, b.ArrivalAt) }) {
		return nil, nil
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(reqs[i].ArrivalAt, reqs[j].ArrivalAt) })
	return order, nil
}

// agedRankFits reports whether server.rank's Priority·aging − at stays
// inside int64: |Priority|·aging ≤ MaxInt64 − |at|. The minimum int, whose
// absolute value overflows, does not fit.
func agedRankFits(priority int, aging, at time.Duration) bool {
	if priority == math.MinInt {
		return false
	}
	if at < 0 {
		at = -at
	}
	room := math.MaxInt64 - int64(at) // negative only for at = MinInt64
	return room >= 0 && int64(max(priority, -priority)) <= room/int64(aging)
}

// inputCursor walks the caller's request slice in arrivalOrder without
// copying it: the requests before next have been released, the rest are
// read in place when their turn comes. The cursor is the cluster scheduler's
// queue — Serve's too, a one-replica cluster — and owns the run's free list
// of tracks: every replica returns the record of a request that left the run
// to spare, and pop reissues it.
type inputCursor struct {
	reqs  []Request
	order []int // arrivalOrder(reqs)
	next  int
	spare container.Spares[track]
}

func newInputCursor(reqs []Request, aging time.Duration) (inputCursor, error) {
	order, err := arrivalOrder(reqs, aging)
	return inputCursor{reqs: reqs, order: order}, err
}

// left is the number of requests not yet released.
func (c *inputCursor) left() int { return len(c.reqs) - c.next }

// index is the input index of the k-th request in arrival order.
func (c *inputCursor) index(k int) int {
	if c.order == nil {
		return k
	}
	return c.order[k]
}

// head is the next request to release, with its input index; valid while
// left() > 0.
func (c *inputCursor) head() (int, *Request) {
	i := c.index(c.next)
	return i, &c.reqs[i]
}

// pop releases the head: the request gets its track here — a record a
// departed request returned, or a new one — and its input index is its FIFO
// ticket.
func (c *inputCursor) pop() *track {
	i, r := c.head()
	c.next++
	return newTrack(&c.spare, r, int64(i))
}

// each visits the requests not yet released, in arrival order.
func (c *inputCursor) each(f func(*Request)) {
	for k := c.next; k < len(c.reqs); k++ {
		f(&c.reqs[c.index(k)])
	}
}

// arrivalQueue indexes a server's not-yet-arrived requests by (ArrivalAt,
// ticket): the tracks the scheduler pushed — a dispatch that runs ahead of
// its replica's clock. Only an arrival-time dispatch to an idle server whose
// clock lags lands here, and those come off the input cursor in (ArrivalAt,
// ticket) order; steals, pool re-dispatches and evictions have arrived
// already and go to the ready queue. So the queue is a flat sorted cursor:
// push is an append and promotion advances the head, with none of the
// per-request node allocation and rebalancing a tree pays. A push that would
// break the order panics.
type arrivalQueue struct {
	items []*track
	head  int
}

// compareArrival is the queue order: arrival time, then FIFO ticket.
func compareArrival(a, b *track) int {
	if c := cmp.Compare(a.req.ArrivalAt, b.req.ArrivalAt); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (q *arrivalQueue) push(w *track) {
	if n := len(q.items); n > q.head && compareArrival(w, q.items[n-1]) < 0 {
		panic("serve: out-of-order arrival")
	}
	q.items = append(q.items, w)
}

// peek is the earliest pending arrival time.
func (q *arrivalQueue) peek() (time.Duration, bool) {
	if q.len() == 0 {
		return 0, false
	}
	return q.items[q.head].req.ArrivalAt, true
}

// popMin removes and returns the earliest pending arrival; the queue must not
// be empty. A vacated item slot is zeroed so the popped request's record is
// not pinned by the backing array, and fully drained items recycle it.
func (q *arrivalQueue) popMin() *track {
	w := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return w
}

func (q *arrivalQueue) len() int { return len(q.items) - q.head }

// each visits the tracks of the pending arrivals in queue order.
func (q *arrivalQueue) each(f func(*track)) {
	for _, w := range q.items[q.head:] {
		f(w)
	}
}
