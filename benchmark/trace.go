package main

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/memalloc"
	"repro/internal/serve"
)

// The traced run attributes host time to layers from outside the program:
// the benchmark wraps the serve.CacheManager and memalloc.Allocator values it
// hands to the simulator and clocks the calls that cross them.
//
// Hot calls are far too many to store one by one, so each folds into a
// per-op aggregate at record time. A clock pair costs more than a no-grow
// Append, so Append is counted every time but clocked on a fixed stride and
// its total extrapolated — the one estimated term in the breakdown.

// appendStride is how often an Append is clocked.
const appendStride = 64

// op indexes the per-op aggregates.
type op int

const (
	opAdmit op = iota
	opAppend
	opRelease
	opAlloc
	opFree
	numOps
)

var opNames = [numOps]string{"kv.admit", "kv.append", "kv.release", "memalloc.alloc", "memalloc.free"}

// histBuckets covers int64 nanoseconds at four linear sub-buckets per
// octave (≤ 25% bucket width).
const histBuckets = 64 * 4

// opAgg is one op's aggregate. selfNs is summed over clocked calls only and
// excludes the time of clocked calls nested inside them.
type opAgg struct {
	calls   int64
	clocked int64
	errs    int64
	selfNs  int64
	hist    [histBuckets]int64
}

// span is one coarse interval kept whole.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects one traced run. It is single-goroutine, like the
// simulator it observes.
type tracer struct {
	// emptyNs is what a span around nothing measures; it is subtracted from
	// every span. costNs is what clocking one span adds to the span around
	// it. Both are calibrated once, in calibrate.
	emptyNs int64
	costNs  int64

	ops   [numOps]opAgg
	spans []span

	// leafNs and leafN run over every allocator span so far; a kv span
	// reads them before and after to subtract what was nested inside it.
	leafNs int64
	leafN  int64
}

// calibrate measures the tracer's own cost on a scratch tracer through the
// same record path the real spans take. The minimum over a few batches is a
// lower bound, so subtracting it never makes a busy layer look free.
func (t *tracer) calibrate() {
	const batch = 1 << 14
	t.emptyNs, t.costNs = 1<<62, 1<<62
	for range 5 {
		var scratch tracer
		begin := now()
		for range batch {
			t0 := now()
			scratch.leaf(opAlloc, now()-t0, false)
		}
		wall := now() - begin
		t.costNs = min(t.costNs, int64(wall)/batch)
		t.emptyNs = min(t.emptyNs, scratch.ops[opAlloc].selfNs/batch)
	}
}

func histBucket(ns int64) int {
	if ns < 4 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1
	return e<<2 | int(ns>>(e-2))&3
}

// histLow is the smallest value of bucket i; the bucket's width is the
// distance to histLow(i+1).
func histLow(i int) int64 {
	if i < 8 {
		return int64(i)
	}
	return int64(4+i&3) << (i>>2 - 2)
}

// percentile interpolates linearly inside the bucket holding the rank.
func (a *opAgg) percentile(p float64) float64 {
	if a.clocked == 0 {
		return 0
	}
	rank := p / 100 * float64(a.clocked)
	var seen float64
	for i, n := range a.hist {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return float64(lo) + (rank-seen)/float64(n)*float64(hi-lo)
		}
		seen += float64(n)
	}
	return float64(histLow(histBuckets - 1))
}

// leaf records an allocator span of measured duration m.
func (t *tracer) leaf(o op, m time.Duration, failed bool) {
	d := int64(m) - t.emptyNs
	a := &t.ops[o]
	a.calls++
	a.clocked++
	a.selfNs += d
	a.hist[histBucket(d)]++
	if failed {
		a.errs++
	}
	t.leafNs += d
	t.leafN++
}

// parent records a clocked kv span of measured duration m; leafNs0 and
// leafN0 are the tracer's leaf totals from before the call.
func (t *tracer) parent(o op, m time.Duration, leafNs0, leafN0 int64, failed bool) {
	nested := (t.leafNs - leafNs0) + (t.leafN-leafN0)*t.costNs
	d := int64(m) - t.emptyNs - nested
	a := &t.ops[o]
	a.clocked++
	a.selfNs += d
	a.hist[histBucket(d)]++
	if failed {
		a.errs++
	}
}

// estSelfNs extrapolates an op's self time from its clocked calls to all of
// them.
func (a *opAgg) estSelfNs() float64 {
	if a.clocked == 0 {
		return 0
	}
	return float64(a.selfNs) * float64(a.calls) / float64(a.clocked)
}

// clockedSpans is how many clock pairs the hot wrappers paid for.
func (t *tracer) clockedSpans() int64 {
	var n int64
	for i := range t.ops {
		n += t.ops[i].clocked
	}
	return n
}

// resetOps forgets every hot call recorded so far.
func (t *tracer) resetOps() {
	t.ops = [numOps]opAgg{}
	t.leafNs, t.leafN = 0, 0
}

// begin opens a coarse span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(now())})
	return len(t.spans)
}

// end closes a coarse span.
func (t *tracer) end(id int) {
	t.spans[id-1].End = int64(now())
}

// tracedAlloc clocks every Alloc and Free of the allocator it wraps.
type tracedAlloc struct {
	memalloc.Allocator
	tr *tracer
}

func (a *tracedAlloc) Alloc(size int64) (*memalloc.Buffer, error) {
	t0 := now()
	b, err := a.Allocator.Alloc(size)
	a.tr.leaf(opAlloc, now()-t0, err != nil)
	return b, err
}

func (a *tracedAlloc) Free(b *memalloc.Buffer) {
	t0 := now()
	a.Allocator.Free(b)
	a.tr.leaf(opFree, now()-t0, false)
}

// tracedKV clocks every Admit and Release of the manager it wraps, and one
// Append in appendStride.
type tracedKV struct {
	serve.CacheManager
	tr *tracer
}

func (k *tracedKV) Admit(r serve.Request) (serve.SeqHandle, error) {
	t := k.tr
	t.ops[opAdmit].calls++
	ns0, n0 := t.leafNs, t.leafN
	t0 := now()
	h, err := k.CacheManager.Admit(r)
	t.parent(opAdmit, now()-t0, ns0, n0, err != nil)
	return h, err
}

func (k *tracedKV) Append(h serve.SeqHandle) error {
	t := k.tr
	t.ops[opAppend].calls++
	if t.ops[opAppend].calls%appendStride != 0 {
		return k.CacheManager.Append(h)
	}
	ns0, n0 := t.leafNs, t.leafN
	t0 := now()
	err := k.CacheManager.Append(h)
	t.parent(opAppend, now()-t0, ns0, n0, err != nil)
	return err
}

func (k *tracedKV) Release(h serve.SeqHandle) {
	t := k.tr
	t.ops[opRelease].calls++
	ns0, n0 := t.leafNs, t.leafN
	t0 := now()
	k.CacheManager.Release(h)
	t.parent(opRelease, now()-t0, ns0, n0, false)
}

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	EmptySpanNs int64   `json:"empty_span_ns"`
	SpanCostNs  int64   `json:"span_cost_ns"`
	Stride      int     `json:"append_stride"`
}

// traceAgg is one per-op aggregate line; Hist lists the non-empty buckets
// as [low_ns, count] pairs in ascending order.
type traceAgg struct {
	Agg     string     `json:"agg"`
	Calls   int64      `json:"calls"`
	Clocked int64      `json:"clocked"`
	Errors  int64      `json:"errors"`
	SelfNs  int64      `json:"self_ns"`
	Hist    [][2]int64 `json:"hist"`
}

// write stores the run as JSON lines: the header, the coarse spans in start
// order, then the per-op aggregates.
func (t *tracer) write(path string, hdr traceHeader) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	hdr.EmptySpanNs, hdr.SpanCostNs, hdr.Stride = t.emptyNs, t.costNs, appendStride
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for i := range t.ops {
		a := &t.ops[i]
		line := traceAgg{Agg: opNames[i], Calls: a.calls, Clocked: a.clocked, Errors: a.errs, SelfNs: a.selfNs}
		for b, n := range a.hist {
			if n > 0 {
				line.Hist = append(line.Hist, [2]int64{histLow(b), n})
			}
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return w.Flush()
}
