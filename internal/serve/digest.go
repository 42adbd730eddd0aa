package serve

import (
	"slices"
	"time"

	"repro/internal/quantile"
)

// DefaultExactSamples is the exact-retention threshold of every latency
// digest a server keeps: up to this many raw samples per digest are kept and
// summarized by the exact nearest-rank rule; one sample more and the whole
// digest spills into a fixed-size quantile sketch. It keeps every harness
// experiment (≤ a few thousand requests) on the exact path — their tables
// render byte-identically — while million-request runs stay flat in memory.
const DefaultExactSamples = 8192

// latDigest accumulates one latency distribution (TTFT or E2E, per class).
// It retains raw samples exactly up to limit, in runs of 16, 32, 64, 128 and
// then 256 slots each: a run is filled in turn and never copied or regrown.
// The first sample beyond the limit spills everything into a mergeable
// quantile sketch (internal/quantile) and the digest stays O(1) from then
// on. Whether a digest is exact or sketched is a pure function of its total
// sample count, so merging per-replica digests in any order agrees with a
// single-stream digest on which side of the threshold it lands.
type latDigest struct {
	limit int
	n     int // retained samples, over every run
	runs  [][]time.Duration
	sk    *quantile.Sketch
}

// firstRun and lastRun bound a run's slots: run i opens with firstRun<<i
// slots, at most lastRun, and never reaches past the limit.
const firstRun, lastRun = 16, 256

func newLatDigest(limit int) *latDigest { return &latDigest{limit: limit} }

// addTo counts every sample of d into sk. Sketches at the same alpha always
// merge, and every one comes from quantile.New.
func (d *latDigest) addTo(sk *quantile.Sketch) {
	if d.sk != nil {
		_ = sk.Merge(d.sk)
	}
	for _, r := range d.runs {
		for _, v := range r {
			sk.Add(int64(v))
		}
	}
}

// spill moves every retained sample into a sketch.
func (d *latDigest) spill() {
	if d.sk == nil {
		sk := quantile.New()
		d.addTo(sk)
		d.sk, d.runs, d.n = sk, nil, 0
	}
}

// add records one sample, opening a new run when the last one is full.
func (d *latDigest) add(v time.Duration) {
	if d.sk == nil && d.n < d.limit {
		last := len(d.runs) - 1
		if last < 0 || len(d.runs[last]) == cap(d.runs[last]) {
			if d.runs == nil {
				d.runs = make([][]time.Duration, 0, 8) // the runs of the first 1 008 samples
			}
			size := min(firstRun<<min(len(d.runs), 4), lastRun, d.limit-d.n)
			d.runs = append(d.runs, make([]time.Duration, 0, size))
			last++
		}
		d.runs[last] = append(d.runs[last], v)
		d.n++
		return
	}
	d.spill()
	d.sk.Add(int64(v))
}

// retained and sketched split the sample count by storage: raw samples held
// exactly versus samples absorbed into the fixed-size sketch — the report's
// memory-footprint proxy.
func (d *latDigest) retained() int64 { return int64(d.n) }

func (d *latDigest) sketched() int64 {
	if d.sk == nil {
		return 0
	}
	return d.sk.Count()
}

// merge folds src into d without modifying src — the rule a single digest
// fed every sample would apply. While both are exact and their samples
// together fit the limit, d shares src's runs, each clipped to its length so
// that a later add to either digest can never write into the other's
// samples; past the limit, or from a sketched source, d spills and src's
// samples join its sketch, whose bucket-wise merge is independent of order.
func (d *latDigest) merge(src *latDigest) {
	if d.sk == nil && src.sk == nil && d.n+src.n <= d.limit {
		for _, r := range src.runs {
			d.runs = append(d.runs, r[:len(r):len(r)])
		}
		d.n += src.n
		return
	}
	d.spill()
	src.addTo(d.sk)
}

// summary renders the digest's nearest-rank percentiles: the exact rule on
// the retained samples (sorting each run in place and reading the ranks
// where the runs lie), the sketch's rank query (same integer rank
// arithmetic, within the sketch's documented error bound) after a spill.
func (d *latDigest) summary() LatencySummary {
	if d.sk != nil {
		return nearestRanks(d.sk.Count(), func(k int64) time.Duration { return time.Duration(d.sk.Rank(k)) })
	}
	for _, r := range d.runs {
		slices.Sort(r)
	}
	return nearestRanks(int64(d.n), d.rank)
}

// rank returns the k-th smallest retained sample (1 ≤ k ≤ n) of sorted runs.
// It keeps a window of candidates per run and takes each round's pivot from
// the data: the middle sample of the widest window. Counting the samples
// below and equal to the pivot in every window either names the pivot as
// the answer or drops it and everything on the far side of k, at least half
// of the widest window; on latency samples about log2(n) rounds do. The
// windows live on the stack up to 512 runs, beyond that in one allocation.
func (d *latDigest) rank(k int64) time.Duration {
	var buf [512]rankWindow
	wins := buf[:0]
	if len(d.runs) > len(buf) {
		wins = make([]rankWindow, 0, len(d.runs))
	}
	for _, r := range d.runs {
		wins = append(wins, rankWindow{hi: int32(len(r))})
	}
	for {
		widest := 0
		for j, w := range wins {
			if w.hi-w.lo > wins[widest].hi-wins[widest].lo {
				widest = j
			}
		}
		pivot := d.runs[widest][(wins[widest].lo+wins[widest].hi)/2]
		var below, atMost int64
		for j := range wins {
			w := &wins[j]
			r := d.runs[j][:w.hi]
			lt, _ := slices.BinarySearch(r[w.lo:], pivot)
			w.lt = w.lo + int32(lt)
			w.le = w.lt
			for int(w.le) < len(r) && r[w.le] == pivot {
				w.le++
			}
			below += int64(w.lt - w.lo)
			atMost += int64(w.le - w.lo)
		}
		switch {
		case k <= below:
			for j := range wins {
				wins[j].hi = wins[j].lt
			}
		case k > atMost:
			for j := range wins {
				wins[j].lo = wins[j].le
			}
			k -= atMost
		default:
			return pivot
		}
	}
}

// rankWindow is one run's candidates in rank, run[lo:hi], and where a
// round's pivot cuts them: run[lo:lt] lie below it, run[lt:le] equal it.
type rankWindow struct{ lo, hi, lt, le int32 }

// union renders the percentiles of the union of ds's samples, read where
// they lie — what one digest fed every sample would report — and counts
// those samples in rep's retained or sketched total. It merges them into a
// scratch digest, which shares their runs while the union fits limit and
// holds one sketch of them all past it.
func union(ds []*latDigest, limit int, rep *Report) LatencySummary {
	u := newLatDigest(limit)
	for _, d := range ds {
		u.merge(d)
	}
	rep.RetainedSamples += u.retained()
	rep.SketchedSamples += u.sketched()
	return u.summary()
}

// classAgg is the one record of a client class on a tally: served count,
// latency digests, evictions and KV token-steps. An admission creates it (a
// track caches the pointer, so settling its token-steps skips the map), which
// can be before the class has anything to report — or on a replica where it
// never will: a request admitted on a replica that crashes and completed on
// another belongs in the finishing replica's rows only. rostered is what
// lists the class in its tally's report; completions, unfinished requests
// and a failed run's undispatched requests set it.
type classAgg struct {
	rostered bool
	slo      string
	served   int
	ttft     *latDigest
	e2e      *latDigest

	preempt    int64
	tokenSteps int64
}

// list puts the class on the roster, under slo if it is the first to.
func (a *classAgg) list(slo string) {
	if !a.rostered {
		a.rostered, a.slo = true, slo
	}
}
