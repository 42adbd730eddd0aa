package serve

import (
	"time"

	"repro/internal/quantile"
)

// DefaultExactSamples is the exact-retention threshold of the latency
// digests when ServerConfig.ExactSamples is zero: up to this many raw
// samples per digest are kept and summarized by the exact nearest-rank rule;
// one sample more and the whole digest spills into a fixed-size quantile
// sketch. The default keeps every harness experiment (≤ a few thousand
// requests) on the exact path — their tables render byte-identically —
// while million-request runs stay flat in memory.
const DefaultExactSamples = 8192

// resolveExactSamples maps the ServerConfig knob to a digest limit:
// 0 = DefaultExactSamples, negative = sketch-only from the first sample.
func resolveExactSamples(v int) int {
	if v == 0 {
		return DefaultExactSamples
	}
	if v < 0 {
		return 0
	}
	return v
}

// latDigest accumulates one latency distribution (TTFT or E2E, per class).
// It retains raw samples exactly up to limit; the first sample beyond the
// limit spills everything into a mergeable quantile sketch
// (internal/quantile) and the digest stays O(1) from then on. Whether a
// digest is exact or sketched is a pure function of its total sample count,
// so merging per-replica digests in any order agrees with a single-stream
// digest on which side of the threshold it lands.
type latDigest struct {
	limit int
	exact []time.Duration
	sk    *quantile.Sketch
	due   int64 // samples the coming merges bring, announced before the first
}

func newLatDigest(limit int) *latDigest { return &latDigest{limit: limit} }

// addTo counts every sample of d into sk. Sketches at the same alpha always
// merge, and every one comes from quantile.New.
func (d *latDigest) addTo(sk *quantile.Sketch) {
	if d.sk != nil {
		_ = sk.Merge(d.sk)
	}
	for _, v := range d.exact {
		sk.Add(int64(v))
	}
}

// spill moves every retained sample into a sketch.
func (d *latDigest) spill() {
	if d.sk == nil {
		sk := quantile.New()
		d.addTo(sk)
		d.sk, d.exact = sk, nil
	}
}

// add records one sample. The retained samples grow by doubling, up to the
// limit, so each is copied about once on the way there.
func (d *latDigest) add(v time.Duration) {
	if d.sk == nil && len(d.exact) < d.limit {
		if len(d.exact) == cap(d.exact) {
			d.exact = append(make([]time.Duration, 0, min(max(2*len(d.exact), 16), d.limit)), d.exact...)
		}
		d.exact = append(d.exact, v)
		return
	}
	d.spill()
	d.sk.Add(int64(v))
}

// retained and sketched split count by storage: raw samples held exactly
// versus samples absorbed into the fixed-size sketch — the report's
// memory-footprint proxy.
func (d *latDigest) retained() int64 {
	return int64(len(d.exact))
}

func (d *latDigest) sketched() int64 {
	if d.sk == nil {
		return 0
	}
	return d.sk.Count()
}

func (d *latDigest) count() int64 { return d.retained() + d.sketched() }

// merge folds src into d without modifying src. The first merge sizes d
// once for the due samples announced for all of them: a slice of exactly
// that many while they fit the limit, a sketch from the start past it (a
// sketched source means the same) — the rule a single digest fed every
// sample would apply.
func (d *latDigest) merge(src *latDigest) {
	if d.due > int64(d.limit) {
		d.sk = quantile.New()
	} else if d.due > 0 {
		d.exact = make([]time.Duration, 0, d.due)
	}
	d.due = 0
	if d.sk == nil {
		d.exact = append(d.exact, src.exact...)
	} else {
		src.addTo(d.sk)
	}
}

// summary renders the digest's nearest-rank percentiles: the exact rule on
// the retained samples (sorting them in place), the sketch's rank query
// (same integer rank arithmetic, within the sketch's documented error
// bound) after a spill.
func (d *latDigest) summary() LatencySummary {
	if d.sk == nil {
		return summarize(d.exact)
	}
	return nearestRanks(d.sk.Count(), func(k int64) time.Duration { return time.Duration(d.sk.Rank(k)) })
}

// union renders the percentiles of the union of ds's samples, read where
// they lie — what one digest fed every sample would report — and counts
// those samples in rep's retained or sketched total. While the union fits
// limit no digest is sketched and every one has been summarized, so its
// samples are sorted, and a merge walk over them reads the nearest ranks.
// Past the limit one sketch is built from all of them.
func union(ds []*latDigest, limit int, rep *Report) LatencySummary {
	var n int64
	for _, d := range ds {
		n += d.count()
	}
	if n > int64(limit) {
		u := &latDigest{limit: limit, due: n}
		for _, d := range ds {
			u.merge(d)
		}
		rep.SketchedSamples += n
		return u.summary()
	}
	rep.RetainedSamples += n
	rest := make([][]time.Duration, len(ds))
	for i, d := range ds {
		rest[i] = d.exact
	}
	var walked int64
	var v time.Duration
	return nearestRanks(n, func(k int64) time.Duration {
		for ; walked < k; walked++ {
			m := -1
			for i, r := range rest {
				if len(r) > 0 && (m < 0 || r[0] < rest[m][0]) {
					m = i
				}
			}
			v, rest[m] = rest[m][0], rest[m][1:]
		}
		return v
	})
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
