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

// latDigest accumulates one latency distribution (TTFT or E2E, per class or
// aggregate). It retains raw samples exactly up to limit; the first sample
// beyond the limit spills everything into a mergeable quantile sketch
// (internal/quantile) and the digest stays O(1) from then on. Whether a
// digest is exact or sketched is a pure function of its total sample count,
// so merging per-replica digests in any order agrees with a single-stream
// digest on which side of the threshold it lands.
type latDigest struct {
	limit int
	exact []time.Duration
	sk    *quantile.Sketch
}

func newLatDigest(limit int) *latDigest { return &latDigest{limit: limit} }

// spill moves every retained sample into the sketch.
func (d *latDigest) spill() {
	if d.sk == nil {
		d.sk = quantile.New()
	}
	for _, v := range d.exact {
		d.sk.Add(int64(v))
	}
	d.exact = nil
}

// add records one sample.
func (d *latDigest) add(v time.Duration) {
	if d.sk == nil && len(d.exact) < d.limit {
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

// merge folds src into d without modifying src. The merged digest stays
// exact only while the combined count fits d's limit — the same rule a
// single digest fed both streams would apply.
func (d *latDigest) merge(src *latDigest) {
	if d.sk == nil && src.sk == nil && len(d.exact)+len(src.exact) <= d.limit {
		d.exact = append(d.exact, src.exact...)
		return
	}
	d.spill()
	if src.sk != nil {
		// Sketches at the same alpha always merge; both sides come from
		// quantile.New.
		_ = d.sk.Merge(src.sk)
	}
	for _, v := range src.exact {
		d.sk.Add(int64(v))
	}
}

// summary renders the digest's nearest-rank percentiles: the exact rule on
// the retained samples, the sketch's rank query (same integer rank
// arithmetic, within the sketch's documented error bound) after a spill.
func (d *latDigest) summary() LatencySummary {
	if d.sk == nil {
		return summarize(d.exact)
	}
	n := d.sk.Count()
	if n == 0 {
		return LatencySummary{}
	}
	at := func(pct int64) time.Duration {
		return time.Duration(d.sk.Rank((n*pct + 99) / 100))
	}
	return LatencySummary{P50: at(50), P95: at(95), P99: at(99)}
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
