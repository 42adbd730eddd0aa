package serve

import (
	"sort"
	"time"
)

// LatencySummary holds nearest-rank percentiles of a latency sample.
type LatencySummary struct {
	P50, P95, P99 time.Duration
}

// nearestRanks renders the nearest-rank percentiles of n samples, rank(k)
// returning the k-th smallest (1-based); it asks for increasing k. The
// nearest rank of the pct-th percentile over n samples is ceil(n*pct/100),
// computed in exact integer arithmetic: products like 0.95*n are not exactly
// representable in binary floating point, so a float formulation needs an
// epsilon that silently picks the wrong rank once n grows past the
// epsilon's resolution. For n >= 1 and 1 <= pct <= 100 the rank is always
// in [1, n].
func nearestRanks(n int64, rank func(k int64) time.Duration) LatencySummary {
	if n == 0 {
		return LatencySummary{}
	}
	at := func(pct int64) time.Duration { return rank((n*pct + 99) / 100) }
	return LatencySummary{P50: at(50), P95: at(95), P99: at(99)}
}

// ClassReport is the per-client-class (per-SLO-class) slice of a serving
// run: the latency distribution each tenant actually experienced, plus how
// often it was evicted and how much KV cache it held.
type ClassReport struct {
	Class string // client class name ("default" when requests carry none)
	SLO   string // SLO tag carried by the class's requests

	Served      int   // requests completed
	Preemptions int64 // evictions of this class's sequences

	// TTFT is time from arrival to the end of the step that prefilled the
	// request (its first output token); E2E is time from arrival to the
	// last generated token.
	TTFT, E2E LatencySummary

	// MeanKVTokens is the class's mean resident KV tokens per decode step;
	// KVShare is its fraction of the run's total token·steps — the
	// KV-cache occupancy attributable to the tenant.
	MeanKVTokens float64
	KVShare      float64
}

// Report summarizes one serving run.
type Report struct {
	Served      int     // requests completed
	Steps       int     // decode steps executed
	PeakUsed    int64   // peak bytes taken by the cache manager
	PeakLogical int64   // peak bytes of real KV data
	MeanWaste   float64 // average per-step waste ratio
	MeanBatch   float64 // average decoding batch size

	// AdmitFailures counts distinct requests whose admission was deferred
	// at least once for lack of memory; BlockedSteps counts head-of-line
	// blocked admission attempts, one per step the blocked request kept
	// waiting. (They used to be a single counter with BlockedSteps
	// semantics under the AdmitFailures name, overcounting one long-blocked
	// request once per step.)
	AdmitFailures int64
	BlockedSteps  int64

	Preemptions int64 // sequences evicted mid-decode and requeued

	// Failure and SLO accounting (PR 7). Crashes and Restarts count fault
	// events applied to this server (always zero outside a faulty cluster
	// run). DeadlineMisses counts requests that blew their Timeout —
	// aborted while queued or decoding, or completed late. Shed counts
	// requests rejected by deadline-aware admission shedding
	// (ServerConfig.Shed). Goodput counts completions within their
	// deadline — with Timeout unset it equals Served, and it never
	// exceeds Served.
	Crashes        int
	Restarts       int
	DeadlineMisses int64
	Shed           int64
	Goodput        int

	// Session prefix-reuse accounting (PR 10); all zero unless
	// ServerConfig.PrefixReuse is on and requests carry sessions.
	// PrefixHits counts admissions that found their session's prefix
	// resident, skipping ReusedTokens prompt tokens of prefill in total;
	// PrefixMisses counts follow-up turns (Turn > 0) admitted with no
	// resident prefix — invalidated by a fault or eviction, never
	// established, or held by a different replica.
	PrefixHits   int64
	PrefixMisses int64
	ReusedTokens int64

	// Duration is the virtual makespan of the run.
	Duration time.Duration
	// TTFT and E2E aggregate latency over all classes.
	TTFT, E2E LatencySummary
	// Classes is the per-client-class breakdown, sorted by class name.
	Classes []ClassReport

	// RetainedSamples counts the raw latency samples the report's digests
	// (aggregate and per-class) still hold exactly; SketchedSamples counts
	// the samples absorbed into fixed-size quantile sketches instead. Their
	// split is the run's metrics-memory story: retained samples cost O(1)
	// memory each, sketched samples cost nothing beyond the sketch. The
	// aggregate holds no samples of its own: it counts the class samples it
	// reads, as retained while their union fits the exact-retention limit
	// and as sketched past it, as a digest fed every sample would hold them.
	RetainedSamples int64
	SketchedSamples int64
}

// Utilization returns peak logical / peak used.
func (r Report) Utilization() float64 {
	if r.PeakUsed == 0 {
		return 1
	}
	return float64(r.PeakLogical) / float64(r.PeakUsed)
}

// Class returns the report of the named class, or nil.
func (r Report) Class(name string) *ClassReport {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// tally is the streaming aggregation behind a Report's derived fields: one
// record per client class (see classAgg) plus the per-step batch and waste
// sums. A server feeds one as its run proceeds (completions reach the
// digests the moment they happen, so no per-request record outlives its
// request and report memory is bounded by DefaultExactSamples, not by the
// stream length); a cluster merges its replicas' tallies into a fresh one.
// seal renders either the same way, reading the aggregate percentiles from
// the class digests.
type tally struct {
	limit   int // exact-retention threshold of every digest
	classes map[string]*classAgg

	// batchSum and the token-step sums are integers, summed exactly and
	// converted once at seal (they stay far below 2^53, where a float sum
	// of the same integers would be exact too).
	wasteSum                  float64
	batchSum, totalTokenSteps int64
}

func newTally(limit int) tally {
	return tally{limit: limit, classes: map[string]*classAgg{}}
}

// class returns the named class's record, created on first sight — by the
// first admission, or by roster when the class reaches a report without one.
func (t *tally) class(name string) *classAgg {
	a := t.classes[name]
	if a == nil {
		a = &classAgg{ttft: newLatDigest(t.limit), e2e: newLatDigest(t.limit)}
		t.classes[name] = a
	}
	return a
}

// roster returns rec's class record, listed in the report — under the SLO
// tag of whoever lists it first — from now on.
func (t *tally) roster(rec *track) *classAgg {
	a := t.class(rec.class())
	a.list(rec.req.SLO)
	return a
}

// recordUnfinished folds a request the run never completed into the roster:
// the class row exists (served count and samples untouched), and a request
// preempted after streaming its first token still contributes its TTFT —
// exactly what the old scan over retained records reported after a failed
// run.
func (t *tally) recordUnfinished(rec *track) {
	a := t.roster(rec)
	if rec.hasFirst {
		a.ttft.add(rec.firstToken - rec.req.ArrivalAt)
	}
}

// merge folds src into t without modifying src. Latency digests union their
// samples — percentiles of the union, never averages of percentiles. While
// the combined sample count of a digest fits the exact-retention threshold
// the union shares src's runs of raw samples and the merged percentiles are
// exact; past it the union lives in a mergeable quantile sketch, whose
// bucket-wise merge makes the result independent of merge order.
func (t *tally) merge(src *tally) {
	t.batchSum += src.batchSum
	t.wasteSum += src.wasteSum
	t.totalTokenSteps += src.totalTokenSteps
	for name, a := range src.classes {
		dst := t.class(name)
		if a.rostered {
			dst.list(a.slo)
		}
		dst.served += a.served
		dst.preempt += a.preempt
		dst.tokenSteps += a.tokenSteps
		dst.ttft.merge(a.ttft)
		dst.e2e.merge(a.e2e)
	}
}

// seal renders the tally into rep, whose Steps must already be final: step
// means, per-class rows sorted by name, aggregate percentiles and the
// retained-versus-sketched sample split over every digest (the peak-RSS
// proxy the scale benchmark records). The roster is exactly the set of
// rostered classes — completions plus unfinished requests — so the rows
// stay truthful when a run is sealed mid-failure. The aggregate
// percentiles are those of the union of the class digests' samples, read
// where they lie (union), and the aggregate counts the samples it reads:
// as retained while the union fits the exact-retention threshold, as
// sketched past it.
func (t *tally) seal(rep *Report) {
	if rep.Steps > 0 {
		rep.MeanWaste = t.wasteSum / float64(rep.Steps)
		rep.MeanBatch = float64(t.batchSum) / float64(rep.Steps)
	}
	names := make([]string, 0, len(t.classes))
	for name, a := range t.classes {
		if a.rostered {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ttft, e2e := make([]*latDigest, len(names)), make([]*latDigest, len(names))
	rep.Classes = make([]ClassReport, 0, len(names))
	for i, name := range names {
		a := t.classes[name]
		ttft[i], e2e[i] = a.ttft, a.e2e
		rep.RetainedSamples += a.ttft.retained() + a.e2e.retained()
		rep.SketchedSamples += a.ttft.sketched() + a.e2e.sketched()
		cr := ClassReport{
			Class:       name,
			SLO:         a.slo,
			Served:      a.served,
			Preemptions: a.preempt,
			TTFT:        a.ttft.summary(),
			E2E:         a.e2e.summary(),
		}
		if rep.Steps > 0 {
			cr.MeanKVTokens = float64(a.tokenSteps) / float64(rep.Steps)
		}
		if t.totalTokenSteps > 0 {
			cr.KVShare = float64(a.tokenSteps) / float64(t.totalTokenSteps)
		}
		rep.Classes = append(rep.Classes, cr)
	}
	rep.TTFT, rep.E2E = union(ttft, t.limit, rep), union(e2e, t.limit, rep)
}

// mergeReports builds the cluster-level Report from finished replicas:
// counters summed, Duration the longest makespan, everything derived sealed
// from the merged tallies. undispatched requests (present only when a failed
// run sealed early) join the class roster without samples. The cluster
// digests share the replicas' runs of samples rather than copying them.
func mergeReports(replicas []*server, undispatched []Request) Report {
	var m Report
	// Every replica's digests share one exact-retention limit, so replica
	// 0's is the cluster's.
	t := newTally(replicas[0].limit)
	for i := range undispatched {
		t.roster(&track{req: &undispatched[i]})
	}
	for _, s := range replicas {
		m.Served += s.rep.Served
		m.Steps += s.rep.Steps
		m.PeakUsed += s.rep.PeakUsed
		m.PeakLogical += s.rep.PeakLogical
		m.AdmitFailures += s.rep.AdmitFailures
		m.BlockedSteps += s.rep.BlockedSteps
		m.Preemptions += s.rep.Preemptions
		m.Crashes += s.rep.Crashes
		m.Restarts += s.rep.Restarts
		m.DeadlineMisses += s.rep.DeadlineMisses
		m.Shed += s.rep.Shed
		m.Goodput += s.rep.Goodput
		m.PrefixHits += s.rep.PrefixHits
		m.PrefixMisses += s.rep.PrefixMisses
		m.ReusedTokens += s.rep.ReusedTokens
		m.Duration = max(m.Duration, s.rep.Duration)
		t.merge(&s.tally)
	}
	t.seal(&m)
	return m
}
