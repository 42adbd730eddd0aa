package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// summarize is the nearest-rank rule on one slice of samples, sorted in
// place: the reference the digests' runs are read against.
func summarize(samples []time.Duration) LatencySummary {
	slices.Sort(samples)
	return nearestRanks(int64(len(samples)), func(k int64) time.Duration { return samples[k-1] })
}

// TestSealedLatencyIgnoresSplit pins CONTRACTS.md C-9: the sealed latency
// fields of a report do not depend on how its samples are split across
// classes and replicas, or on the order the replicas are merged in. Each
// case draws a multiset of TTFT and E2E samples, splits it at random across
// up to five classes and 1–64 replicas, seals every replica, merges them in
// two orders, and compares the cluster report with a reference that feeds
// every sample of a field into one fresh digest: one per class and field,
// and one per field for the aggregate.
func TestSealedLatencyIgnoresSplit(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 80
	}
	rng := sim.NewRNG(9)
	var exactAgg, sketchedAgg, mixed int
	for c := 0; c < cases; c++ {
		knob := []int{-1, 1, 2 + rng.Intn(40), DefaultExactSamples}[c%4]
		limit := resolveExactSamples(knob)
		n := []int{limit, limit + 1, rng.Intn(2*limit + 20)}[rng.Intn(3)]
		classes, replicas := 1+rng.Intn(5), 1+rng.Intn(64)
		spread := []int64{8, 1000, 1e10}[rng.Intn(3)] // ties to distinct values

		servers := make([]*server, replicas)
		for i := range servers {
			servers[i] = &server{tally: newTally(limit)}
		}
		refTTFT, refE2E := map[string]*latDigest{}, map[string]*latDigest{}
		aggTTFT, aggE2E := newLatDigest(limit), newLatDigest(limit)
		for i := 0; i < n; i++ {
			name := fmt.Sprint("class-", rng.Intn(classes))
			if refTTFT[name] == nil {
				refTTFT[name], refE2E[name] = newLatDigest(limit), newLatDigest(limit)
			}
			a := servers[rng.Intn(replicas)].class(name)
			a.list("")
			v := time.Duration(rng.Int63n(spread))
			a.ttft.add(v)
			refTTFT[name].add(v)
			aggTTFT.add(v)
			if rng.Intn(10) > 0 { // an unfinished request has a TTFT only
				w := v + time.Duration(rng.Int63n(spread))
				a.e2e.add(w)
				refE2E[name].add(w)
				aggE2E.add(w)
			}
		}
		for _, s := range servers {
			s.seal(&s.rep)
		}

		want := Report{Classes: []ClassReport{}}
		names := make([]string, 0, len(refTTFT))
		for name := range refTTFT {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, d := range []*latDigest{aggTTFT, aggE2E} {
			want.RetainedSamples += d.retained()
			want.SketchedSamples += d.sketched()
		}
		for _, name := range names {
			ttft, e2e := refTTFT[name], refE2E[name]
			want.RetainedSamples += ttft.retained() + e2e.retained()
			want.SketchedSamples += ttft.sketched() + e2e.sketched()
			want.Classes = append(want.Classes, ClassReport{Class: name, TTFT: ttft.summary(), E2E: e2e.summary()})
		}
		want.TTFT, want.E2E = aggTTFT.summary(), aggE2E.summary()

		got := mergeReports(servers, nil)
		label := fmt.Sprintf("case %d: ExactSamples %d, %d requests over %d classes and %d replicas", c, knob, n, classes, replicas)
		if got.TTFT != want.TTFT || got.E2E != want.E2E {
			t.Fatalf("%s: aggregate TTFT %+v E2E %+v, reference %+v %+v", label, got.TTFT, got.E2E, want.TTFT, want.E2E)
		}
		if got.RetainedSamples != want.RetainedSamples || got.SketchedSamples != want.SketchedSamples {
			t.Fatalf("%s: %d retained + %d sketched samples, reference %d + %d", label,
				got.RetainedSamples, got.SketchedSamples, want.RetainedSamples, want.SketchedSamples)
		}
		if !reflect.DeepEqual(got.Classes, want.Classes) {
			t.Fatalf("%s: class rows\n%+v\nreference\n%+v", label, got.Classes, want.Classes)
		}
		slices.Reverse(servers)
		if back := mergeReports(servers, nil); !reflect.DeepEqual(back, got) {
			t.Fatalf("%s: merging the replicas in reverse changed the report\n%+v\n%+v", label, back, got)
		}

		switch {
		case aggTTFT.sketched() == 0:
			exactAgg++
		case slices.ContainsFunc(names, func(name string) bool { return refTTFT[name].sketched() == 0 && refTTFT[name].retained() > 0 }):
			mixed++
		default:
			sketchedAgg++
		}
	}
	if exactAgg == 0 || sketchedAgg == 0 || mixed == 0 {
		t.Errorf("cases with an exact aggregate %d, a sketched one %d, exact classes under a sketched aggregate %d: want each at least once",
			exactAgg, sketchedAgg, mixed)
	}
}

// TestDigestRunsMatchSummarize: the percentiles read from sorted runs where
// they lie equal summarize of the runs' concatenation, for random samples
// with ties and the extremes 0 and MaxInt64, split into runs at random; for
// samples drawn from three values; for runs that each repeat one value; and
// for runs of one sample each, more runs than rank keeps on its stack.
func TestDigestRunsMatchSummarize(t *testing.T) {
	const (
		random = iota
		duplicates
		equalRuns
		singles
		shapes
	)
	rng := sim.NewRNG(3)
	for c := 0; c < 4*500; c++ {
		shape := c % shapes
		n := 1 + rng.Intn(600)
		spread := []int64{1, 4, 1000, math.MaxInt64}[rng.Intn(4)]
		if shape == duplicates {
			spread = 3
		}
		all := make([]time.Duration, n)
		for i := range all {
			switch rng.Intn(20) {
			case 0:
				all[i] = 0
			case 1:
				all[i] = math.MaxInt64
			default:
				all[i] = time.Duration(rng.Int63n(spread))
			}
		}
		d := &latDigest{limit: n, n: n}
		for rest := slices.Clone(all); len(rest) > 0; {
			k := 1 + rng.Intn(len(rest))
			if shape == singles {
				k = 1
			}
			if shape == equalRuns {
				for i := range rest[:k] {
					rest[i] = rest[0]
				}
			}
			d.runs = append(d.runs, rest[:k:k])
			rest = rest[k:]
		}
		if shape == equalRuns {
			all = slices.Concat(d.runs...)
		}
		if got, want := d.summary(), summarize(all); got != want {
			t.Fatalf("case %d (shape %d): %d samples in %d runs: %+v, summarize %+v", c, shape, n, len(d.runs), got, want)
		}
	}
}

// TestDigestRunsNeverGrow: a digest's runs are 16, 32, 64, 128 and then 256
// slots; each is filled in turn and never reallocated, so after 780 adds the
// runs hold at most one 256-slot run beyond the samples.
func TestDigestRunsNeverGrow(t *testing.T) {
	const n = 780
	d := newLatDigest(DefaultExactSamples)
	var first []*time.Duration // each run's first slot, taken when it opens
	for i := 0; i < n; i++ {
		d.add(time.Duration(n - i))
		if len(d.runs) > len(first) {
			first = append(first, &d.runs[len(d.runs)-1][0])
		}
		for j, r := range d.runs {
			if &r[0] != first[j] {
				t.Fatalf("add %d reallocated run %d", i, j)
			}
		}
	}
	var slots int
	for j, r := range d.runs {
		if want := min(16<<j, 256); cap(r) != want {
			t.Errorf("run %d has %d slots, want %d", j, cap(r), want)
		}
		slots += cap(r)
	}
	if d.retained() != n || slots > n+256 {
		t.Errorf("%d retained samples in %d slots, want %d in at most %d", d.retained(), slots, n, n+256)
	}
}

// TestDigestMergeSharesRuns: a merge shares its sources' runs instead of
// copying them, and later adds on either side never reach the other: adds
// to the merged digest leave every source run's contents and length
// unchanged, and adds to a source leave the merged digest's samples alone.
func TestDigestMergeSharesRuns(t *testing.T) {
	rng := sim.NewRNG(5)
	sizes := []int{20, 47, 60, 100} // each leaves its last run with free slots
	srcs := make([]*latDigest, len(sizes))
	var before [][]time.Duration
	for i, size := range sizes {
		srcs[i] = newLatDigest(DefaultExactSamples)
		for j := 0; j < size; j++ {
			srcs[i].add(time.Duration(rng.Int63n(1000)))
		}
		for _, r := range srcs[i].runs {
			before = append(before, slices.Clone(r))
		}
	}
	d := newLatDigest(DefaultExactSamples)
	for _, s := range srcs {
		d.merge(s)
	}
	if len(d.runs) != len(before) {
		t.Fatalf("merged digest has %d runs, the sources %d", len(d.runs), len(before))
	}
	k := 0
	for _, s := range srcs {
		for _, r := range s.runs {
			if &d.runs[k][0] != &r[0] {
				t.Errorf("run %d was copied, not shared", k)
			}
			k++
		}
	}
	for i := 0; i < 500; i++ {
		d.add(time.Duration(1000 + i))
	}
	merged := slices.Clone(d.runs)
	for i := range merged {
		merged[i] = slices.Clone(merged[i])
	}
	k = 0
	for _, s := range srcs {
		for _, r := range s.runs {
			if !slices.Equal(r, before[k]) {
				t.Errorf("run %d changed under adds to the merged digest: %v, was %v", k, r, before[k])
			}
			k++
		}
		for i := 0; i < 50; i++ {
			s.add(-1)
		}
	}
	for i, r := range d.runs {
		if !slices.Equal(r, merged[i]) {
			t.Errorf("merged run %d changed under adds to a source: %v, was %v", i, r, merged[i])
		}
	}
}
