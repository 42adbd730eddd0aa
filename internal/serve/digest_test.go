package serve

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

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
