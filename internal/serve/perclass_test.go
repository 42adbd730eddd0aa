package serve

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// classedRequests builds two classes of identical shape: "gold" (priority
// 2, interactive) and "bulk" (priority 0, batch), all available at t=0.
func classedRequests(n int) []Request {
	reqs := make([]Request, 0, 2*n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{
			ID: len(reqs), Class: "bulk", SLO: "batch", Priority: 0,
			PromptLen: 64, OutputLen: 32,
		})
		reqs = append(reqs, Request{
			ID: len(reqs), Class: "gold", SLO: "interactive", Priority: 2,
			PromptLen: 64, OutputLen: 32,
		})
	}
	return reqs
}

func TestPerClassReportStructure(t *testing.T) {
	reqs := classedRequests(10)
	mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("%d class reports, want 2", len(rep.Classes))
	}
	if rep.Classes[0].Class != "bulk" || rep.Classes[1].Class != "gold" {
		t.Fatalf("classes not sorted: %s, %s", rep.Classes[0].Class, rep.Classes[1].Class)
	}
	var served int
	var share float64
	for _, c := range rep.Classes {
		served += c.Served
		share += c.KVShare
		if c.TTFT.P50 <= 0 || c.TTFT.P50 > c.TTFT.P95 || c.TTFT.P95 > c.TTFT.P99 {
			t.Fatalf("%s: TTFT percentiles disordered: %+v", c.Class, c.TTFT)
		}
		if c.E2E.P50 < c.TTFT.P50 {
			t.Fatalf("%s: e2e p50 below TTFT p50", c.Class)
		}
		if c.MeanKVTokens <= 0 {
			t.Fatalf("%s: no KV occupancy", c.Class)
		}
	}
	if served != rep.Served || served != len(reqs) {
		t.Fatalf("class served %d, report %d, want %d", served, rep.Served, len(reqs))
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("KV shares sum to %.4f", share)
	}
	if rep.Class("gold") == nil || rep.Class("nope") != nil {
		t.Fatal("Class lookup broken")
	}
	if rep.Duration <= 0 {
		t.Fatal("no virtual makespan")
	}
}

// TestPriorityAdmissionOrdersTTFT: with a pool that holds only a few
// sequences, the high-priority class must be admitted first and see far
// lower TTFT than the low-priority class submitted at the same instant.
func TestPriorityAdmissionOrdersTTFT(t *testing.T) {
	reqs := classedRequests(12)
	// 4-sequence pool: 4 × (64+32) tokens of OPT-1.3B KV.
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	gold, bulk := rep.Class("gold"), rep.Class("bulk")
	if gold == nil || bulk == nil {
		t.Fatal("missing class reports")
	}
	if gold.TTFT.P95 >= bulk.TTFT.P50 {
		t.Fatalf("priority admission broken: gold TTFT p95 %v vs bulk p50 %v",
			gold.TTFT.P95, bulk.TTFT.P50)
	}
}

// TestPreemptionPrefersLowPriority: when a mid-decode reservation hits the
// memory wall, the batch class must be evicted, never the interactive one.
func TestPreemptionPrefersLowPriority(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "bulk", SLO: "batch", Priority: 0, PromptLen: 16, OutputLen: 64},
		{ID: 1, Class: "bulk", SLO: "batch", Priority: 0, PromptLen: 16, OutputLen: 64},
		{ID: 2, Class: "gold", SLO: "interactive", Priority: 2, PromptLen: 16, OutputLen: 64},
	}
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 3 {
		t.Fatalf("served %d of 3", rep.Served)
	}
	if rep.Preemptions == 0 {
		t.Fatal("expected preemptions on a 7-block pool")
	}
	if g := rep.Class("gold"); g.Preemptions != 0 {
		t.Fatalf("interactive class preempted %d times with batch victims available", g.Preemptions)
	}
	if b := rep.Class("bulk"); b.Preemptions != rep.Preemptions {
		t.Fatalf("bulk preemptions %d, total %d", b.Preemptions, rep.Preemptions)
	}
}

// TestArrivalsRespected: the server never admits a request before its
// arrival, idles forward to the next arrival, and TTFT is measured from
// arrival, not from t=0.
func TestArrivalsRespected(t *testing.T) {
	gap := 5 * time.Second
	reqs := []Request{
		{ID: 0, Class: "a", PromptLen: 8, OutputLen: 4},
		{ID: 1, Class: "b", PromptLen: 8, OutputLen: 4, ArrivalAt: gap},
	}
	mgr := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration < gap {
		t.Fatalf("makespan %v ends before the second arrival at %v", rep.Duration, gap)
	}
	b := rep.Class("b")
	// If arrival were ignored, b's TTFT would include the 5s wait.
	if b.TTFT.P50 > time.Second {
		t.Fatalf("b's TTFT %v includes pre-arrival time", b.TTFT.P50)
	}
	// The idle server must fast-forward, not spin: two short requests
	// yield only a handful of steps.
	if rep.Steps > 20 {
		t.Fatalf("%d steps for 8 output tokens; idle spin suspected", rep.Steps)
	}
}

// TestServeDeterministic: identical inputs produce identical reports,
// including the per-class latency tables.
func TestServeDeterministic(t *testing.T) {
	run := func() Report {
		reqs := classedRequests(15)
		mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 32)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 6})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Classes) != len(b.Classes) {
		t.Fatal("class counts differ")
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			t.Fatalf("class report %d differs:\n%+v\n%+v", i, a.Classes[i], b.Classes[i])
		}
	}
	if a.Duration != b.Duration || a.Steps != b.Steps || a.Preemptions != b.Preemptions {
		t.Fatal("aggregate run state differs across identical runs")
	}
}

// TestNoMutualPreemptionLivelock: two same-priority sequences that each
// fit the pool alone but cannot coexist must not preempt each other
// forever. The victim rule (only strictly-lower priority, or same priority
// admitted later) keeps the older sequence unevictable, so it completes
// and the run terminates.
func TestNoMutualPreemptionLivelock(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "a", Priority: 2, PromptLen: 64, OutputLen: 120}, // 12 blocks at completion
		{ID: 1, Class: "b", Priority: 2, PromptLen: 64, OutputLen: 120}, // 12 blocks at completion
	}
	// 16 blocks: each sequence fits alone (12), the pair (24) never does,
	// and growing in lockstep they collide mid-decode at 17.
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 2})
		done <- result{rep, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.rep.Served != 2 {
			t.Fatalf("served %d of 2", res.rep.Served)
		}
		if res.rep.Preemptions == 0 {
			t.Fatal("the pair coexisted; the testbed no longer exercises preemption")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mutual-preemption livelock: Serve did not terminate")
	}
}

// TestLatencySummaryPercentiles pins the nearest-rank definition.
func TestLatencySummaryPercentiles(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(samples)
	if s.P50 != 50*time.Millisecond || s.P95 != 95*time.Millisecond || s.P99 != 99*time.Millisecond {
		t.Fatalf("percentiles %+v", s)
	}
	if (summarize(nil) != LatencySummary{}) {
		t.Fatal("empty sample summary not zero")
	}
	one := summarize([]time.Duration{time.Second})
	if one.P50 != time.Second || one.P99 != time.Second {
		t.Fatalf("singleton summary %+v", one)
	}
}
