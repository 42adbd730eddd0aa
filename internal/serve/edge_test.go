package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestSummarizeEdgeCases tables the degenerate sample shapes a rendered
// report must survive: no samples, a single sample (all three percentiles
// are that sample under nearest-rank), and a pair.
func TestSummarizeEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		want    LatencySummary
	}{
		{name: "empty", samples: nil, want: LatencySummary{}},
		{
			name:    "one-sample",
			samples: []time.Duration{7 * time.Millisecond},
			want: LatencySummary{
				P50: 7 * time.Millisecond,
				P95: 7 * time.Millisecond,
				P99: 7 * time.Millisecond,
			},
		},
		{
			// Nearest rank over n=2: p50 → rank 1, p95/p99 → rank 2.
			name:    "two-samples",
			samples: []time.Duration{3 * time.Millisecond, 9 * time.Millisecond},
			want: LatencySummary{
				P50: 3 * time.Millisecond,
				P95: 9 * time.Millisecond,
				P99: 9 * time.Millisecond,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := summarize(tc.samples); got != tc.want {
				t.Errorf("summarize = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestLatDigestEmptySummary: a digest that never saw a sample renders zero
// percentiles on both the exact path and the sketch path (a limit of 0
// sketches from the first sample, so its empty state is an empty sketch
// rather than an empty slice).
func TestLatDigestEmptySummary(t *testing.T) {
	if got := newLatDigest(DefaultExactSamples).summary(); got != (LatencySummary{}) {
		t.Errorf("empty exact digest = %+v", got)
	}
	d := newLatDigest(0) // sketch-only
	d.spill()
	if got := d.summary(); got != (LatencySummary{}) {
		t.Errorf("empty sketched digest = %+v", got)
	}
}

// TestClassRowsZeroCompletionClass: a class whose only requests never
// completed (it exists in the roster via recordUnfinished) must render a
// zero row — no division by zero steps or token·steps, no NaN in the
// occupancy columns.
func TestClassRowsZeroCompletionClass(t *testing.T) {
	tl := newTally(DefaultExactSamples)
	tl.recordUnfinished(&track{req: &Request{Class: "stranded", SLO: "interactive"}})
	var rep Report
	tl.seal(&rep)
	rows := rep.Classes
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Served != 0 || r.TTFT != (LatencySummary{}) || r.E2E != (LatencySummary{}) {
		t.Errorf("zero-completion class row %+v", r)
	}
	if math.IsNaN(r.MeanKVTokens) || math.IsNaN(r.KVShare) {
		t.Errorf("NaN in occupancy: mean=%v share=%v", r.MeanKVTokens, r.KVShare)
	}
	if r.MeanKVTokens != 0 || r.KVShare != 0 {
		t.Errorf("occupancy of a class that held nothing: %+v", r)
	}
}

// TestServeSingleRequestReport: a one-request run end to end. Every
// rendered figure must be finite and the percentile columns collapse to
// the one request's latencies.
func TestServeSingleRequestReport(t *testing.T) {
	reqs := []Request{{ID: 0, PromptLen: 16, OutputLen: 4, Class: "solo", SLO: "interactive"}}
	mgr := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 1 {
		t.Fatalf("served %d", rep.Served)
	}
	for label, v := range map[string]float64{
		"MeanBatch":   rep.MeanBatch,
		"Utilization": rep.Utilization(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", label, v)
		}
	}
	if rep.TTFT.P50 != rep.TTFT.P99 || rep.E2E.P50 != rep.E2E.P99 {
		t.Errorf("single-request percentiles differ: TTFT %+v E2E %+v", rep.TTFT, rep.E2E)
	}
	if rep.TTFT.P50 <= 0 || rep.E2E.P50 < rep.TTFT.P50 {
		t.Errorf("implausible latencies: TTFT %v E2E %v", rep.TTFT.P50, rep.E2E.P50)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "solo" || rep.Classes[0].Served != 1 {
		t.Errorf("classes %+v", rep.Classes)
	}
	if got := rep.Classes[0]; math.IsNaN(got.MeanKVTokens) || math.IsNaN(got.KVShare) {
		t.Errorf("NaN in the class row: %+v", got)
	}
}

// TestStepPastClockRange: a request that arrives a millisecond before the
// clock's end cannot be served, since its first step would carry the clock
// past its range. The run fails with one serve: error that names the range
// instead of wrapping to negative latencies, and the request's deadline
// (arrival plus timeout, past the range too) saturates instead of wrapping
// to an instant it has already missed.
func TestStepPastClockRange(t *testing.T) {
	reqs := []Request{{ID: 0, PromptLen: 16, OutputLen: 4, Class: "late", ArrivalAt: math.MaxInt64 - time.Millisecond}}
	mgr := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4, Timeout: time.Second})
	if err == nil || !strings.HasPrefix(err.Error(), "serve: ") || !strings.Contains(err.Error(), "past the clock's range") {
		t.Fatalf("err %v, want the clock's range", err)
	}
	if rep.Steps != 0 || rep.DeadlineMisses != 0 || rep.Served != 0 {
		t.Errorf("%d steps, %d deadline misses, %d served; want none", rep.Steps, rep.DeadlineMisses, rep.Served)
	}
	if rep.TTFT.P50 < 0 || rep.E2E.P50 < 0 || rep.Duration < 0 {
		t.Errorf("negative latency or duration: TTFT %+v E2E %+v duration %v", rep.TTFT, rep.E2E, rep.Duration)
	}
}
