package reqtrace

import (
	"math"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestStatsEdgeCases hardens Stats against the degenerate shapes a capture
// can legitimately produce: the zero-length trace a capture that saw no
// completions yields, and the single-record trace whose span — last arrival
// offset — is zero, which must not divide through to Inf or NaN rates.
func TestStatsEdgeCases(t *testing.T) {
	finite := func(t *testing.T, label string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", label, v)
		}
	}
	checkFinite := func(t *testing.T, s Stats) {
		t.Helper()
		finite(t, "RatePerSec", s.RatePerSec)
		finite(t, "MeanPrompt", s.MeanPrompt)
		finite(t, "MeanOutput", s.MeanOutput)
		for _, c := range s.Classes {
			finite(t, c.Class+".RatePerSec", c.RatePerSec)
			finite(t, c.Class+".Share", c.Share)
			finite(t, c.Class+".MeanPrompt", c.MeanPrompt)
			finite(t, c.Class+".MeanOutput", c.MeanOutput)
		}
	}

	for _, tc := range []struct {
		name  string
		trace Trace
		reqs  int
		span  time.Duration
		rate  float64
	}{
		{name: "empty", trace: Trace{}},
		{
			// One record arriving at offset 0: span 0, so no rate is
			// computable — it must report 0, not +Inf.
			name: "single-at-zero",
			trace: Trace{Records: []serve.Request{
				{ArrivalAt: 0, Class: "chat", SLO: "interactive", PromptLen: 120, OutputLen: 64},
			}},
			reqs: 1,
		},
		{
			// One record at a positive offset: the span is that offset and
			// the rate is finite.
			name: "single-late",
			trace: Trace{Records: []serve.Request{
				{ArrivalAt: 2 * time.Second, PromptLen: 8, OutputLen: 4},
			}},
			reqs: 1, span: 2 * time.Second, rate: 0.5,
		},
		{
			// All records at the same instant: positive count, zero span.
			name: "simultaneous",
			trace: Trace{Records: []serve.Request{
				{ArrivalAt: 0, PromptLen: 10, OutputLen: 5},
				{ArrivalAt: 0, PromptLen: 30, OutputLen: 15},
			}},
			reqs: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.trace.Stats()
			checkFinite(t, s)
			if s.Requests != tc.reqs {
				t.Errorf("Requests = %d, want %d", s.Requests, tc.reqs)
			}
			if s.Span != tc.span {
				t.Errorf("Span = %v, want %v", s.Span, tc.span)
			}
			if s.RatePerSec != tc.rate {
				t.Errorf("RatePerSec = %g, want %g", s.RatePerSec, tc.rate)
			}
		})
	}

	// The single-record class row carries the degenerate moments exactly.
	s := Trace{Records: []serve.Request{
		{ArrivalAt: 0, Class: "chat", SLO: "interactive", PromptLen: 120, OutputLen: 64},
	}}.Stats()
	if len(s.Classes) != 1 {
		t.Fatalf("classes = %d", len(s.Classes))
	}
	c := s.Classes[0]
	if c.Share != 1 || c.MeanPrompt != 120 || c.MeanOutput != 64 || c.RatePerSec != 0 {
		t.Errorf("single-record class row %+v", c)
	}
}
