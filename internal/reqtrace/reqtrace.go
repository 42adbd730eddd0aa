// Package reqtrace captures, stores, replays and calibrates request-level
// serving traces: the (arrival offset, client class, SLO, priority, prompt
// tokens, output tokens) tuples a multi-tenant inference service observes,
// plus the session identity (SessionID/Turn) of multi-turn workloads.
// It closes the specify→observe→calibrate loop around internal/servegen:
// a synthetic mix generates a stream, a Capture hook records what a
// Serve/ServeCluster run actually completed, Replay turns the trace back
// into the byte-identical request stream (optionally rate-scaled, truncated
// or looped), and Fit recovers a servegen.Mix — class shares, arrival
// burstiness, on-off duty cycles, length distributions — from any trace so
// hand-picked mixes can be replaced by calibrated ones.
//
// Traces persist as versioned JSONL or CSV (see io.go); both round-trip
// exactly, so capture→write→read→replay reproduces a serving report byte
// for byte.
//
// This package records *serving requests*; its sibling internal/optrace
// records *allocator operations* (every Alloc/Free a workload issues against
// a memory allocator, the paper's Figure 5 streams).
package reqtrace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/serve"
)

// Version is the trace-format version this package reads and writes.
// Readers reject traces from a newer format rather than misparse them.
const Version = 1

// Record is one request of a trace: everything needed to re-issue the
// request on a serving substrate. Arrival is the offset from the trace
// start on the virtual clock; token counts are the request's prompt and
// output lengths.
type Record struct {
	Arrival  time.Duration
	Class    string
	SLO      string
	Priority int
	Prompt   int
	Output   int

	// SessionID and Turn carry the request's multi-turn session identity
	// (serve.Request.SessionID/Turn). Both zero for one-shot requests —
	// traces captured before the session format extension read back with
	// exactly these zero values.
	SessionID string
	Turn      int
}

// Trace is an ordered request trace: records sorted by arrival offset.
type Trace struct {
	Records []Record
}

// FromRequests converts a request stream into a trace. Records are stably
// sorted by (arrival, ID), which canonicalizes any completion or shard
// order back to the generator's arrival order — the property that makes
// generate→capture→replay round-trip exactly.
func FromRequests(reqs []serve.Request) Trace {
	sorted := append([]serve.Request(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].ArrivalAt != sorted[j].ArrivalAt {
			return sorted[i].ArrivalAt < sorted[j].ArrivalAt
		}
		return sorted[i].ID < sorted[j].ID
	})
	t := Trace{Records: make([]Record, len(sorted))}
	for i, r := range sorted {
		t.Records[i] = Record{
			Arrival:   r.ArrivalAt,
			Class:     r.Class,
			SLO:       r.SLO,
			Priority:  r.Priority,
			Prompt:    r.PromptLen,
			Output:    r.OutputLen,
			SessionID: r.SessionID,
			Turn:      r.Turn,
		}
	}
	return t
}

// Requests converts the trace back into a request stream, numbering the
// requests 0..n-1 in record order — exactly how servegen numbers a
// generated stream after its arrival sort.
func (t Trace) Requests() []serve.Request {
	out := make([]serve.Request, len(t.Records))
	for i, r := range t.Records {
		out[i] = serve.Request{
			ID:        i,
			Class:     r.Class,
			SLO:       r.SLO,
			Priority:  r.Priority,
			ArrivalAt: r.Arrival,
			PromptLen: r.Prompt,
			OutputLen: r.Output,
			SessionID: r.SessionID,
			Turn:      r.Turn,
		}
	}
	return out
}

// Validate checks the trace is well-formed: at least one record, arrivals
// non-negative and non-decreasing, token counts positive, and session
// identity consistent — a sessionless record carries Turn 0, and a session's
// turns appear in strictly increasing Turn order along the trace (arrival
// order), since turn N+1 cannot have been observed before turn N.
func (t Trace) Validate() error {
	if len(t.Records) == 0 {
		return fmt.Errorf("reqtrace: empty trace")
	}
	lastTurn := map[string]int{}
	for i, r := range t.Records {
		if r.Arrival < 0 {
			return fmt.Errorf("reqtrace: record %d arrival %v", i, r.Arrival)
		}
		if i > 0 && r.Arrival < t.Records[i-1].Arrival {
			return fmt.Errorf("reqtrace: record %d arrival %v before record %d at %v",
				i, r.Arrival, i-1, t.Records[i-1].Arrival)
		}
		if r.Prompt <= 0 || r.Output <= 0 {
			return fmt.Errorf("reqtrace: record %d tokens prompt=%d output=%d", i, r.Prompt, r.Output)
		}
		if r.SessionID == "" {
			if r.Turn != 0 {
				return fmt.Errorf("reqtrace: record %d has turn %d without a session id", i, r.Turn)
			}
			continue
		}
		if r.Turn < 0 {
			return fmt.Errorf("reqtrace: record %d session %q turn %d", i, r.SessionID, r.Turn)
		}
		if last, seen := lastTurn[r.SessionID]; seen && r.Turn <= last {
			return fmt.Errorf("reqtrace: record %d session %q turn %d not after turn %d",
				i, r.SessionID, r.Turn, last)
		}
		lastTurn[r.SessionID] = r.Turn
	}
	return nil
}

// Span is the arrival offset of the last record — the trace's horizon.
func (t Trace) Span() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Arrival
}

// ClassStats is the per-client-class slice of a trace summary.
type ClassStats struct {
	Class string
	SLO   string

	Requests int
	Share    float64 // fraction of the trace's requests
	// RatePerSec is the class's mean arrival rate over the trace span.
	RatePerSec float64

	MeanPrompt, MeanOutput float64
	MinPrompt, MaxPrompt   int
	MinOutput, MaxOutput   int
}

// Stats summarizes a trace: aggregate rate and token means plus the
// per-class breakdown, classes sorted by name.
type Stats struct {
	Requests   int
	Span       time.Duration
	RatePerSec float64

	MeanPrompt, MeanOutput float64

	Classes []ClassStats
}

// Stats computes the trace summary. An empty class name reports as
// "default", matching how serve reports it.
func (t Trace) Stats() Stats {
	s := Stats{Requests: len(t.Records), Span: t.Span()}
	if s.Requests == 0 {
		return s
	}
	if sec := s.Span.Seconds(); sec > 0 {
		s.RatePerSec = float64(s.Requests) / sec
	}
	byClass := map[string]*ClassStats{}
	for _, r := range t.Records {
		s.MeanPrompt += float64(r.Prompt)
		s.MeanOutput += float64(r.Output)
		name := r.Class
		if name == "" {
			name = "default"
		}
		c := byClass[name]
		if c == nil {
			c = &ClassStats{Class: name, SLO: r.SLO,
				MinPrompt: r.Prompt, MaxPrompt: r.Prompt,
				MinOutput: r.Output, MaxOutput: r.Output}
			byClass[name] = c
		}
		c.Requests++
		c.MeanPrompt += float64(r.Prompt)
		c.MeanOutput += float64(r.Output)
		if r.Prompt < c.MinPrompt {
			c.MinPrompt = r.Prompt
		}
		if r.Prompt > c.MaxPrompt {
			c.MaxPrompt = r.Prompt
		}
		if r.Output < c.MinOutput {
			c.MinOutput = r.Output
		}
		if r.Output > c.MaxOutput {
			c.MaxOutput = r.Output
		}
	}
	s.MeanPrompt /= float64(s.Requests)
	s.MeanOutput /= float64(s.Requests)
	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := byClass[name]
		c.Share = float64(c.Requests) / float64(s.Requests)
		if sec := s.Span.Seconds(); sec > 0 {
			c.RatePerSec = float64(c.Requests) / sec
		}
		c.MeanPrompt /= float64(c.Requests)
		c.MeanOutput /= float64(c.Requests)
		s.Classes = append(s.Classes, *c)
	}
	return s
}
