package reqtrace

import (
	"fmt"
	"math"
	"time"

	"repro/internal/serve"
)

// Capture collects the requests a serving run completes. Install its Hook
// as serve.ServerConfig.OnComplete (directly, or via ClusterConfig.Server
// for a whole fleet — every replica then feeds the same capture), run the
// workload, and read the result with Trace. The trace is canonicalized by
// arrival order, so it is identical whether the run was a single server or
// an elastic work-stealing cluster whose replicas completed in any
// interleaving.
//
// A Capture belongs to one run: serving runs are single-goroutine
// co-simulations, so the hook needs no locking, but two concurrent runs
// must not share one Capture.
type Capture struct {
	reqs []serve.Request
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Hook is the completion callback to install as ServerConfig.OnComplete.
func (c *Capture) Hook() func(serve.Request) {
	return func(r serve.Request) { c.reqs = append(c.reqs, r) }
}

// Count is how many completions have been recorded.
func (c *Capture) Count() int { return len(c.reqs) }

// Trace returns the captured requests as a canonical trace (sorted by
// arrival, completion order discarded).
func (c *Capture) Trace() Trace { return FromRequests(c.reqs) }

// ReplayOptions tunes Trace.Replay.
type ReplayOptions struct {
	// N is the number of requests to produce: 0 replays the whole trace
	// once, a smaller value truncates it, a larger value loops it — each
	// pass shifted by a constant period (the trace span plus one mean
	// interarrival gap, so the seam does not glue the last and first
	// arrivals together).
	N int

	// Scale multiplies the request rate: 2 halves every arrival offset,
	// 0.5 doubles them. 0 (or 1) replays at the recorded rate. Token
	// counts are never scaled.
	Scale float64
}

// Replay turns the trace back into a request stream. With the zero options
// the stream is exactly Records: the same tuples servegen generated, so
// serving it reproduces the original report byte for byte. A scaled or
// looped arrival past the virtual clock's range is an error, not a wrapped
// negative instant.
func (t Trace) Replay(opts ReplayOptions) ([]serve.Request, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if opts.N < 0 {
		return nil, fmt.Errorf("reqtrace: replay of %d requests", opts.N)
	}
	if opts.Scale < 0 || math.IsNaN(opts.Scale) || math.IsInf(opts.Scale, 0) {
		return nil, fmt.Errorf("reqtrace: replay scale %g", opts.Scale)
	}
	n := opts.N
	if n == 0 {
		n = len(t.Records)
	}
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	n0 := len(t.Records)
	span := t.Span()
	// The loop period: span plus one mean gap; degenerate single-point or
	// zero-span traces fall back to a one-second gap.
	gap := time.Second
	if n0 > 1 && span > 0 {
		gap = span / time.Duration(n0-1)
	}
	period := span + gap

	out := make([]serve.Request, n)
	for i := range out {
		r := t.Records[i%n0]
		pass := i / n0
		at := r.ArrivalAt
		// A period past the range has wrapped negative.
		fits := pass == 0 || period > 0 && period <= (math.MaxInt64-at)/time.Duration(pass)
		if fits {
			at += time.Duration(pass) * period
		}
		if fits && scale != 1 {
			// float64(MaxInt64) rounds up to 2^63, the first value past
			// the range.
			f := float64(at) / scale
			fits = f < float64(math.MaxInt64)
			at = time.Duration(f)
		}
		if !fits {
			return nil, fmt.Errorf("reqtrace: replayed request %d arrives past the clock's range at scale %g", i, scale)
		}
		r.ID = i
		r.ArrivalAt = at
		if r.SessionID != "" && pass > 0 {
			// Each loop pass replays distinct conversations: suffixing the
			// session id by the pass keeps a looped session from colliding
			// with its earlier copies (same turns, much later arrivals),
			// which would violate turn ordering and fake prefix hits.
			r.SessionID = fmt.Sprintf("%s~%d", r.SessionID, pass)
		}
		out[i] = r
	}
	return out, nil
}
