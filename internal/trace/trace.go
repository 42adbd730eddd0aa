// Package trace records and replays allocation request streams. A Recorder
// wraps any memalloc.Allocator and logs every Alloc/Free with its virtual
// timestamp; the log supports the paper's Figure 5 stream statistics
// (allocation count and mean size), JSON export, and deterministic replay
// against a different allocator for differential testing.
//
// Naming note: this package records *allocator events* — the memory-level
// view underneath a workload. The similarly named internal/reqtrace package
// records *serving requests* (arrival, class, SLO, token counts) at the
// inference-serving layer; the two trace layers observe different systems
// and share nothing but the word.
package trace

import (
	"fmt"
	"time"

	"repro/internal/memalloc"
	"repro/internal/sim"
)

// Op is the event kind.
type Op uint8

// Event kinds.
const (
	OpAlloc Op = iota
	OpFree
)

// Event is one allocation-stream event. Free events reference the Alloc
// event they release through ID.
type Event struct {
	Op   Op
	ID   int64 // allocation identity, assigned at Alloc
	Size int64 // requested bytes (Alloc events)
	T    time.Duration
}

// Trace is a recorded request stream.
type Trace struct {
	Events []Event
}

// Stats summarizes a trace the way the paper's Figure 5 caption does.
type Stats struct {
	Allocs    int64
	Frees     int64
	Bytes     int64 // total requested bytes across allocs
	MeanBytes int64
}

// Stats computes stream statistics.
func (t *Trace) Stats() Stats {
	var s Stats
	for _, e := range t.Events {
		switch e.Op {
		case OpAlloc:
			s.Allocs++
			s.Bytes += e.Size
		case OpFree:
			s.Frees++
		}
	}
	if s.Allocs > 0 {
		s.MeanBytes = s.Bytes / s.Allocs
	}
	return s
}

// Recorder wraps an allocator and records its request stream.
type Recorder struct {
	inner memalloc.Allocator
	clock *sim.Clock
	trace Trace
	ids   map[*memalloc.Buffer]int64
	next  int64
}

// NewRecorder wraps inner, timestamping events from clock.
func NewRecorder(inner memalloc.Allocator, clock *sim.Clock) *Recorder {
	return &Recorder{inner: inner, clock: clock, ids: make(map[*memalloc.Buffer]int64)}
}

// Name implements memalloc.Allocator.
func (r *Recorder) Name() string { return r.inner.Name() + "+trace" }

// Alloc implements memalloc.Allocator.
func (r *Recorder) Alloc(size int64) (*memalloc.Buffer, error) {
	b, err := r.inner.Alloc(size)
	if err != nil {
		return nil, err
	}
	r.next++
	r.ids[b] = r.next
	r.trace.Events = append(r.trace.Events, Event{Op: OpAlloc, ID: r.next, Size: size, T: r.clock.Now()})
	return b, nil
}

// Free implements memalloc.Allocator.
func (r *Recorder) Free(b *memalloc.Buffer) {
	id, ok := r.ids[b]
	if !ok {
		panic("trace: Free of unrecorded buffer")
	}
	delete(r.ids, b)
	r.trace.Events = append(r.trace.Events, Event{Op: OpFree, ID: id, T: r.clock.Now()})
	r.inner.Free(b)
}

// Stats implements memalloc.Allocator.
func (r *Recorder) Stats() memalloc.Stats { return r.inner.Stats() }

// EmptyCache implements memalloc.Allocator.
func (r *Recorder) EmptyCache() { r.inner.EmptyCache() }

// Trace returns the recorded stream.
func (r *Recorder) Trace() *Trace { return &r.trace }

// Replay applies a recorded stream to alloc. It returns the first allocation
// error encountered (freeing everything live first) or nil. Timestamps are
// not reproduced — the target allocator charges its own costs.
func Replay(t *Trace, alloc memalloc.Allocator) error {
	live := make(map[int64]*memalloc.Buffer)
	fail := func(err error) error {
		for _, b := range live {
			alloc.Free(b)
		}
		return err
	}
	for _, e := range t.Events {
		switch e.Op {
		case OpAlloc:
			b, err := alloc.Alloc(e.Size)
			if err != nil {
				return fail(fmt.Errorf("trace: replay alloc %d (%d bytes): %w", e.ID, e.Size, err))
			}
			live[e.ID] = b
		case OpFree:
			b, ok := live[e.ID]
			if !ok {
				return fail(fmt.Errorf("trace: replay free of unknown id %d", e.ID))
			}
			delete(live, e.ID)
			alloc.Free(b)
		}
	}
	for _, b := range live {
		alloc.Free(b)
	}
	return nil
}
