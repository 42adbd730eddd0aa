// Package stream simulates CUDA streams and events on the virtual clock and
// implements the stream-aware allocation semantics of PyTorch's caching
// allocator (recordStream plus event-deferred frees).
//
// GPU work is asynchronous: the host enqueues kernels on streams and moves
// on, so a tensor freed by the host may still be read by an in-flight kernel.
// PyTorch solves this by recording, per allocation, every stream that used
// the buffer; when the buffer is freed, an event is recorded on each such
// stream and the block is only returned to the pool once all events have
// completed. This deferral keeps more blocks transiently unavailable and is
// one of the request-stream dynamics (alongside recomputation and
// offloading) that fragment the baseline allocator — the paper's
// Observation 1 in driver-level form.
//
// The simulation keeps one completion frontier per stream: the virtual time
// at which everything enqueued on the stream so far will have finished. The
// host clock and the frontiers together reproduce the ordering guarantees of
// real streams (FIFO within a stream, no order across streams) without
// modelling individual kernels.
package stream

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// ID names a stream. Stream 0 is the default (legacy) stream.
type ID int

// DefaultStream is the stream used by allocations that never declared one.
const DefaultStream ID = 0

// Scheduler owns all streams of one device and their completion frontiers.
// All latencies are charged to the shared virtual clock.
type Scheduler struct {
	clock     *sim.Clock
	frontiers []time.Duration // indexed by ID
	events    int64           // events ever recorded, for stats
}

// NewScheduler returns a scheduler with the default stream only. More
// streams are created with NewStream.
func NewScheduler(clock *sim.Clock) *Scheduler {
	return &Scheduler{clock: clock, frontiers: make([]time.Duration, 1)}
}

// NewStream creates a new stream and returns its ID.
func (s *Scheduler) NewStream() ID {
	s.frontiers = append(s.frontiers, s.clock.Now())
	return ID(len(s.frontiers) - 1)
}

// EventsRecorded returns how many events were ever recorded.
func (s *Scheduler) EventsRecorded() int64 { return s.events }

func (s *Scheduler) frontier(id ID) time.Duration {
	if int(id) >= len(s.frontiers) || id < 0 {
		panic(fmt.Sprintf("stream: unknown stream %d", id))
	}
	// A stream's work can never complete in the host's past.
	if f := s.frontiers[id]; f > s.clock.Now() {
		return f
	}
	return s.clock.Now()
}

// Launch enqueues work taking d of device time on stream id. The host does
// not block; only the stream's completion frontier moves.
func (s *Scheduler) Launch(id ID, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("stream: negative kernel duration %v", d))
	}
	s.frontiers[id] = s.frontier(id) + d
}

// Busy reports whether stream id still has unfinished work at the current
// host time.
func (s *Scheduler) Busy(id ID) bool { return s.frontiers[id] > s.clock.Now() }

// Synchronize blocks the host until stream id's enqueued work completes,
// advancing the clock to the stream's frontier (cudaStreamSynchronize).
func (s *Scheduler) Synchronize(id ID) {
	s.clock.AdvanceTo(s.frontier(id))
}

// SynchronizeAll blocks the host until every stream is idle
// (cudaDeviceSynchronize).
func (s *Scheduler) SynchronizeAll() {
	for id := range s.frontiers {
		s.Synchronize(ID(id))
	}
}

// Event is a marker in a stream's work queue (cudaEventRecord). It completes
// when everything enqueued on the stream before the record has finished.
type Event struct {
	when time.Duration
	set  bool
}

// Record captures the current completion frontier of stream id.
func (s *Scheduler) Record(id ID) Event {
	s.events++
	return Event{when: s.frontier(id), set: true}
}

// Done reports whether the event has completed at the current host time
// (cudaEventQuery). An event that was never recorded is complete.
func (e Event) Done(clock *sim.Clock) bool {
	return !e.set || e.when <= clock.Now()
}

// Sync blocks the host until the event completes (cudaEventSynchronize).
func (e Event) Sync(clock *sim.Clock) {
	if e.set {
		clock.AdvanceTo(e.when)
	}
}

// CompletesAt returns the event's completion time; zero if never recorded.
func (e Event) CompletesAt() time.Duration { return e.when }
