package offload

import (
	"time"

	"repro/internal/stream"
)

// Engine is the device's copy engine: one dedicated stream per direction, so
// H2D and D2H transfers overlap with each other and with compute, exactly
// like the DMA engines of a discrete GPU.
type Engine struct {
	link  *Link
	sched *stream.Scheduler
	h2d   stream.ID
	d2h   stream.ID

	bytesH2D int64
	bytesD2H int64
	copies   int64
}

// NewEngine creates a copy engine with two fresh streams on sched.
func NewEngine(link *Link, sched *stream.Scheduler) *Engine {
	return &Engine{
		link:  link,
		sched: sched,
		h2d:   sched.NewStream(),
		d2h:   sched.NewStream(),
	}
}

// Link returns the engine's interconnect model.
func (e *Engine) Link() *Link { return e.link }

// Scheduler returns the stream scheduler the engine enqueues on.
func (e *Engine) Scheduler() *stream.Scheduler { return e.sched }

// D2HStream exposes the device-to-host copy stream so callers can order
// work against those transfers with events.
func (e *Engine) D2HStream() stream.ID { return e.d2h }

// CopyH2D enqueues an asynchronous host-to-device copy and returns the event
// marking its completion. The host does not block.
func (e *Engine) CopyH2D(size int64, pinned bool) stream.Event {
	e.bytesH2D += size
	e.copies++
	e.sched.Launch(e.h2d, e.link.H2D(size, pinned))
	return e.sched.Record(e.h2d)
}

// CopyD2H enqueues an asynchronous device-to-host copy and returns its
// completion event.
func (e *Engine) CopyD2H(size int64, pinned bool) stream.Event {
	e.bytesD2H += size
	e.copies++
	e.sched.Launch(e.d2h, e.link.D2H(size, pinned))
	return e.sched.Record(e.d2h)
}

// After makes the next transfer in the given direction start no earlier than
// event ev (cudaStreamWaitEvent on the copy stream). Used to order a D2H
// behind the compute that produces its source.
func (e *Engine) After(dir Direction, ev stream.Event) {
	e.sched.WaitEvent(e.streamFor(dir), ev)
}

// Synchronize blocks the host until both copy streams drain.
func (e *Engine) Synchronize() {
	e.sched.Synchronize(e.h2d)
	e.sched.Synchronize(e.d2h)
}

// Busy reports whether either copy stream has transfers in flight.
func (e *Engine) Busy() bool {
	return e.sched.Busy(e.h2d) || e.sched.Busy(e.d2h)
}

// BytesH2D returns total bytes ever copied host-to-device.
func (e *Engine) BytesH2D() int64 { return e.bytesH2D }

// BytesD2H returns total bytes ever copied device-to-host.
func (e *Engine) BytesD2H() int64 { return e.bytesD2H }

// Copies returns the number of transfers ever enqueued.
func (e *Engine) Copies() int64 { return e.copies }

// Direction selects a copy stream.
type Direction int

// Copy directions.
const (
	HostToDevice Direction = iota
	DeviceToHost
)

func (e *Engine) streamFor(d Direction) stream.ID {
	if d == HostToDevice {
		return e.h2d
	}
	return e.d2h
}

// EstimateRoundTrip returns the time to move size bytes out and back with no
// overlap; a quick sizing helper for planners.
func (e *Engine) EstimateRoundTrip(size int64, pinned bool) time.Duration {
	return e.link.D2H(size, pinned) + e.link.H2D(size, pinned)
}
