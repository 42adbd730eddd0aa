package stream_test

import (
	"fmt"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/stream"
)

// ExampleAllocator shows PyTorch's record_stream semantics: a free is
// deferred while another stream may still be reading the buffer.
func ExampleAllocator() {
	clock := sim.NewClock()
	drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 8*sim.GiB), clock, sim.DefaultCostModel())
	sched := stream.NewScheduler(clock)
	alloc := stream.NewAllocator(caching.New(drv), sched)

	side := sched.NewStream()
	b, err := alloc.Alloc(256 * sim.MiB)
	if err != nil {
		panic(err)
	}
	sched.Launch(side, 10*1e6) // a 10 ms kernel reading b
	alloc.RecordStream(b, side)
	alloc.Free(b)
	fmt.Printf("pending frees while the kernel runs: %d\n", alloc.PendingFrees())

	sched.Synchronize(side)
	alloc.ProcessEvents()
	fmt.Printf("pending frees after sync: %d\n", alloc.PendingFrees())
	// Output:
	// pending frees while the kernel runs: 1
	// pending frees after sync: 0
}
