package fragstat_test

import (
	"fmt"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/fragstat"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// ExampleCapture inspects an allocator's free space with the classic
// fragmentation indices.
func ExampleCapture() {
	drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 8*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
	alloc := caching.New(drv)

	// Leave two scattered 256 MiB holes behind pinned neighbours.
	var hold, free []*memalloc.Buffer
	for i := 0; i < 4; i++ {
		a, _ := alloc.Alloc(256 * sim.MiB)
		b, _ := alloc.Alloc(256 * sim.MiB)
		hold, free = append(hold, a), append(free, b)
	}
	for _, b := range free {
		alloc.Free(b)
	}

	snap, ok := fragstat.Capture(alloc)
	fmt.Printf("captured: %v, free blocks: %d\n", ok, len(snap.Free))
	fmt.Printf("a 1 GiB request finds %.0f%% of free space unusable\n",
		100*snap.UnusableIndex(1*sim.GiB))
	for _, b := range hold {
		alloc.Free(b)
	}
	// Output:
	// captured: true, free blocks: 4
	// a 1 GiB request finds 100% of free space unusable
}
