package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// Example shows the core of the paper in a few lines: free blocks too small
// individually for a new request are stitched into one contiguous virtual
// range, so reserved memory does not grow.
func Example() {
	drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 8*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
	alloc := core.NewDefault(drv)

	var bufs []*memalloc.Buffer
	for i := 0; i < 4; i++ {
		b, err := alloc.Alloc(512 * sim.MiB)
		if err != nil {
			panic(err)
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		alloc.Free(b)
	}

	// 2 GiB from four scattered 512 MiB blocks: no new physical memory.
	big, err := alloc.Alloc(2 * sim.GiB)
	if err != nil {
		panic(err)
	}
	defer alloc.Free(big)

	st := alloc.Stats()
	fmt.Printf("reserved %.0f GiB, utilization %.0f%%\n",
		float64(st.Reserved)/float64(sim.GiB), 100*st.Utilization())
	// Output: reserved 2 GiB, utilization 100%
}

// ExampleAllocator_StrategyCounts demonstrates convergence: a repeating
// allocation pattern is served entirely by exact matches after warm-up.
func ExampleAllocator_StrategyCounts() {
	drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 4*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
	alloc := core.NewDefault(drv)

	iteration := func() {
		a, _ := alloc.Alloc(300 * sim.MiB)
		b, _ := alloc.Alloc(700 * sim.MiB)
		alloc.Free(a)
		alloc.Free(b)
	}
	iteration() // warm-up
	s1Before, _, _, _ := alloc.StrategyCounts()
	for i := 0; i < 10; i++ {
		iteration()
	}
	s1After, _, _, _ := alloc.StrategyCounts()
	fmt.Println("steady-state exact matches:", s1After-s1Before)
	// Output: steady-state exact matches: 20
}
