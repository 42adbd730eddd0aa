// Quickstart: allocate GPU memory through GMLake and watch virtual memory
// stitching defeat fragmentation.
//
// The program builds the paper's Figure 1 scenario by hand: several
// scattered blocks are freed, then a request larger than any single free
// block arrives. The caching allocator must reserve new memory; GMLake
// stitches the free blocks into one contiguous virtual range instead.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

func main() {
	// An 8 GB simulated GPU with the paper-calibrated driver cost model.
	drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 8*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
	alloc := core.NewDefault(drv)

	// Allocate four scattered 512 MB tensors and free them.
	var bufs []*memalloc.Buffer
	for i := 0; i < 4; i++ {
		b, err := alloc.Alloc(512 * sim.MiB)
		if err != nil {
			log.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	fmt.Printf("after 4x512MB allocations: reserved=%s, device used=%s\n",
		gb(alloc.Stats().Reserved), gb(drv.Device().Used()))

	for _, b := range bufs {
		alloc.Free(b)
	}
	fmt.Printf("after freeing all:         reserved=%s (GMLake retains physical memory)\n",
		gb(alloc.Stats().Reserved))

	// A 2 GB request: no single free block is big enough, but stitching
	// fuses the four 512 MB blocks into one contiguous virtual range
	// without allocating any new physical memory.
	big, err := alloc.Alloc(2 * sim.GiB)
	if err != nil {
		log.Fatal(err)
	}
	s1, s2, s3, s4 := alloc.StrategyCounts()
	fmt.Printf("after 2GB allocation:      reserved=%s (no growth!)\n", gb(alloc.Stats().Reserved))
	fmt.Printf("strategy counts: S1 exact=%d, S2 split=%d, S3 stitch=%d, S4 new=%d\n", s1, s2, s3, s4)

	alloc.Free(big)

	// The stitched block is now cached: the same request again is an S1
	// exact match with zero driver work.
	big2, err := alloc.Alloc(2 * sim.GiB)
	if err != nil {
		log.Fatal(err)
	}
	s1b, _, _, _ := alloc.StrategyCounts()
	fmt.Printf("repeat 2GB allocation:     exact-match hits went %d -> %d (convergence)\n", s1, s1b)
	alloc.Free(big2)

	st := alloc.Stats()
	fmt.Printf("\nfinal stats: peak active=%s, peak reserved=%s, utilization=%.1f%%, simulated time=%v\n",
		gb(st.PeakActive), gb(st.PeakReserved), 100*st.Utilization(), drv.Clock().Now())
}

func gb(n int64) string { return fmt.Sprintf("%.2fGB", float64(n)/float64(sim.GiB)) }
