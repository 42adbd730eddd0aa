// Defragcompare: run the same fragmentation-prone fine-tune on four
// allocators — the caching baseline, GMLake (stitching), PyTorch's
// expandable segments (growing), and a compaction defragmenter (copying) —
// and compare reserved memory and simulated step time.
//
// This extends the paper's evaluation with the §6 related-work techniques.
//
// Run with: go run ./examples/defragcompare
package main

import (
	"fmt"
	"log"

	gmlake "repro"
	"repro/internal/conf"
)

func main() {
	spec := gmlake.TrainSpec{
		Model:    gmlake.OPT13B,
		Strategy: gmlake.StrategyLRO,
		World:    4,
		Batch:    24,
		Seed:     7,
	}
	fmt.Printf("%s, strategy %s, %d GPUs, batch %d\n\n",
		spec.Model.Name, spec.Strategy.Label(), spec.World, spec.Batch)
	fmt.Printf("%-12s %15s %12s %14s\n", "allocator", "peak reserved", "utilization", "virt s/step")

	for _, name := range conf.Pools() {
		sys := gmlake.NewSystem(80 * gmlake.GiB)
		alloc, err := conf.Config{Backend: name}.Build(sys.Driver)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := gmlake.NewTrainer(spec, alloc, sys.Clock)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.Setup(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		const warm, meas = 80, 10
		for i := 0; i < warm; i++ {
			if err := tr.Step(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		start := sys.Clock.Now()
		for i := 0; i < meas; i++ {
			if err := tr.Step(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		perStep := (sys.Clock.Now() - start).Seconds() / meas
		st := alloc.Stats()
		fmt.Printf("%-12s %13.1fGB %11.1f%% %13.2fs\n",
			name, float64(st.PeakReserved)/float64(gmlake.GiB),
			100*st.Utilization(), perStep)
		tr.Teardown()
	}
	fmt.Println("\nstitching and compaction both eliminate fragmentation; compaction needs")
	fmt.Println("framework cooperation to move live tensors, which is why PyTorch shipped")
	fmt.Println("a VMM-based approach instead.")
}
