// Finetune: simulate fine-tuning OPT-13B with LoRA + recomputation +
// offloading (the paper's most fragmentation-prone strategy mix) on the
// PyTorch caching allocator and on GMLake, side by side.
//
// This is the paper's core end-to-end claim in one program: same workload,
// same device, ~25% less reserved memory with GMLake at equal throughput.
//
// Run with: go run ./examples/finetune
package main

import (
	"fmt"
	"log"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	warmupSteps   = 80 // let GMLake's stitched-block cache converge (§5.4)
	measuredSteps = 10
)

func main() {
	spec := workload.Spec{
		Model:    model.OPT13B,
		Strategy: workload.StrategyLRO,
		World:    4,  // ZeRO-3 over 4 GPUs
		Batch:    24, // per-GPU micro-batch
		Seed:     7,
	}
	fmt.Printf("fine-tuning %s, strategy %s, %d GPUs, batch %d\n\n",
		spec.Model.Name, spec.Strategy.Label(), spec.World, spec.Batch)

	type outcome struct {
		name       string
		stats      memalloc.Stats
		throughput float64
	}
	var results []outcome

	for _, which := range []string{"caching", "gmlake"} {
		drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 80*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
		var alloc memalloc.Allocator
		if which == "gmlake" {
			alloc = core.NewDefault(drv)
		} else {
			alloc = caching.New(drv)
		}
		tr, err := workload.NewTrainer(spec, alloc, drv.Clock())
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.Setup(); err != nil {
			log.Fatalf("%s: setup: %v", which, err)
		}
		for i := 0; i < warmupSteps; i++ {
			if err := tr.Step(); err != nil {
				log.Fatalf("%s: step %d: %v", which, i, err)
			}
		}
		start := drv.Clock().Now()
		for i := 0; i < measuredSteps; i++ {
			if err := tr.Step(); err != nil {
				log.Fatalf("%s: measured step: %v", which, err)
			}
		}
		elapsed := (drv.Clock().Now() - start).Seconds()
		thr := float64(measuredSteps*spec.Batch*spec.World) / elapsed
		results = append(results, outcome{which, alloc.Stats(), thr})
		tr.Teardown()
	}

	fmt.Printf("%-10s %14s %14s %12s %14s\n",
		"allocator", "peak active", "peak reserved", "utilization", "throughput")
	for _, r := range results {
		fmt.Printf("%-10s %13.1fG %13.1fG %11.1f%% %11.1f/s\n",
			r.name,
			float64(r.stats.PeakActive)/float64(sim.GiB),
			float64(r.stats.PeakReserved)/float64(sim.GiB),
			100*r.stats.Utilization(), r.throughput)
	}
	saved := results[0].stats.PeakReserved - results[1].stats.PeakReserved
	fmt.Printf("\nGMLake saves %.1f GB of reserved GPU memory on this workload.\n",
		float64(saved)/float64(sim.GiB))
}
