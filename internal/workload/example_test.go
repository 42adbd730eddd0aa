package workload_test

import (
	"fmt"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExampleNewTrainer runs a miniature fine-tuning workload against the
// caching baseline and GMLake and compares reserved memory.
func ExampleNewTrainer() {
	spec := workload.Spec{
		Model:    model.OPT1_3B,
		Strategy: workload.StrategyLR, // LoRA + recomputation
		World:    4,
		Batch:    32,
		Seed:     7,
	}
	run := func(gml bool) memalloc.Stats {
		drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 80*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
		var alloc memalloc.Allocator
		if gml {
			alloc = core.NewDefault(drv)
		} else {
			alloc = caching.New(drv)
		}
		tr, err := workload.NewTrainer(spec, alloc, drv.Clock())
		if err != nil {
			panic(err)
		}
		if err := tr.Setup(); err != nil {
			panic(err)
		}
		defer tr.Teardown()
		for i := 0; i < 20; i++ {
			if err := tr.Step(); err != nil {
				panic(err)
			}
		}
		return alloc.Stats()
	}
	base, gml := run(false), run(true)
	fmt.Println("GMLake reserves less:", gml.PeakReserved < base.PeakReserved)
	// Output: GMLake reserves less: true
}
