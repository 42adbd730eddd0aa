package parallel_test

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// ExamplePlanMemory sizes a 3D-parallel training job without running it.
func ExamplePlanMemory() {
	plan, err := parallel.PlanMemory(model.OPT13B,
		parallel.Topology{DP: 4, TP: 2, PP: 2}, parallel.Stage3, parallel.OneFOneB, 4, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("16 GPUs, worst rank needs %.1f GB — fits 80 GB: %v\n",
		float64(plan.MaxRankBytes())/float64(sim.GiB), plan.Fits(80*sim.GiB, 0.1))
	// Output: 16 GPUs, worst rank needs 19.2 GB — fits 80 GB: true
}
