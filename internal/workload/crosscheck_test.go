package workload

import (
	"testing"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/recompute"
	"repro/internal/sim"
)

// The trainer sizes its persistent residents from first principles (per-layer
// shards); internal/parallel sizes them analytically (whole-model ZeRO
// breakdown). The two models were written independently — this test pins
// them against each other so neither drifts.
func TestTrainerPersistentMatchesZeROModel(t *testing.T) {
	for _, world := range []int{1, 4, 16} {
		spec := Spec{Model: model.OPT13B, Strategy: StrategyN, World: world, Batch: 1}
		clock := sim.NewClock()
		dev := gpu.NewDevice("x", 400*sim.GiB) // ample: we only measure setup
		alloc := caching.New(cuda.NewDriver(dev, clock, sim.DefaultCostModel()))
		tr, err := NewTrainer(spec, alloc, clock)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Setup(); err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		got := tr.PersistentBytes()
		tr.Teardown()

		state, err := parallel.ZeROState(model.OPT13B.Params(), world, parallel.Stage3)
		if err != nil {
			t.Fatal(err)
		}
		want := state.Total()
		// Per-layer shard rounding and the embedding's separate shard put
		// the two within a few percent, never a factor.
		ratio := float64(got) / float64(want)
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("world %d: trainer persists %s, ZeRO-3 model says %s (ratio %.3f)",
				world, sim.FormatBytes(got), sim.FormatBytes(want), ratio)
		}
	}
}

// The trainer's recomputation strategy and the recompute planner describe
// the same mechanism; their activation ceilings must agree in direction:
// checkpointed peak ≤ planner's √N peak bound ≤ store-all.
func TestTrainerRecomputeConsistentWithPlanner(t *testing.T) {
	cfg := model.OPT1_3B
	batch := 16
	m := recompute.ForModel(cfg, batch)
	storeAll := m.Evaluate(recompute.NoRecompute()).PeakBytes
	sqrtPlan, err := recompute.SqrtN(len(m.Layers))
	if err != nil {
		t.Fatal(err)
	}
	sqrtPeak := m.Evaluate(sqrtPlan).PeakBytes

	run := func(strategy Strategy) int64 {
		clock := sim.NewClock()
		dev := gpu.NewDevice("x", 200*sim.GiB)
		alloc := caching.New(cuda.NewDriver(dev, clock, sim.DefaultCostModel()))
		tr, err := NewTrainer(Spec{Model: cfg, Strategy: strategy, World: 1, Batch: batch}, alloc, clock)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Setup(); err != nil {
			t.Fatal(err)
		}
		persist := alloc.Stats().PeakActive
		for i := 0; i < 4; i++ {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		peak := alloc.Stats().PeakActive - persist // transient = activations etc.
		tr.Teardown()
		return peak
	}
	plain := run(StrategyN)
	ck := run(StrategyR)
	if ck >= plain {
		t.Fatalf("recomputation did not reduce transient peak: %s vs %s",
			sim.FormatBytes(ck), sim.FormatBytes(plain))
	}
	// Direction-consistency with the planner: the trainer's reduction factor
	// should be at least half of the planner's √N factor.
	plannerFactor := float64(storeAll) / float64(sqrtPeak)
	trainerFactor := float64(plain) / float64(ck)
	if trainerFactor < plannerFactor/4 {
		t.Fatalf("trainer reduction %.1fx far below planner's %.1fx", trainerFactor, plannerFactor)
	}
}
