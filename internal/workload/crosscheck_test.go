package workload

import (
	"testing"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/sim"
)

// The trainer sizes its persistent residents layer by layer (per-layer
// shards); ZeRO-3's closed form shards the whole model's fp16 parameters,
// fp16 gradients and fp32 optimizer state across the world. This test pins
// the one to the other so the trainer cannot drift from ZeRO-3.
func TestTrainerPersistentMatchesZeRO3(t *testing.T) {
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

		params := model.OPT13B.Params()
		want := 2*model.ShardBytes(params*model.DTypeBytes, world) +
			model.ShardBytes(params*model.OptimBytesPerParam, world)
		// Per-layer shard rounding and the embedding's separate shard put
		// the two within a few percent, never a factor.
		ratio := float64(got) / float64(want)
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("world %d: trainer persists %s, ZeRO-3 says %s (ratio %.3f)",
				world, sim.FormatBytes(got), sim.FormatBytes(want), ratio)
		}
	}
}

// The trainer's recomputation strategy checkpoints every layer: a layer's
// input (C bytes) stays for the backward pass, and one layer's activations
// (A bytes) are rebuilt at a time. Over L layers that cuts the activation
// peak from L·A to L·C + A, so checkpointing must shrink the trainer's
// transient peak, and by a factor in the range of L·A / (L·C + A).
func TestTrainerCheckpointingCutsActivations(t *testing.T) {
	cfg := model.OPT1_3B
	batch := 16
	act := cfg.ActivationBytesPerLayer(batch, cfg.SeqLen)
	ck := cfg.CheckpointBytesPerLayer(batch, cfg.SeqLen)
	layers := int64(cfg.Layers)
	closedForm := float64(layers*act) / float64(layers*ck+act)

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
	checkpointed := run(StrategyR)
	if checkpointed >= plain {
		t.Fatalf("recomputation did not reduce transient peak: %s vs %s",
			sim.FormatBytes(checkpointed), sim.FormatBytes(plain))
	}
	// The transient peak also holds gathered parameters, gradients and
	// logits, which checkpointing does not shrink, so the trainer's factor
	// falls short of the closed form, but by less than 4x.
	trainerFactor := float64(plain) / float64(checkpointed)
	if trainerFactor < closedForm/4 {
		t.Fatalf("trainer reduction %.2fx far below the closed form's %.2fx", trainerFactor, closedForm)
	}
}
