// Package parallel models two distributed-training decompositions at the
// granularity the allocators care about: ZeRO stages, which set how many
// bytes of parameters, gradients and optimizer state each data-parallel
// rank holds and slice formerly-large tensors into world-dependent shards
// (Observation 2), and pipeline schedules, which set how many microbatches'
// activations each stage buffers.
package parallel

import (
	"fmt"

	"repro/internal/model"
)

// ZeROStage selects how much optimizer/gradient/parameter state is sharded
// across the data-parallel group (DeepSpeed ZeRO).
type ZeROStage int

// ZeRO stages.
const (
	// Stage0 is plain data parallelism: everything replicated.
	Stage0 ZeROStage = iota
	// Stage1 shards optimizer state.
	Stage1
	// Stage2 shards optimizer state and gradients.
	Stage2
	// Stage3 shards optimizer state, gradients and parameters (the
	// configuration the paper evaluates).
	Stage3
)

// String implements fmt.Stringer.
func (s ZeROStage) String() string {
	if s < Stage0 || s > Stage3 {
		return fmt.Sprintf("ZeROStage(%d)", int(s))
	}
	return [...]string{"ZeRO-0", "ZeRO-1", "ZeRO-2", "ZeRO-3"}[s]
}

// StateBreakdown is the per-rank persistent training state in bytes.
type StateBreakdown struct {
	Params    int64 // fp16 parameters resident on the rank
	Grads     int64 // fp16 gradients resident on the rank
	Optimizer int64 // fp32 master + Adam moments resident on the rank
}

// Total returns the per-rank persistent bytes.
func (b StateBreakdown) Total() int64 { return b.Params + b.Grads + b.Optimizer }

// ZeROState returns each rank's persistent state for a model of params
// parameters trained across world data-parallel ranks at the given stage.
// Shards round up, as real implementations pad to the world size.
func ZeROState(params int64, world int, stage ZeROStage) (StateBreakdown, error) {
	if params <= 0 {
		return StateBreakdown{}, fmt.Errorf("parallel: %d parameters", params)
	}
	if world <= 0 {
		return StateBreakdown{}, fmt.Errorf("parallel: world %d", world)
	}
	if stage < Stage0 || stage > Stage3 {
		return StateBreakdown{}, fmt.Errorf("parallel: unknown %v", stage)
	}
	full := StateBreakdown{
		Params:    params * model.DTypeBytes,
		Grads:     params * model.DTypeBytes,
		Optimizer: params * model.OptimBytesPerParam,
	}
	b := full
	if stage >= Stage1 {
		b.Optimizer = model.ShardBytes(full.Optimizer, world)
	}
	if stage >= Stage2 {
		b.Grads = model.ShardBytes(full.Grads, world)
	}
	if stage >= Stage3 {
		b.Params = model.ShardBytes(full.Params, world)
	}
	return b, nil
}

// ZeROStepCommBytes returns the per-rank communication volume of one
// training step, in parameter-traffic bytes. Stages 0–2 pay one gradient
// all-reduce (2× the gradient bytes on a ring); stage 3 additionally
// all-gathers parameters in the forward and again in the backward pass.
func ZeROStepCommBytes(params int64, world int, stage ZeROStage) int64 {
	if world <= 1 {
		return 0
	}
	grad := params * model.DTypeBytes
	p := params * model.DTypeBytes
	switch stage {
	case Stage0, Stage1:
		return 2 * grad // all-reduce = reduce-scatter + all-gather
	case Stage2:
		return grad // reduce-scatter only; each rank keeps its shard
	default: // Stage3
		return grad + 2*p // reduce-scatter grads + two parameter gathers
	}
}
