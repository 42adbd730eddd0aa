package recompute

import (
	"time"

	"repro/internal/model"
)

// defaultFLOPS is the sustained matmul throughput used to convert layer
// FLOPs to forward time (an A100-class device at realistic utilization,
// matching the workload package's effectiveFLOPS).
const defaultFLOPS = 125e12

// ForModel builds the planner's cost model for one of the paper's LLMs at
// the given micro-batch and the model's sequence length, using the same
// sizing rules as the workload generator.
func ForModel(cfg model.Config, batch int) Model {
	seq := cfg.SeqLen
	layerFlops := 2 * float64(batch) * float64(seq) * float64(cfg.LayerParams())
	fwd := time.Duration(layerFlops / defaultFLOPS * float64(time.Second))

	layers := make([]LayerCost, cfg.Layers)
	for i := range layers {
		layers[i] = LayerCost{
			Activation: cfg.ActivationBytesPerLayer(batch, seq),
			Checkpoint: cfg.CheckpointBytesPerLayer(batch, seq),
			Forward:    fwd,
		}
	}
	return Model{Layers: layers}
}
