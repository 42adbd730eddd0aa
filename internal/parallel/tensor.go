package parallel

import (
	"fmt"

	"repro/internal/model"
)

// TPConfig is Megatron-style tensor parallelism: each transformer layer's
// weight matrices are split across Degree ranks — attention QKV and MLP
// up-projection column-wise, attention output and MLP down-projection
// row-wise — with layer norms replicated.
type TPConfig struct {
	Degree int
}

// Validate checks that the degree divides the model's heads and hidden
// dimension, the constraint real Megatron enforces.
func (c TPConfig) Validate(cfg model.Config) error {
	if c.Degree <= 0 {
		return fmt.Errorf("parallel: tensor-parallel degree %d", c.Degree)
	}
	if cfg.Heads%c.Degree != 0 {
		return fmt.Errorf("parallel: degree %d does not divide %d heads", c.Degree, cfg.Heads)
	}
	if cfg.Hidden%c.Degree != 0 {
		return fmt.Errorf("parallel: degree %d does not divide hidden %d", c.Degree, cfg.Hidden)
	}
	return nil
}

// LayerShard is one rank's share of one transformer layer, in bytes.
type LayerShard struct {
	AttnQKV  int64 // column-parallel QKV projection (3H² / degree)
	AttnProj int64 // row-parallel attention output (H² / degree)
	MLPUp    int64 // column-parallel up projection (4H² / degree)
	MLPDown  int64 // row-parallel down projection (4H² / degree)
	Norms    int64 // replicated layer norms and biases
}

// Bytes returns the shard's total parameter bytes.
func (s LayerShard) Bytes() int64 {
	return s.AttnQKV + s.AttnProj + s.MLPUp + s.MLPDown + s.Norms
}

// ShardLayer splits one transformer layer of cfg across the degree.
func (c TPConfig) ShardLayer(cfg model.Config) (LayerShard, error) {
	if err := c.Validate(cfg); err != nil {
		return LayerShard{}, err
	}
	h := int64(cfg.Hidden)
	d := int64(c.Degree)
	return LayerShard{
		AttnQKV:  3 * h * h / d * model.DTypeBytes,
		AttnProj: h * h / d * model.DTypeBytes,
		MLPUp:    4 * h * h / d * model.DTypeBytes,
		MLPDown:  4 * h * h / d * model.DTypeBytes,
		Norms:    13 * h * model.DTypeBytes, // replicated on every rank
	}, nil
}

// ActivationBytes returns one rank's activation bytes for one layer: the
// attention and MLP interiors shrink by the degree, while the layer's
// input/output activations (batch·seq·hidden) stay replicated.
func (c TPConfig) ActivationBytes(cfg model.Config, batch, seq int) int64 {
	full := cfg.ActivationBytesPerLayer(batch, seq)
	boundary := int64(batch) * int64(seq) * int64(cfg.Hidden) * model.DTypeBytes
	interior := full - 2*boundary
	if interior < 0 {
		interior = 0
	}
	return 2*boundary + interior/int64(c.Degree)
}
