// Package model describes the transformer LLMs the paper evaluates
// (Table 2) at the level the allocators care about: parameter counts and
// tensor shapes, from which the workload generator derives allocation sizes.
package model

import (
	"fmt"
)

// DTypeBytes is the training datatype width (fp16/bf16).
const DTypeBytes = 2

// OptimBytesPerParam is Adam's fp32 state per parameter: master copy,
// exp_avg and exp_avg_sq (3 × 4 bytes).
const OptimBytesPerParam = 12

// Config is one transformer model.
type Config struct {
	Name   string
	Layers int // transformer blocks
	Hidden int // model dimension
	Heads  int // attention heads
	Vocab  int // vocabulary size
	SeqLen int // fine-tuning sequence length
}

// Models evaluated in the paper (Table 2), with architecture hyperparameters
// from the models' public configurations.
var (
	GPT2 = Config{Name: "GPT-2", Layers: 48, Hidden: 1600, Heads: 25, Vocab: 50257, SeqLen: 1024}

	OPT1_3B = Config{Name: "OPT-1.3B", Layers: 24, Hidden: 2048, Heads: 32, Vocab: 50272, SeqLen: 512}

	GLM10B = Config{Name: "GLM-10B", Layers: 48, Hidden: 4096, Heads: 32, Vocab: 50304, SeqLen: 512}

	OPT13B = Config{Name: "OPT-13B", Layers: 40, Hidden: 5120, Heads: 40, Vocab: 50272, SeqLen: 512}

	Vicuna13B = Config{Name: "Vicuna-13B", Layers: 40, Hidden: 5120, Heads: 40, Vocab: 32000, SeqLen: 512}

	GPTNeoX20B = Config{Name: "GPT-NeoX-20B", Layers: 44, Hidden: 6144, Heads: 64, Vocab: 50432, SeqLen: 512}
)

// All lists the evaluated models.
var All = []Config{GPT2, OPT1_3B, GLM10B, OPT13B, Vicuna13B, GPTNeoX20B}

// LayerParams returns the parameter count of one transformer block:
// attention (4 H²) plus MLP (8 H²) plus norms/biases (~13 H).
func (c Config) LayerParams() int64 {
	h := int64(c.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns the token embedding parameter count (tied with the
// LM head).
func (c Config) EmbeddingParams() int64 {
	return int64(c.Vocab) * int64(c.Hidden)
}

// Params returns the total parameter count.
func (c Config) Params() int64 {
	return int64(c.Layers)*c.LayerParams() + c.EmbeddingParams()
}

// ParamsBillions returns the parameter count in billions, for display.
func (c Config) ParamsBillions() float64 { return float64(c.Params()) / 1e9 }

// LayerParamBytes returns the fp16 byte size of one block's parameters — the
// unit ZeRO-3 all-gathers during forward and backward.
func (c Config) LayerParamBytes() int64 { return c.LayerParams() * DTypeBytes }

// EmbeddingBytes returns the fp16 byte size of the embedding table.
func (c Config) EmbeddingBytes() int64 { return c.EmbeddingParams() * DTypeBytes }

// ActivationBytesPerLayer returns the bytes of intermediate activations one
// block retains per sample at the given sequence length when recomputation is
// off. The factor ~16 covers attention projections, the 4H MLP intermediate
// and residual copies (Korthikanti et al.'s s·b·h·(10+24) without the
// quadratic term, as flash-style attention is assumed).
func (c Config) ActivationBytesPerLayer(batch, seq int) int64 {
	return int64(batch) * int64(seq) * int64(c.Hidden) * DTypeBytes * 16
}

// CheckpointBytesPerLayer returns the bytes one block retains per sample
// with recomputation on: just the block input.
func (c Config) CheckpointBytesPerLayer(batch, seq int) int64 {
	return int64(batch) * int64(seq) * int64(c.Hidden) * DTypeBytes
}

// LogitsBytes returns the size of the LM-head output.
func (c Config) LogitsBytes(batch, seq int) int64 {
	return int64(batch) * int64(seq) * int64(c.Vocab) * DTypeBytes
}

// String renders "OPT-13B (12.9B params)".
func (c Config) String() string {
	return fmt.Sprintf("%s (%.1fB params, %d layers, hidden %d)",
		c.Name, c.ParamsBillions(), c.Layers, c.Hidden)
}

// ShardBytes divides total bytes across world GPUs, rounding up.
func ShardBytes(total int64, world int) int64 {
	if world <= 0 {
		panic(fmt.Sprintf("model: world size %d", world))
	}
	return (total + int64(world) - 1) / int64(world)
}

// FitsSanity panics if a config is internally inconsistent; used in tests.
func (c Config) FitsSanity() error {
	if c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.Vocab <= 0 || c.SeqLen <= 0 {
		return fmt.Errorf("model: %s has a non-positive dimension", c.Name)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("model: %s hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	}
	if c.Params() < int64(100)*1e6 {
		return fmt.Errorf("model: %s implausibly small (%d params)", c.Name, c.Params())
	}
	return nil
}
