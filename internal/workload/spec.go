// Package workload generates the allocation request streams of LLM
// fine-tuning, reproducing the stream characteristics the paper measures:
// regular, well-behaved allocation under plain data-parallel training, and
// increasingly frequent, smaller and more irregular requests as
// recomputation, LoRA, offloading and ZeRO-3 sharding are layered on
// (paper §2.3-§2.4, Figure 5).
//
// A Trainer drives a memalloc.Allocator through Setup (persistent parameter,
// gradient and optimizer state), repeated Steps (forward, backward,
// optimizer phases with realistic tensor lifetimes) and Teardown. Compute
// and communication time are charged to the simulated clock so throughput
// can be reported alongside memory.
package workload

import (
	"fmt"

	"repro/internal/model"
)

// Strategy is a combination of the paper's memory-efficient optimizations.
type Strategy struct {
	Recompute bool // gradient checkpointing (paper "R")
	LoRA      bool // low-rank adapters, frozen base model (paper "L")
	Offload   bool // optimizer state offloaded to CPU (paper "O")
}

// Strategy combinations evaluated in the paper's Figures 3 and 10.
var (
	StrategyN   = Strategy{}
	StrategyR   = Strategy{Recompute: true}
	StrategyLR  = Strategy{Recompute: true, LoRA: true}
	StrategyRO  = Strategy{Recompute: true, Offload: true}
	StrategyLRO = Strategy{Recompute: true, LoRA: true, Offload: true}
)

// Label renders the paper's shorthand: N, R, L, O and combinations like LRO.
func (s Strategy) Label() string {
	if s == (Strategy{}) {
		return "N"
	}
	out := ""
	if s.LoRA {
		out += "L"
	}
	if s.Recompute {
		out += "R"
	}
	if s.Offload {
		out += "O"
	}
	return out
}

// Platform is the distributed-training framework profile (paper Table 2).
// Frameworks differ, for the allocator's purposes, in how much parameter
// material one gather step materializes.
type Platform int

// Platforms evaluated in the paper.
const (
	// DeepSpeed (ZeRO-3): gathers one transformer block at a time.
	DeepSpeed Platform = iota
	// FSDP: wraps and gathers two blocks per FlatParameter unit.
	FSDP
	// ColossalAI: chunk-based gathering with fixed-size chunks.
	ColossalAI
)

// String implements fmt.Stringer.
func (p Platform) String() string {
	switch p {
	case DeepSpeed:
		return "DeepSpeed"
	case FSDP:
		return "FSDP"
	case ColossalAI:
		return "Colossal-AI"
	default:
		return fmt.Sprintf("Platform(%d)", int(p))
	}
}

// gatherLayers returns how many transformer blocks one gather materializes.
func (p Platform) gatherLayers() int {
	if p == FSDP {
		return 2
	}
	return 1
}

// Spec fully describes one workload.
type Spec struct {
	Model    model.Config
	Strategy Strategy
	Platform Platform
	World    int // data-parallel GPUs (ZeRO-3 shard count)
	Batch    int // per-GPU micro-batch in samples
	SeqLen   int // 0 → model default
	Seed     uint64

	// LoRARank is the adapter rank; 0 → 16.
	LoRARank int
}

// Normalize fills defaults and validates.
func (s Spec) Normalize() (Spec, error) {
	if s.World <= 0 {
		s.World = 1
	}
	if s.Batch <= 0 {
		return s, fmt.Errorf("workload: batch %d", s.Batch)
	}
	if s.SeqLen == 0 {
		s.SeqLen = s.Model.SeqLen
	}
	if s.SeqLen <= 0 {
		return s, fmt.Errorf("workload: seq len %d", s.SeqLen)
	}
	if s.LoRARank == 0 {
		s.LoRARank = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if err := s.Model.FitsSanity(); err != nil {
		return s, err
	}
	return s, nil
}

// String renders "OPT-13B/LR/DeepSpeed w4 b20".
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s/%s w%d b%d", s.Model.Name, s.Strategy.Label(), s.Platform, s.World, s.Batch)
}
