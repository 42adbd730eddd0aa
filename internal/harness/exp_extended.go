package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// coreConfigVariant is one ablation point: a name plus a config mutation.
type coreConfigVariant struct {
	name   string
	mutate func(*core.Config)
}

// gmlakeRunResult extends RunResult with GMLake-internal counters.
type gmlakeRunResult struct {
	RunResult
	stitches    int64
	stitchFrees int64
}

// runGMLakeVariant runs the ablation workload on a custom-configured GMLake.
func (e *Env) runGMLakeVariant(v coreConfigVariant) gmlakeRunResult {
	cfg := core.DefaultConfig()
	if v.mutate != nil {
		v.mutate(&cfg)
	}
	r := newDriverRig(e.Capacity)
	alloc := core.New(r.driver, cfg)
	r.alloc = alloc
	spec := workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24}
	res := e.runOnRig(r, spec, AllocGMLake+"/"+v.name, RunOptions{})
	_, s2, s3, _ := alloc.StrategyCounts()
	return gmlakeRunResult{RunResult: res, stitches: s2 + s3, stitchFrees: alloc.StitchFreeCount()}
}

// Extended goes beyond the paper's evaluation: a five-way comparison between
// the caching baseline, the same baseline with the PYTORCH_CUDA_ALLOC_CONF
// tuning practitioners used against fragmentation (max_split_size_mb +
// garbage_collection_threshold), GMLake (virtual memory stitching), PyTorch's later
// expandable-segments allocator (virtual memory growing — the technique the
// paper's §6 family anticipates and PyTorch eventually shipped), and a
// compaction-based defragmenter (the copy-based alternative §6 argues
// against).
//
// Expected shape: all three defragmenters eliminate most of the baseline's
// reserved-memory waste; compaction pays for it with data-movement time;
// expandable segments land close to GMLake, with interior holes costing it a
// little extra memory on the most irregular mixes.
func (e *Env) Extended() *Table {
	t := &Table{
		ID:    "extended",
		Title: "Defragmentation techniques compared (OPT-13B, 4 GPUs, batch 24)",
		Header: []string{"Strategy", "Allocator",
			"Reserved(GB)", "Utilization", "Thru(samples/s)"},
	}
	allocators := []string{AllocCaching, AllocCachingTuned, AllocGMLake, AllocExpandable, AllocCompact}
	type cell struct {
		strategy workload.Strategy
		alloc    string
	}
	var cells []cell
	for _, s := range []workload.Strategy{
		workload.StrategyR, workload.StrategyLR, workload.StrategyRO, workload.StrategyLRO,
	} {
		for _, name := range allocators {
			cells = append(cells, cell{strategy: s, alloc: name})
		}
	}
	results := runCells(e, cells, func(c cell) RunResult {
		spec := workload.Spec{Model: model.OPT13B, Strategy: c.strategy, World: 4, Batch: 24}
		return e.RunWorkload(spec, c.alloc, RunOptions{})
	})
	for i, res := range results {
		t.AddRow(cells[i].strategy.Label(), cells[i].alloc, gbOrOOM(res), pctOrOOM(res), thrOrOOM(res))
	}
	t.AddNote("beyond the paper: expandable segments is the VMM technique PyTorch later adopted; compaction is the §6 copy-based alternative")
	return t
}

// Ablations quantifies GMLake's own design choices on the most
// fragmentation-prone workload: split semantics (rebind vs destroy), the
// fragmentation limit, and the stitched-pool cap.
func (e *Env) Ablations() *Table {
	t := &Table{
		ID:    "ablations",
		Title: "GMLake design-choice ablations (OPT-13B, LRO, 4 GPUs, batch 24)",
		Header: []string{"Variant", "Reserved(GB)", "Utilization",
			"Thru(samples/s)", "Stitches", "StitchFrees"},
	}
	base := coreConfigVariant{name: "default"}
	variants := []coreConfigVariant{
		base,
		{name: "destroy-on-split", mutate: func(c *core.Config) { c.RebindOnSplit = false }},
		{name: "frag-limit-2MB", mutate: func(c *core.Config) { c.FragLimit = 2 << 20 }},
		{name: "frag-limit-512MB", mutate: func(c *core.Config) { c.FragLimit = 512 << 20 }},
		{name: "spool-cap-64", mutate: func(c *core.Config) { c.MaxSBlocks = 64 }},
	}
	for i, res := range runCells(e, variants, e.runGMLakeVariant) {
		t.AddRow(variants[i].name, gbOrOOM(res.RunResult), pctOrOOM(res.RunResult),
			thrOrOOM(res.RunResult),
			fmt.Sprintf("%d", res.stitches), fmt.Sprintf("%d", res.stitchFrees))
	}
	t.AddNote("rebind-on-split preserves the convergence tape; tiny sPool caps force re-stitching every iteration")
	return t
}
