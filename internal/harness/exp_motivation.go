package harness

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Figure3 reproduces the motivation study: memory utilization of the caching
// allocator when fine-tuning OPT-1.3B on 4 GPUs under five strategy
// combinations (P, PR, PLR, PRO, PLRO).
func (e *Env) Figure3() *Table {
	var labels []string
	var specs []workload.Spec
	for _, s := range figureStrategies {
		label := "P"
		if s != workload.StrategyN {
			label += s.Label()
		}
		labels = append(labels, label)
		specs = append(specs, workload.Spec{Model: model.OPT1_3B, Strategy: s, World: 4, Batch: 48})
	}
	t := e.utilizationTable("figure3", "Memory utilization by strategy combination (OPT-1.3B, 4 GPUs, caching allocator)",
		"Strategy", labels, specs)
	t.AddNote("paper: P 97%%, PR 80%%, PLR 76%%, PRO 70%%, PLRO 73%% — utilization falls as strategies compound")
	return t
}

// figureStrategies are the strategy combinations of Figures 3 and 10.
var figureStrategies = []workload.Strategy{
	workload.StrategyN, workload.StrategyR, workload.StrategyLR, workload.StrategyRO, workload.StrategyLRO,
}

// Figure4 reproduces the GPU scale-out motivation: caching-allocator
// utilization for OPT-13B as the world grows 1 → 16.
func (e *Env) Figure4() *Table {
	var labels []string
	var specs []workload.Spec
	for _, w := range []int{1, 2, 4, 8, 16} {
		labels = append(labels, fmt.Sprint(w))
		specs = append(specs, workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLR, World: w, Batch: 24})
	}
	t := e.utilizationTable("figure4", "Memory utilization vs GPU count (OPT-13B, LR, caching allocator)",
		"GPUs", labels, specs)
	t.AddNote("paper: utilization declines from ~91%% at 1 GPU to ~76%% at 16 GPUs")
	return t
}

// utilizationTable runs every spec on the caching allocator as parallel
// cells and renders the table of Figures 3 and 4: one row per spec, its
// label, utilization, peak active and peak reserved memory.
func (e *Env) utilizationTable(id, title, axis string, labels []string, specs []workload.Spec) *Table {
	t := &Table{ID: id, Title: title, Header: []string{axis, "Utilization", "PeakActive(GB)", "PeakReserved(GB)"}}
	for i, res := range runCells(e, specs, func(spec workload.Spec) RunResult {
		return e.RunWorkload(spec, AllocCaching, RunOptions{})
	}) {
		t.AddRow(labels[i], pct(res.Utilization()), gb(res.PeakActive), gb(res.PeakReserved))
	}
	return t
}

// Figure5 reproduces the footprint-irregularity statistics: GPT-NeoX-20B
// training with and without LR, counting allocations and their mean size.
// The paper reports ~46k allocations at ~93 MB average for the plain run vs
// ~76k at ~85 MB with LR — more and smaller requests. The table carries the
// memory-footprint timelines behind the figure's two panels.
func (e *Env) Figure5() *Table {
	t := &Table{
		ID:        "figure5",
		Title:     "Request-stream statistics (GPT-NeoX-20B, caching allocator)",
		Header:    []string{"Config", "Allocs", "MeanSize(MB)", "Allocs/step", "Utilization"},
		Timelines: map[string]*metrics.Timeline{},
	}
	type config struct {
		label, timeline string
		strategy        workload.Strategy
	}
	type cell struct {
		row      []string
		timeline *metrics.Timeline
	}
	cfgs := []config{{"Original", "original", workload.StrategyN}, {"+LR", "with-LR", workload.StrategyLR}}
	// Each cell is a run, a short traced re-run for the mean request size
	// and a 12-step timeline run for the footprint panel.
	for i, c := range runCells(e, cfgs, func(c config) cell {
		spec := workload.Spec{Model: model.GPTNeoX20B, Strategy: c.strategy, World: 8, Batch: 4}
		res := e.RunWorkload(spec, AllocCaching, RunOptions{})
		mean := e.TraceRun(spec, 8).Stats().MeanBytes
		return cell{[]string{c.label,
			fmt.Sprintf("%d", res.AllocCount),
			fmt.Sprintf("%.0f", float64(mean)/float64(sim.MiB)),
			fmt.Sprintf("%d", res.AllocCount/int64(max(res.Steps, 1))),
			pct(res.Utilization())},
			e.RunWorkload(spec, AllocCaching, RunOptions{Timeline: true, Steps: 12}).Timeline}
	}) {
		t.AddRow(c.row...)
		t.Timelines[cfgs[i].timeline] = c.timeline
	}
	t.AddNote("paper: plain run ~46k allocations averaging ~93MB; +LR run ~76k averaging ~85MB (more, smaller, more irregular)")
	return t
}
