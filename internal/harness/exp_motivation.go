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
	t := &Table{
		ID:     "figure3",
		Title:  "Memory utilization by strategy combination (OPT-1.3B, 4 GPUs, caching allocator)",
		Header: []string{"Strategy", "Utilization", "PeakActive(GB)", "PeakReserved(GB)"},
	}
	results := runCells(e, figureStrategies, func(s figureStrategy) RunResult {
		spec := workload.Spec{Model: model.OPT1_3B, Strategy: s.strategy, World: 4, Batch: 48}
		return e.RunWorkload(spec, AllocCaching, RunOptions{})
	})
	for i, res := range results {
		s := figureStrategies[i]
		t.AddRow("P"+sIf(s.label != "N", s.label, ""), pct(res.Utilization()), gb(res.PeakActive), gb(res.PeakReserved))
	}
	t.AddNote("paper: P 97%%, PR 80%%, PLR 76%%, PRO 70%%, PLRO 73%% — utilization falls as strategies compound")
	return t
}

// figureStrategy labels one strategy combination of Figures 3 and 10.
type figureStrategy struct {
	label    string
	strategy workload.Strategy
}

var figureStrategies = []figureStrategy{
	{"N", workload.StrategyN},
	{"R", workload.StrategyR},
	{"LR", workload.StrategyLR},
	{"RO", workload.StrategyRO},
	{"LRO", workload.StrategyLRO},
}

func sIf(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}

// Figure4 reproduces the GPU scale-out motivation: caching-allocator
// utilization for OPT-13B as the world grows 1 → 16.
func (e *Env) Figure4() *Table {
	t := &Table{
		ID:     "figure4",
		Title:  "Memory utilization vs GPU count (OPT-13B, LR, caching allocator)",
		Header: []string{"GPUs", "Utilization", "PeakActive(GB)", "PeakReserved(GB)"},
	}
	worlds := []int{1, 2, 4, 8, 16}
	results := runCells(e, worlds, func(w int) RunResult {
		spec := workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLR, World: w, Batch: 24}
		return e.RunWorkload(spec, AllocCaching, RunOptions{})
	})
	for i, res := range results {
		t.AddRow(fmt.Sprintf("%d", worlds[i]), pct(res.Utilization()), gb(res.PeakActive), gb(res.PeakReserved))
	}
	t.AddNote("paper: utilization declines from ~91%% at 1 GPU to ~76%% at 16 GPUs")
	return t
}

// Figure5 reproduces the footprint-irregularity statistics: GPT-NeoX-20B
// training with and without LR, counting allocations and their mean size.
// The paper reports ~46k allocations at ~93 MB average for the plain run vs
// ~76k at ~85 MB with LR — more and smaller requests.
func (e *Env) Figure5() *Table {
	t := &Table{
		ID:     "figure5",
		Title:  "Request-stream statistics (GPT-NeoX-20B, caching allocator)",
		Header: []string{"Config", "Allocs", "MeanSize(MB)", "Allocs/step", "Utilization"},
	}
	type config struct {
		label    string
		strategy workload.Strategy
		batch    int
	}
	cfgs := []config{
		{"Original", workload.StrategyN, 4},
		{"+LR", workload.StrategyLR, 4},
	}
	for _, row := range runCells(e, cfgs, func(c config) []string {
		return e.figure5Row(c.label, c.strategy, c.batch)
	}) {
		t.AddRow(row...)
	}
	t.AddNote("paper: plain run ~46k allocations averaging ~93MB; +LR run ~76k averaging ~85MB (more, smaller, more irregular)")
	return t
}

// figure5Row measures one Figure 5 configuration (a run plus a traced
// re-run for the mean request size) and renders its row.
func (e *Env) figure5Row(label string, strategy workload.Strategy, batch int) []string {
	spec := workload.Spec{Model: model.GPTNeoX20B, Strategy: strategy, World: 8, Batch: batch}
	res := e.RunWorkload(spec, AllocCaching, RunOptions{})
	steps := res.Steps
	if steps == 0 {
		steps = 1
	}
	return []string{label,
		fmt.Sprintf("%d", res.AllocCount),
		fmt.Sprintf("%.0f", e.meanAllocMB(spec)),
		fmt.Sprintf("%d", res.AllocCount/int64(steps)),
		pct(res.Utilization())}
}

// meanAllocMB computes the mean requested allocation size over a short
// traced run of spec.
func (e *Env) meanAllocMB(spec workload.Spec) float64 {
	tr := e.TraceRun(spec, 8)
	st := tr.Stats()
	if st.Allocs == 0 {
		return 0
	}
	return float64(st.MeanBytes) / float64(sim.MiB)
}

// Figure5Timelines returns the memory-footprint timelines behind Figure 5's
// two panels, for CSV export by cmd/gmlake-trace.
func (e *Env) Figure5Timelines() (plain, lr *metrics.Timeline) {
	specs := []workload.Spec{
		{Model: model.GPTNeoX20B, Strategy: workload.StrategyN, World: 8, Batch: 4},
		{Model: model.GPTNeoX20B, Strategy: workload.StrategyLR, World: 8, Batch: 4},
	}
	runs := runCells(e, specs, func(spec workload.Spec) RunResult {
		return e.RunWorkload(spec, AllocCaching, RunOptions{Timeline: true, Steps: 12})
	})
	return runs[0].Timeline, runs[1].Timeline
}
