package harness

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// figure10Models fixes the per-model evaluation points of Figure 10: a
// common batch size per model chosen so that every strategy combination
// (including plain N, which keeps full activations) fits the 80 GB device.
// GPT-NeoX-20B's full fine-tuning state exceeds 4x80 GB under our sizing, so
// its panel runs on 8 GPUs, as its table title says.
var figure10Models = []struct {
	model model.Config
	world int
	batch int
}{
	{model.OPT13B, 4, 8},
	{model.Vicuna13B, 4, 8},
	{model.GPTNeoX20B, 8, 6},
}

// comparePair is one cell result: the same spec on both allocators.
type comparePair struct{ base, gml RunResult }

// memHeader names the columns memCols renders.
var memHeader = []string{"RM w/o GML(GB)", "RM w/ GML(GB)", "UR w/o GML", "UR w/ GML"}

// memCols renders the reserved-memory and utilization columns without and
// with GMLake — the comparison Figures 10 to 13 all tabulate.
func (p comparePair) memCols() []string {
	return []string{gbOrOOM(p.base), gbOrOOM(p.gml), pctOrOOM(p.base), pctOrOOM(p.gml)}
}

// savedRow is a labelled memCols row plus the reserved memory GMLake saved
// (Figures 10 and 12).
func (p comparePair) savedRow(label string) []string {
	return append(append([]string{label}, p.memCols()...), savedGB(p.base, p.gml))
}

// scalingPanels tabulates one model's sweep along axis (GPU count, batch
// size) as the memory and throughput table pair of Figures 11 and 13, one
// row per point; the caller titles them.
func scalingPanels(axis string, points []int, pairs []comparePair) (mem, thr *Table) {
	mem = &Table{Header: append([]string{axis}, memHeader...)}
	thr = &Table{Header: []string{axis, "Thru w/o GML", "Thru w/ GML"}}
	for i, p := range pairs {
		point := fmt.Sprint(points[i])
		mem.AddRow(append([]string{point}, p.memCols()...)...)
		thr.AddRow(point, thrOrOOM(p.base), thrOrOOM(p.gml))
	}
	return mem, thr
}

// compareCells runs e.Compare over every spec as parallel cells, joined in
// spec order.
func (e *Env) compareCells(specs []workload.Spec) []comparePair {
	return runCells(e, specs, func(spec workload.Spec) comparePair {
		base, gml := e.Compare(spec, RunOptions{})
		return comparePair{base, gml}
	})
}

// Figure10 reproduces the strategy-scalability comparison: reserved memory
// and utilization for N/R/LR/RO/LRO with and without GMLake, per model.
func (e *Env) Figure10() []*Table {
	// Cells: model × strategy, flattened so all panels sweep concurrently.
	var specs []workload.Spec
	for _, mc := range figure10Models {
		for _, s := range figureStrategies {
			specs = append(specs, workload.Spec{Model: mc.model, Strategy: s, World: mc.world, Batch: mc.batch})
		}
	}
	pairs := e.compareCells(specs)

	var tables []*Table
	for i, mc := range figure10Models {
		t := &Table{
			ID: fmt.Sprintf("figure10%c", 'a'+i),
			Title: fmt.Sprintf("Strategy scalability: %s, %d GPUs, batch %d",
				mc.model.Name, mc.world, mc.batch),
			Header: append(append([]string{"Strategy"}, memHeader...), "Saved(GB)"),
		}
		for j, s := range figureStrategies {
			t.AddRow(pairs[i*len(figureStrategies)+j].savedRow(s.Label())...)
		}
		t.AddNote("paper: GMLake lifts utilization by ~5-24%% and cuts reserved memory by ~10GB (up to 17GB)")
		tables = append(tables, t)
	}
	return tables
}

// figure11Models fixes Figure 11's scale-out runs (LR strategy, DeepSpeed).
var figure11Models = []struct {
	model model.Config
	batch int
}{
	{model.OPT13B, 24},
	{model.Vicuna13B, 24},
	{model.GPTNeoX20B, 12},
}

// Figure11 reproduces GPU scale-out: utilization/reserved memory (panels
// a-c) and throughput (panels d-f) for 1..16 GPUs under LR.
func (e *Env) Figure11() []*Table {
	// Cells: model × world, flattened.
	worlds := []int{1, 2, 4, 8, 16}
	var specs []workload.Spec
	for _, mc := range figure11Models {
		for _, w := range worlds {
			specs = append(specs, workload.Spec{Model: mc.model, Strategy: workload.StrategyLR, World: w, Batch: mc.batch})
		}
	}
	pairs := e.compareCells(specs)

	var tables []*Table
	for i, mc := range figure11Models {
		mem, thr := scalingPanels("GPUs", worlds, pairs[i*len(worlds):(i+1)*len(worlds)])
		mem.ID = fmt.Sprintf("figure11%c", 'a'+i)
		mem.Title = fmt.Sprintf("Scale-out memory: %s, LR, batch %d/GPU", mc.model.Name, mc.batch)
		thr.ID = fmt.Sprintf("figure11%c", 'd'+i)
		thr.Title = fmt.Sprintf("Scale-out throughput: %s, LR (samples/s)", mc.model.Name)
		mem.AddNote("paper: baseline utilization decays with scale-out; GMLake holds ~90%%+")
		thr.AddNote("paper: GMLake sustains throughput comparable to the baseline at every scale")
		tables = append(tables, mem, thr)
	}
	return tables
}

// Figure12 reproduces the platform comparison: FSDP-GLM-10B, DeepSpeed-
// OPT-13B and Colossal-AI-GPT-2 under LR on 4 GPUs.
func (e *Env) Figure12() *Table {
	t := &Table{
		ID:     "figure12",
		Title:  "Platform scalability (LR, 4 GPUs)",
		Header: append(append([]string{"Platform/Model"}, memHeader...), "Saved(GB)"),
	}
	cases := []struct {
		label    string
		platform workload.Platform
		model    model.Config
		batch    int
	}{
		{"FSDP-GLM-10B", workload.FSDP, model.GLM10B, 24},
		{"DS-OPT-13B", workload.DeepSpeed, model.OPT13B, 24},
		{"CAI-GPT-2", workload.ColossalAI, model.GPT2, 48},
	}
	var specs []workload.Spec
	for _, c := range cases {
		specs = append(specs, workload.Spec{Model: c.model, Strategy: workload.StrategyLR,
			Platform: c.platform, World: 4, Batch: c.batch})
	}
	for i, p := range e.compareCells(specs) {
		t.AddRow(p.savedRow(cases[i].label)...)
	}
	t.AddNote("paper: reductions of ~9-33%% in fragmentation and 7-25GB reserved memory across platforms")
	return t
}

// figure13Sweeps fixes the batch sweeps of Figure 13 (LR + ZeRO-3, 4 GPUs).
var figure13Sweeps = []struct {
	model   model.Config
	batches []int
}{
	{model.OPT1_3B, []int{1, 32, 64, 128, 192, 224, 249}},
	{model.OPT13B, []int{1, 20, 40, 60, 80, 100, 120}},
	{model.GPTNeoX20B, []int{1, 12, 24, 36, 48, 60, 72, 84}},
}

// Figure13 reproduces the end-to-end batch sweeps: memory (panels a-c) and
// throughput (panels d-f), including the OOM frontier where the baseline
// dies but GMLake still runs.
func (e *Env) Figure13() []*Table {
	// Cells: every (model, batch) point of every sweep, flattened; the OOM
	// frontier points run concurrently with the surviving ones.
	var specs []workload.Spec
	for _, sw := range figure13Sweeps {
		for _, b := range sw.batches {
			specs = append(specs, workload.Spec{Model: sw.model, Strategy: workload.StrategyLR, World: 4, Batch: b})
		}
	}
	pairs := e.compareCells(specs)

	var tables []*Table
	for i, sw := range figure13Sweeps {
		mem, thr := scalingPanels("Batch", sw.batches, pairs[:len(sw.batches)])
		pairs = pairs[len(sw.batches):]
		mem.ID = fmt.Sprintf("figure13%c", 'a'+i)
		mem.Title = fmt.Sprintf("Batch sweep memory: %s, LR, 4 GPUs", sw.model.Name)
		thr.ID = fmt.Sprintf("figure13%c", 'd'+i)
		thr.Title = fmt.Sprintf("Batch sweep throughput: %s, LR, 4 GPUs (samples/s)", sw.model.Name)
		mem.AddNote("paper: baseline hits OOM at the largest batches while GMLake keeps running with >95%% utilization")
		tables = append(tables, mem, thr)
	}
	return tables
}

// Figure14 reproduces the memory-trace comparison on GPT-NeoX-20B at the
// batch size where the baseline OOMs (72 in the paper; 84 under our memory
// sizing): per-phase active and reserved timelines for both allocators,
// plus the convergence observation.
func (e *Env) Figure14() *Table {
	spec := workload.Spec{Model: model.GPTNeoX20B, Strategy: workload.StrategyLR, World: 4, Batch: 84}
	runs := runCells(e, []string{AllocCaching, AllocGMLake}, func(name string) RunResult {
		return e.RunWorkload(spec, name, RunOptions{Timeline: true})
	})
	base, gml := runs[0], runs[1]

	t := &Table{
		ID:        "figure14",
		Title:     "Memory trace summary (GPT-NeoX-20B, LR, batch 84, 4 GPUs)",
		Header:    []string{"Allocator", "Completed steps", "OOM", "PeakActive(GB)", "PeakReserved(GB)", "Thru(samples/s)"},
		Timelines: map[string]*metrics.Timeline{AllocCaching: base.Timeline, AllocGMLake: gml.Timeline},
	}
	for _, r := range []RunResult{base, gml} {
		t.AddRow(r.Allocator, fmt.Sprintf("%d", r.Steps), fmt.Sprintf("%v", r.OOM),
			gb(r.PeakActive), gb(r.PeakReserved), thrOrOOM(r))
	}
	t.AddNote("paper: PyTorch dies with OOM at ~200s while GMLake runs; reserved ~= active for GMLake; GMLake reaches steady state after ~4 iterations")
	return t
}

// headlineGrid enumerates the paper's §5 aggregate: 76 workloads over 8
// model/platform combinations. We sweep model x strategy x world x batch
// points that fit the device, pairing every run on both allocators.
func headlineGrid() []workload.Spec {
	var specs []workload.Spec
	type mc struct {
		m       model.Config
		world   int
		batches []int
	}
	// 19 model/world/batch points x 4 strategies = 76 workloads, matching
	// the paper's count. The largest batches sit at the OOM frontier.
	cases := []mc{
		{model.OPT1_3B, 4, []int{16, 64, 128, 249}},
		{model.GPT2, 4, []int{16, 48, 96}},
		{model.GLM10B, 4, []int{8, 24, 48}},
		{model.OPT13B, 4, []int{8, 24, 100}},
		{model.Vicuna13B, 4, []int{8, 24, 48}},
		{model.GPTNeoX20B, 8, []int{4, 12, 24}},
	}
	strategies := []workload.Strategy{
		workload.StrategyR, workload.StrategyLR,
		workload.StrategyRO, workload.StrategyLRO,
	}
	for _, c := range cases {
		for _, s := range strategies {
			for _, b := range c.batches {
				specs = append(specs, workload.Spec{
					Model: c.m, Strategy: s, World: c.world, Batch: b,
				})
			}
		}
	}
	return specs
}

// Headline reproduces the paper's summary numbers: average and maximum
// reserved-memory savings and fragmentation reduction across the workload
// grid.
func (e *Env) Headline() *Table {
	specs := headlineGrid()
	var (
		bases, gmls  []metrics.Run
		sumSaved     float64
		maxSaved     float64
		sumFragDrop  float64
		maxFragDrop  float64
		completed    int
		baselineOOMs int
	)
	// The 76 workload cells sweep concurrently; the aggregation below folds
	// their results in spec order, so the summary numbers are independent
	// of scheduling.
	for _, p := range e.compareCells(specs) {
		base, gml := p.base, p.gml
		bases = append(bases, base.Run)
		gmls = append(gmls, gml.Run)
		if base.OOM && !gml.OOM {
			baselineOOMs++
			continue
		}
		if base.OOM || gml.OOM {
			continue
		}
		completed++
		saved := float64(float64(base.PeakReserved-gml.PeakReserved) / float64(1<<30))
		fragDrop := base.Fragmentation() - gml.Fragmentation()
		sumSaved += saved
		sumFragDrop += fragDrop
		if saved > maxSaved {
			maxSaved = saved
		}
		if fragDrop > maxFragDrop {
			maxFragDrop = fragDrop
		}
	}
	t := &Table{
		ID:     "headline",
		Title:  fmt.Sprintf("Aggregate over %d workloads", len(specs)),
		Header: []string{"Metric", "Measured", "Paper"},
	}
	if completed > 0 {
		t.AddRow("Avg reserved saving (GB)", fmt.Sprintf("%.1f", sumSaved/float64(completed)), "9.2")
		t.AddRow("Max reserved saving (GB)", fmt.Sprintf("%.1f", maxSaved), "25")
		t.AddRow("Avg fragmentation reduction", pct(sumFragDrop/float64(completed)), "15%")
		t.AddRow("Max fragmentation reduction", pct(maxFragDrop), "33%")
	}
	t.AddRow("Mem reduction ratio", pct(metrics.MemReductionRatio(bases, gmls)), "-")
	t.AddRow("Workloads baseline-OOM only", fmt.Sprintf("%d", baselineOOMs), ">0")
	return t
}

func gbOrOOM(r RunResult) string {
	if r.OOM {
		return "OOM"
	}
	return gb(r.PeakReserved)
}

func pctOrOOM(r RunResult) string {
	if r.OOM {
		return "OOM"
	}
	return pct(r.Utilization())
}

func thrOrOOM(r RunResult) string {
	if r.OOM {
		return "OOM"
	}
	return fmt.Sprintf("%.1f", r.Throughput())
}

func savedGB(base, gml RunResult) string {
	if base.OOM || gml.OOM {
		return "-"
	}
	return gb(base.PeakReserved - gml.PeakReserved)
}
