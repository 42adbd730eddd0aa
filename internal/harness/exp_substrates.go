package harness

import (
	"fmt"
	"time"

	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/pipesim"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/stream"
)

// ZeROExperiment tabulates per-rank training state and per-step
// communication across ZeRO stages and world sizes (the decomposition behind
// the paper's Figure 4 scale-out observation): higher stages shrink each
// rank's residents but slice them into world-dependent shards and add
// gather churn.
func (e *Env) ZeROExperiment() *Table {
	t := &Table{
		ID:     "zero",
		Title:  "ZeRO stages: per-rank state and communication, OPT-13B",
		Header: []string{"stage", "world", "params(GB)", "grads(GB)", "optim(GB)", "total(GB)", "comm/step(GB)"},
	}
	params := model.OPT13B.Params()
	type cell struct {
		stage parallel.ZeROStage
		world int
	}
	var cells []cell
	for _, stage := range []parallel.ZeROStage{parallel.Stage0, parallel.Stage1, parallel.Stage2, parallel.Stage3} {
		for _, world := range []int{1, 4, 16} {
			cells = append(cells, cell{stage: stage, world: world})
		}
	}
	for _, row := range runCells(e, cells, func(c cell) []string {
		b, err := parallel.ZeROState(params, c.world, c.stage)
		if err != nil {
			panic("harness: " + err.Error())
		}
		comm := parallel.ZeROStepCommBytes(params, c.world, c.stage)
		return []string{c.stage.String(), fmt.Sprint(c.world),
			gb(b.Params), gb(b.Grads), gb(b.Optimizer), gb(b.Total()), gb(comm)}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("ZeRO-3 cuts a 16-rank job's per-rank state 8x vs ZeRO-0 but pays 2 extra parameter gathers per step;")
	t.AddNote("each gather materializes transient full layers — the alloc/free churn behind Figure 4's utilization drop.")
	return t
}

// RecomputeExperiment tabulates checkpointing plans for GPT-NeoX-20B: how
// the planner trades activation memory against recompute time, and how a
// byte budget picks the cheapest feasible segmentation.
func (e *Env) RecomputeExperiment() *Table {
	t := &Table{
		ID:     "recompute",
		Title:  "Activation checkpointing plans, GPT-NeoX-20B batch 16",
		Header: []string{"plan", "segments", "peak acts (GB)", "stored (GB)", "extra time", "vs store-all"},
	}
	m := recompute.ForModel(model.GPTNeoX20B, 16)
	full := m.Evaluate(recompute.NoRecompute())

	// The plans are chosen up front; the cells evaluate them. m is shared
	// read-only (value receiver, pure evaluation).
	type planned struct {
		name string
		plan recompute.Plan
		err  error
	}
	plans := []planned{{name: "store-all", plan: recompute.NoRecompute()}}
	if p, err := recompute.SqrtN(len(m.Layers)); err == nil {
		plans = append(plans, planned{name: "sqrt(N)", plan: p})
	}
	if p, err := recompute.Uniform(len(m.Layers), 1); err == nil {
		plans = append(plans, planned{name: "per-layer", plan: p})
	}
	for _, frac := range []float64{0.5, 0.25, 0.1} {
		p, err := m.PlanForBudget(int64(float64(full.PeakBytes) * frac))
		plans = append(plans, planned{fmt.Sprintf("budget %.0f%%", frac*100), p, err})
	}
	for _, row := range runCells(e, plans, func(c planned) []string {
		if c.err != nil {
			return []string{c.name, "-", "infeasible", "-", "-", "-"}
		}
		r := m.Evaluate(c.plan)
		return []string{c.name, fmt.Sprint(r.Segments), gb(r.PeakBytes), gb(r.StoredBytes),
			r.ExtraTime.Round(time.Millisecond).String(),
			pct(float64(r.PeakBytes) / float64(full.PeakBytes))}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("checkpointing converts a big resident activation set into per-segment recompute bursts of")
	t.AddNote("short-lived tensors — the small-and-frequent request pattern of Figure 5's right panel.")
	return t
}

// StreamsExperiment quantifies the stream-aware free deferral: sharing
// buffers with a busy side stream keeps blocks transiently unavailable, so
// reserved memory climbs above the no-sharing run on the same request
// sequence.
func (e *Env) StreamsExperiment() *Table {
	t := &Table{
		ID:     "streams",
		Title:  "Cross-stream sharing inflates reserved memory (record_stream deferral)",
		Header: []string{"allocator", "sharing", "peak reserved (GB)", "deferred frees", "events"},
	}
	const (
		rounds  = 64
		bufSize = 256 * sim.MiB
		kernel  = 5 * time.Millisecond
	)
	type cell struct {
		alloc string
		share bool
	}
	var cells []cell
	for _, allocName := range []string{AllocCaching, AllocGMLake} {
		for _, share := range []bool{false, true} {
			cells = append(cells, cell{alloc: allocName, share: share})
		}
	}
	for _, row := range runCells(e, cells, func(c cell) []string {
		r := e.newRig(c.alloc)
		sched := stream.NewScheduler(r.clock)
		side := sched.NewStream()
		sa := stream.NewAllocator(r.alloc, sched)

		for i := 0; i < rounds; i++ {
			b, err := sa.Alloc(bufSize)
			if err != nil {
				panic("harness: streams experiment OOM")
			}
			if c.share {
				// A kernel on the side stream reads the buffer.
				sched.Launch(side, kernel)
				sa.RecordStream(b, side)
			}
			sa.Free(b)
		}
		sa.SynchronizeAndFree()
		st := sa.Stats()
		return []string{c.alloc, fmt.Sprint(c.share), gb(st.PeakReserved),
			fmt.Sprint(sa.DeferredTotal()), fmt.Sprint(sched.EventsRecorded())}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("without sharing each free is immediate and one block is reused for all rounds;")
	t.AddNote("with a busy consumer stream the free defers behind an event, forcing fresh reservations.")
	return t
}

// PipelineExperiment drives per-stage allocators through GPipe and 1F1B
// schedules with sequence-length jitter: the schedules' different activation
// lifetimes (LIFO flush vs bounded FIFO window) and the jittered sizes
// separate the caching allocator from GMLake on the worst stage.
func (e *Env) PipelineExperiment() *Table {
	t := &Table{
		ID:     "pipefrag",
		Title:  "Pipeline schedules vs allocators, OPT-13B, 4 stages, 20% seq jitter",
		Header: []string{"schedule", "allocator", "worst reserved (GB)", "worst util", "OOM stages"},
	}
	type cell struct {
		sched parallel.Schedule
		alloc string
	}
	var cells []cell
	for _, sched := range []parallel.Schedule{parallel.GPipe, parallel.OneFOneB} {
		for _, allocName := range []string{AllocCaching, AllocGMLake} {
			cells = append(cells, cell{sched: sched, alloc: allocName})
		}
	}
	for _, row := range runCells(e, cells, func(c cell) []string {
		cfg := pipesim.Config{
			Model: model.OPT13B,
			Pipe: parallel.PipelineConfig{
				Stages:       4,
				MicroBatches: 16,
				Schedule:     c.sched,
			},
			MicroBatch: 2,
			SeqJitter:  0.2,
			Steps:      max(2, e.TotalSteps/5),
			Seed:       e.Seed,
		}
		results, err := pipesim.Run(cfg, func(int) memalloc.Allocator {
			return e.newRig(c.alloc).alloc
		})
		if err != nil {
			panic("harness: " + err.Error())
		}
		ooms := 0
		for _, r := range results {
			if r.OOM {
				ooms++
			}
		}
		worst := pipesim.WorstStage(results)
		return []string{c.sched.String(), c.alloc,
			gb(worst.Stats.PeakReserved), pct(worst.Stats.Utilization()), fmt.Sprint(ooms)}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("GPipe buffers all 16 microbatches at the flush; 1F1B holds at most the stage depth but")
	t.AddNote("recycles jittered sizes through the pool every slot — the churn GMLake absorbs.")
	return t
}
