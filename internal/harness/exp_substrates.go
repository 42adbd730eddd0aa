package harness

import (
	"fmt"
	"time"

	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/pipesim"
	"repro/internal/sim"
	"repro/internal/stream"
)

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
		sched pipesim.Schedule
		alloc string
	}
	var cells []cell
	for _, sched := range []pipesim.Schedule{pipesim.GPipe, pipesim.OneFOneB} {
		for _, allocName := range []string{AllocCaching, AllocGMLake} {
			cells = append(cells, cell{sched: sched, alloc: allocName})
		}
	}
	for _, row := range runCells(e, cells, func(c cell) []string {
		cfg := pipesim.Config{
			Model: model.OPT13B,
			Pipe: pipesim.PipelineConfig{
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
