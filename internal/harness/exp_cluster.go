package harness

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// Cluster goes beyond the paper's single-rank measurement: a full
// data-parallel job with one simulated device and allocator per rank. With
// per-rank data loaders each rank draws different batch shapes, ranks
// fragment differently, and the job's OOM risk is set by the *worst* rank —
// a figure the paper's rank-0 numbers understate for the caching allocator.
// GMLake's reserved memory tracks active memory, so its worst rank barely
// exceeds its mean.
func (e *Env) ClusterExperiment() *Table {
	t := &Table{
		ID:    "cluster",
		Title: "Whole-job view: per-rank allocators (OPT-1.3B, LR, 4 ranks, batch 32)",
		Header: []string{"Allocator", "Shapes", "Mean RM(GB)", "Worst RM(GB)",
			"Rank skew", "Min util"},
	}
	type cell struct {
		alloc  string
		shared bool
	}
	var cells []cell
	for _, alloc := range []string{AllocCaching, AllocGMLake} {
		for _, shared := range []bool{true, false} {
			cells = append(cells, cell{alloc: alloc, shared: shared})
		}
	}
	spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyLR, World: 4, Batch: 32}
	summaries := runCells(e, cells, func(c cell) jobSummary {
		return e.runJob(spec, c.alloc, c.shared, e.TotalSteps)
	})
	for i, s := range summaries {
		label := "per-rank"
		if cells[i].shared {
			label = "shared"
		}
		t.AddRow(cells[i].alloc, label,
			gb(s.meanReserved), gb(s.worstReserved),
			fmt.Sprintf("%.3f", s.skew()), pct(s.minUtil))
	}
	t.AddNote("beyond the paper: a job OOMs when ANY rank does, so worst-rank reserved is the operative number")
	return t
}

// jobSummary aggregates one data-parallel job over its ranks.
type jobSummary struct {
	steps   int           // completed lockstep steps
	elapsed time.Duration // the job's clock, paced by the slowest rank
	// Peak reserved bytes across ranks; the worst rank is the OOM-relevant
	// figure.
	meanReserved, worstReserved, leastReserved int64
	minUtil                                    float64
}

// skew is the worst-to-mean peak-reserved ratio: 1.0 under perfectly
// symmetric ranks, above it when per-rank shape streams fragment ranks
// differently.
func (s jobSummary) skew() float64 {
	if s.meanReserved == 0 {
		return 1
	}
	return float64(s.worstReserved) / float64(s.meanReserved)
}

// runJob simulates a full data-parallel job of up to steps training steps:
// one rig and trainer per rank of spec.World, stepped in lockstep. The
// single-rank runners rely on data-parallel symmetry, which is exact when
// every rank sees identically-shaped batches (shared); otherwise each rank
// seeds its own shape stream, as with real per-rank data loaders. A failure
// (OOM) on any rank ends the job, as a collective would.
func (e *Env) runJob(spec workload.Spec, alloc string, shared bool, steps int) jobSummary {
	spec.Seed = e.Seed
	spec, err := spec.Normalize()
	if err != nil {
		panic("harness: bad spec: " + err.Error())
	}
	rigs := make([]rig, spec.World)
	trainers := make([]*workload.Trainer, spec.World)
	for r := range rigs {
		rigs[r] = e.newRig(alloc)
		rankSpec := spec
		if !shared {
			rankSpec.Seed += uint64(r) * 0x9e3779b9
		}
		if trainers[r], err = workload.NewTrainer(rankSpec, rigs[r].alloc, rigs[r].clock); err != nil {
			panic("harness: bad spec: " + err.Error())
		}
		defer trainers[r].Teardown()
	}
	// lockstep runs one phase on every rank, then the gradient barrier:
	// every clock advances to the slowest rank's time.
	lockstep := func(phase func(*workload.Trainer) error) bool {
		var now time.Duration
		for r, tr := range trainers {
			if phase(tr) != nil {
				return false
			}
			now = max(now, rigs[r].clock.Now())
		}
		for _, r := range rigs {
			r.clock.AdvanceTo(now)
		}
		return true
	}
	s := jobSummary{minUtil: 1, leastReserved: 1<<62 - 1}
	if lockstep((*workload.Trainer).Setup) {
		for s.steps < steps && lockstep((*workload.Trainer).Step) {
			s.steps++
		}
	}
	for _, r := range rigs {
		st := r.alloc.Stats()
		s.meanReserved += st.PeakReserved
		s.worstReserved = max(s.worstReserved, st.PeakReserved)
		s.leastReserved = min(s.leastReserved, st.PeakReserved)
		s.minUtil = min(s.minUtil, st.Utilization())
	}
	s.meanReserved /= int64(len(rigs))
	s.elapsed = rigs[0].clock.Now()
	return s
}
