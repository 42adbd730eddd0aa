// Package pipesim drives per-stage memory allocators through pipeline-
// parallel training schedules, turning the paper's §2.4 observation — model
// parallelism fragments memory — into allocator traffic.
//
// A pipeline stage's activation lifetimes depend on the schedule: GPipe
// buffers every microbatch's activations to the flush and frees them in
// reverse (LIFO, friendly to any allocator); 1F1B holds a bounded window
// and frees in arrival order (FIFO) while fresh forwards interleave, so the
// pool keeps recycling under load. With sequence-length jitter the recycled
// blocks no longer fit exactly, which fragments the splitting-based caching
// allocator but not GMLake's stitching.
//
// PipelineConfig and its two Schedules describe the simulated pipeline;
// they live here because nothing but this simulation runs one.
package pipesim

import (
	"fmt"

	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/sim"
)

// Op is one schedule slot of one stage.
type Op struct {
	Forward    bool
	Microbatch int
}

// StageSchedule returns the execution order of stage (0-based) under cfg:
// F/B ops over cfg.MicroBatches microbatches. The in-flight activation
// count peaks at MicroBatches under GPipe and at min(Stages − stage,
// MicroBatches) under 1F1B; TestScheduleProperty holds it to that bound.
func StageSchedule(cfg PipelineConfig, stage int) ([]Op, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stage < 0 || stage >= cfg.Stages {
		return nil, fmt.Errorf("pipesim: stage %d of %d", stage, cfg.Stages)
	}
	m := cfg.MicroBatches
	ops := make([]Op, 0, 2*m)
	switch cfg.Schedule {
	case GPipe:
		// All forwards, then backwards in reverse order (the autograd
		// graph unwinds LIFO).
		for i := 0; i < m; i++ {
			ops = append(ops, Op{Forward: true, Microbatch: i})
		}
		for i := m - 1; i >= 0; i-- {
			ops = append(ops, Op{Microbatch: i})
		}
	default: // OneFOneB
		warm := cfg.Stages - stage
		if warm > m {
			warm = m
		}
		for i := 0; i < warm; i++ {
			ops = append(ops, Op{Forward: true, Microbatch: i})
		}
		for i := warm; i < m; i++ {
			ops = append(ops, Op{Microbatch: i - warm})
			ops = append(ops, Op{Forward: true, Microbatch: i})
		}
		for i := m - warm; i < m; i++ {
			ops = append(ops, Op{Microbatch: i})
		}
	}
	return ops, nil
}

// Config describes one pipeline-parallel training simulation.
type Config struct {
	Model model.Config
	Pipe  PipelineConfig

	// MicroBatch is the per-microbatch sample count.
	MicroBatch int
	// SeqLen is the nominal sequence length (0 → model default).
	SeqLen int
	// SeqJitter varies each microbatch's activation size by up to this
	// fraction, the variable-length batches of real fine-tuning. Zero
	// replays identical sizes.
	SeqJitter float64
	// Steps is how many full pipeline flushes to run.
	Steps int
	// Seed drives the jitter.
	Seed uint64
}

func (c Config) normalize() (Config, error) {
	if err := c.Pipe.Validate(); err != nil {
		return c, err
	}
	if c.MicroBatch <= 0 {
		return c, fmt.Errorf("pipesim: microbatch %d", c.MicroBatch)
	}
	if c.SeqLen == 0 {
		c.SeqLen = c.Model.SeqLen
	}
	if c.SeqLen <= 0 {
		return c, fmt.Errorf("pipesim: seq len %d", c.SeqLen)
	}
	if c.Steps <= 0 {
		c.Steps = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SeqJitter < 0 || c.SeqJitter >= 1 {
		return c, fmt.Errorf("pipesim: jitter %v", c.SeqJitter)
	}
	return c, nil
}

// StageResult is one stage's memory outcome.
type StageResult struct {
	Stage  int
	Layers int
	Stats  memalloc.Stats
	OOM    bool
}

// Run executes cfg with one allocator per stage, supplied by newAlloc (each
// stage models its own GPU). It returns per-stage results; an OOM stops the
// affected stage but the others complete, mirroring how a real job surfaces
// the worst rank.
func Run(cfg Config, newAlloc func(stage int) memalloc.Allocator) ([]StageResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	layersPerStage, err := cfg.Pipe.PartitionLayers(cfg.Model.Layers)
	if err != nil {
		return nil, err
	}

	results := make([]StageResult, cfg.Pipe.Stages)
	for stage := 0; stage < cfg.Pipe.Stages; stage++ {
		results[stage] = runStage(cfg, stage, layersPerStage[stage], newAlloc(stage))
	}
	return results, nil
}

func runStage(cfg Config, stage, layers int, alloc memalloc.Allocator) StageResult {
	res := StageResult{Stage: stage, Layers: layers}
	rng := sim.NewRNG(cfg.Seed + uint64(stage)*1e9)

	// Persistent stage state: this stage's parameter and gradient shard.
	stateBytes := 2 * cfg.Model.LayerParamBytes() * int64(layers)
	state, err := alloc.Alloc(stateBytes)
	if err != nil {
		res.OOM = true
		res.Stats = alloc.Stats()
		return res
	}

	perMicro := cfg.Model.ActivationBytesPerLayer(cfg.MicroBatch, cfg.SeqLen) * int64(layers)
	sched, err := StageSchedule(cfg.Pipe, stage)
	if err != nil {
		panic(err) // cfg was validated
	}

	live := make(map[int]*memalloc.Buffer, cfg.Pipe.MicroBatches)
	oom := false
steps:
	for step := 0; step < cfg.Steps; step++ {
		for _, op := range sched {
			if op.Forward {
				size := rng.Jitter(perMicro, cfg.SeqJitter)
				b, err := alloc.Alloc(size)
				if err != nil {
					oom = true
					break steps
				}
				live[op.Microbatch] = b
				// Transient working set of the forward kernels, freed
				// before the next slot.
				if w, err := alloc.Alloc(size / 4); err == nil {
					alloc.Free(w)
				}
			} else {
				b, ok := live[op.Microbatch]
				if !ok {
					panic(fmt.Sprintf("pipesim: backward for unseen microbatch %d", op.Microbatch))
				}
				// Backward needs a gradient working buffer alongside the
				// stored activations.
				if w, err := alloc.Alloc(perMicro / 2); err == nil {
					alloc.Free(w)
				}
				alloc.Free(b)
				delete(live, op.Microbatch)
			}
		}
		if len(live) != 0 {
			panic("pipesim: schedule left activations in flight after a flush")
		}
	}
	for _, b := range live {
		alloc.Free(b)
	}
	alloc.Free(state)
	res.OOM = oom
	res.Stats = alloc.Stats()
	return res
}

// WorstStage returns the result with the highest peak reserved memory.
func WorstStage(results []StageResult) StageResult {
	worst := results[0]
	for _, r := range results[1:] {
		if r.Stats.PeakReserved > worst.Stats.PeakReserved {
			worst = r
		}
	}
	return worst
}
