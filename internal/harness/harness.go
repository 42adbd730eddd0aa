// Package harness reproduces the paper's evaluation: one runner per table
// and figure, each returning a renderable text table with the same rows or
// series the paper reports. The experiment table in all.go maps experiment
// ids to these functions (`gmlake-bench -list` prints the ids).
//
// An experiment is data handed to one runner. It declares its cells —
// independent executions that each build their own rig (device, virtual
// clock, driver, allocator) — a header, and a function from one cell's
// result to its rows; runCells (runner.go) executes the cells on a bounded
// worker pool and joins the results in cell order, so a table is
// byte-identical at any Env.Parallelism. The training experiments cross
// models × strategies × allocators over RunWorkload, and figures that
// measure the same thing share the code that measures it: timeVMM times
// both Table 1's phases and Figure 6's latencies (exp_micro.go),
// utilizationTable renders Figures 3 and 4 (exp_motivation.go),
// compareCells pairs the caching baseline with GMLake for Figures 10–13
// and the headline, and scalingPanels renders the memory/throughput panel
// pairs of Figures 11 and 13 (exp_eval.go). The serving experiments
// cross mixes × fleet variants over ServeCluster through the one sweep in
// exp_serve.go: e.grid builds the cells with one shared stream per mix,
// e.sweepTable runs them and prefixes each row with its cell's key. What a
// failed cell means is an argument of sweepTable, not a convention: a fail
// row renders it (the tables whose tight pools may OOM), nil panics with
// the table id and cell key (a fleet that must serve its stream). The
// serving experiments serve generated mixes at the serve package's defaults;
// replaying a trace file is gmlake-serve's job, on the same serving testbed.
//
// To add a serving experiment, write its []fleetVariant and row function,
// call grid and sweepTable, and add its id to experiments() in all.go; then
// record its golden with
//
//	go test ./internal/harness -run TestExperimentGoldens -update
//
// Every id is pinned byte-for-byte to testdata/golden/<id>.golden at
// Parallelism 1 and 8. A refactor must leave those files alone; -update is
// for a new experiment or an intended change to a simulated number, and
// its diff is reviewed like code.
package harness

import (
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/metrics"
	"repro/internal/optrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Allocator names accepted by the runners.
const (
	AllocCaching    = "caching"
	AllocGMLake     = "gmlake"
	AllocNative     = "native"
	AllocExpandable = "expandable"
	AllocCompact    = "compact"
	// AllocCachingTuned is the caching allocator with the
	// PYTORCH_CUDA_ALLOC_CONF mitigations practitioners used before
	// VMM-based allocators: max_split_size_mb=128 and
	// garbage_collection_threshold=0.8.
	AllocCachingTuned = "caching-tuned"
)

// Env fixes the simulated testbed: A100-80GB-class devices and the
// calibrated driver cost model. Its fields are the device capacity, the
// step budget, the seed and the worker count; the serving experiments take
// no serving options from it.
type Env struct {
	// Capacity is the per-GPU memory (default 80 GiB, the paper's A100).
	Capacity int64

	// TotalSteps is the minimum per-run step count. GMLake's stitched-block
	// cache needs tens of iterations to converge on the more irregular
	// strategy mixes (paper Figure 14 shows the same warm-up effect), and
	// the caching allocator's reserved memory needs a similar horizon to
	// reach its steady-state union of packings.
	TotalSteps int

	// MaxSteps caps the adaptive warm-up: a run keeps stepping past
	// TotalSteps until the allocator converges (GMLake: S1-only; caching:
	// reserved memory stable) or MaxSteps is reached.
	MaxSteps int

	// MeasureSteps is how many post-convergence steps the throughput is
	// averaged over.
	MeasureSteps int

	// Seed drives the workload generators.
	Seed uint64

	// Parallelism bounds the experiment engine's worker pool: experiment
	// cells (independent workload × allocator executions, each on its own
	// rig) run on up to this many goroutines, and their results are joined
	// by cell index so rendered tables are byte-identical to a sequential
	// run. 0 means GOMAXPROCS; 1 forces sequential execution.
	Parallelism int
}

// NewEnv returns the default environment.
func NewEnv() *Env {
	return &Env{
		Capacity:     80 * sim.GiB,
		TotalSteps:   40,
		MaxSteps:     200,
		MeasureSteps: 12,
		Seed:         7,
	}
}

// rig is one assembled device + driver + allocator.
type rig struct {
	dev    *gpu.Device
	clock  *sim.Clock
	driver *cuda.Driver
	alloc  memalloc.Allocator
}

func (e *Env) newRig(name string) rig { return e.newRigCap(name, e.Capacity) }

// newDriverRig assembles the device, clock and driver of a rig of an
// explicit capacity; the caller puts an allocator on it.
func newDriverRig(capacity int64) rig {
	dev := gpu.NewDevice("sim-a100", capacity)
	clock := sim.NewClock()
	return rig{dev: dev, clock: clock, driver: cuda.NewDriver(dev, clock, sim.DefaultCostModel())}
}

// newRigCap assembles a rig on a device of an explicit capacity. It must
// not read mutable Env state beyond its arguments: rigs are built inside
// parallel experiment cells.
func (e *Env) newRigCap(name string, capacity int64) rig {
	cfg := conf.Config{Backend: name}
	if name == AllocCachingTuned {
		cfg = conf.Config{Backend: AllocCaching, MaxSplitSizeMB: 128, GCThreshold: 0.8}
	}
	r := newDriverRig(capacity)
	alloc, err := cfg.Build(r.driver)
	if err != nil {
		panic("harness: " + err.Error())
	}
	r.alloc = alloc
	return r
}

// RunResult is one workload × allocator execution.
type RunResult struct {
	metrics.Run
	Spec     workload.Spec
	Timeline *metrics.Timeline
	Counters cuda.Counters
}

// RunOptions tweaks RunWorkload.
type RunOptions struct {
	// Timeline attaches per-phase memory sampling.
	Timeline bool
	// Steps overrides the environment's step budget (0 = default).
	Steps int
}

// RunWorkload executes spec on the named allocator and summarizes it.
// Out-of-memory — at setup or any step — is reported in the result, not as
// an error: OOM points are data in Figures 13 and 14.
func (e *Env) RunWorkload(spec workload.Spec, allocName string, opts RunOptions) RunResult {
	return e.runOnRig(e.newRig(allocName), spec, allocName, opts)
}

// runOnRig drives spec on an already-assembled rig (used directly by the
// ablation runner, which needs custom allocator configurations).
func (e *Env) runOnRig(r rig, spec workload.Spec, allocName string, opts RunOptions) RunResult {
	spec.Seed = e.Seed
	res := RunResult{Spec: spec}
	res.Allocator = allocName

	tr, err := workload.NewTrainer(spec, r.alloc, r.clock)
	if err != nil {
		panic("harness: bad spec: " + err.Error())
	}
	var tl *metrics.Timeline
	if opts.Timeline {
		tl = &metrics.Timeline{}
		tr.SetTimeline(tl)
		res.Timeline = tl
	}

	minSteps, maxSteps := e.TotalSteps, e.MaxSteps
	if opts.Steps != 0 {
		minSteps, maxSteps = opts.Steps, opts.Steps
	}
	measure := e.MeasureSteps

	oom := false
	if err := tr.Setup(); err != nil {
		oom = true
	}

	// Warm up adaptively: run at least minSteps, then continue until the
	// allocator converges or maxSteps.
	conv := convergenceProbe{alloc: r.alloc}
	if !oom {
		for i := 0; i < maxSteps; i++ {
			if err := tr.Step(); err != nil {
				oom = true
				break
			}
			if i+1 >= minSteps && conv.converged() {
				break
			}
		}
	}

	// Measure throughput over post-warm-up steps.
	var measStart time.Duration
	measSamples := 0
	if !oom {
		measStart = r.clock.Now()
		for i := 0; i < measure; i++ {
			if err := tr.Step(); err != nil {
				oom = true
				break
			}
			measSamples += spec.Batch * spec.World
		}
	}
	st := r.alloc.Stats()
	res.PeakActive = st.PeakActive
	res.PeakReserved = st.PeakReserved
	res.AllocCount = st.AllocCount
	res.FreeCount = st.FreeCount
	res.Steps = tr.Steps()
	res.OOM = oom
	if measSamples > 0 && r.clock.Now() > measStart {
		res.Samples = measSamples
		res.Elapsed = r.clock.Now() - measStart
	}
	tr.Teardown()
	res.Counters = r.driver.Counters()
	return res
}

// Compare runs spec on both the caching baseline and GMLake.
func (e *Env) Compare(spec workload.Spec, opts RunOptions) (base, gml RunResult) {
	return e.RunWorkload(spec, AllocCaching, opts), e.RunWorkload(spec, AllocGMLake, opts)
}

// TraceRun records the allocation request stream of steps training steps of
// spec on the caching allocator (stream statistics are
// allocator-independent: the trainer emits the same requests either way).
func (e *Env) TraceRun(spec workload.Spec, steps int) *optrace.Trace {
	r := e.newRig(AllocCaching)
	spec.Seed = e.Seed
	rec := optrace.NewRecorder(r.alloc, r.clock)
	tr, err := workload.NewTrainer(spec, rec, r.clock)
	if err != nil {
		panic("harness: bad spec: " + err.Error())
	}
	if err := tr.Setup(); err != nil {
		return rec.Trace()
	}
	for i := 0; i < steps; i++ {
		if err := tr.Step(); err != nil {
			break
		}
	}
	tr.Teardown()
	return rec.Trace()
}

// convergenceProbe detects allocator steady state between training steps.
type convergenceProbe struct {
	alloc  memalloc.Allocator
	last   int64 // the signal at the previous check
	stable int
}

// converged reports steady state once the probe's signal has been stable for
// six consecutive steps: for GMLake no allocation left the S1 exact-match
// path (the paper's §5.4 convergence: the S2+S3+S4 total), for the
// baseline no reserved-memory growth. Six steps cover every recurring shape
// bucket a few times, so a lucky streak of repeated buckets cannot fake
// convergence.
func (p *convergenceProbe) converged() bool {
	var signal int64
	if g, ok := p.alloc.(*core.Allocator); ok {
		_, s2, s3, s4 := g.StrategyCounts()
		signal = s2 + s3 + s4
	} else {
		signal = p.alloc.Stats().PeakReserved
	}
	if signal == p.last {
		p.stable++
	} else {
		p.stable = 0
	}
	p.last = signal
	return p.stable >= 6
}

// gb formats bytes as "12.3" gigabytes.
func gb(n int64) string { return fmt.Sprintf("%.1f", float64(n)/float64(sim.GiB)) }

// pct formats a ratio as "87.3%".
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
