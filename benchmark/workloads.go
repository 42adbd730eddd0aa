package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// params are the only inputs a workload is built from: the program under
// test receives the generated stream and the built configs, nothing else.
type params struct {
	seed  uint64
	scale float64
}

// n scales a full-size count, never below one item.
func (p params) n(full int) int {
	return max(1, int(math.Round(float64(full)*p.scale)))
}

// benchWorkload is one entry of the benchmark's workload table.
type benchWorkload struct {
	name  string
	why   string
	setup func(p params, tr *tracer) (instance, error)
}

// instance is a workload with its inputs generated.
type instance interface {
	// items is what one timed call is asked to simulate: requests offered,
	// or training steps.
	items() int
	// fresh builds new drivers, allocators and managers — wrapped for
	// tracing when tr is non-nil — and returns the run that uses them.
	fresh(tr *tracer) (run, error)
	// gen is what generating the inputs cost (zero when there is no stream).
	gen() genCost
}

// run is one timed call on state nothing else has touched.
type run struct {
	call    func() error
	outcome func() outcome
}

// outcome is what a finished run did, all on the simulated clock.
type outcome struct {
	offered   int // items the call was asked to simulate
	good      int // requests completed inside their deadline; steps completed
	accounted int // items the sealed report accounts for, whatever their fate
	allServed bool
	served    int

	stats  memalloc.Stats // peaks summed over the run's allocators
	digest string
	// counts are the per-layer metrics read from the report, the
	// allocators and the drivers; they do not depend on tracing.
	counts map[string]float64
}

// genCost is the host cost of one Mix.Generate call.
type genCost struct {
	d              time.Duration
	mallocs, bytes uint64
	requests       int
}

const kvChunkTokens = 64

func gib(b int64) float64 { return float64(b) / float64(sim.GiB) }

func newDriver(capacity int64) *cuda.Driver {
	return cuda.NewDriver(gpu.NewDevice("bench", capacity), sim.NewClock(), sim.DefaultCostModel())
}

func newCaching(d *cuda.Driver) memalloc.Allocator { return caching.New(d) }
func newGMLake(d *cuda.Driver) memalloc.Allocator  { return core.NewDefault(d) }

func digestOf(v ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return fmt.Sprintf("%x", sum[:8])
}

// pools tracks the drivers and allocators one run builds, so their
// statistics can be summed once it is over.
type pools struct {
	capacity int64
	newAlloc func(*cuda.Driver) memalloc.Allocator
	tr       *tracer

	drivers []*cuda.Driver
	allocs  []memalloc.Allocator
}

// alloc builds one device with its allocator and returns the allocator the
// simulator should use: the real one, or its tracing wrapper.
func (ps *pools) alloc() memalloc.Allocator {
	d := newDriver(ps.capacity)
	a := ps.newAlloc(d)
	ps.drivers = append(ps.drivers, d)
	ps.allocs = append(ps.allocs, a)
	if ps.tr != nil {
		return &tracedAlloc{Allocator: a, tr: ps.tr}
	}
	return a
}

// kv builds one replica's KV manager over a new device.
func (ps *pools) kv(int) serve.CacheManager {
	var m serve.CacheManager = serve.NewChunkedKV(ps.alloc(), model.OPT1_3B, kvChunkTokens)
	if ps.tr != nil {
		m = &tracedKV{CacheManager: m, tr: ps.tr}
	}
	return m
}

// fill adds the allocator-side and driver-side layer metrics and the summed
// peaks to out.
func (ps *pools) fill(out *outcome) {
	c := out.counts
	var mallocCalls, vmmCalls, bytesAllocated int64
	for i, a := range ps.allocs {
		st := a.Stats()
		out.stats.PeakActive += st.PeakActive
		out.stats.PeakReserved += st.PeakReserved
		out.stats.AllocCount += st.AllocCount
		out.stats.FreeCount += st.FreeCount
		switch a := a.(type) {
		case *core.Allocator:
			s1, s2, s3, s4 := a.StrategyCounts()
			c["core.s1_exact"] += float64(s1)
			c["core.s2_split"] += float64(s2)
			c["core.s3_stitch"] += float64(s3)
			c["core.s4_new"] += float64(s4)
			c["core.stitch_frees"] += float64(a.StitchFreeCount())
			c["core.gc_runs"] += float64(a.GCRuns())
			c["core.pblocks"] += float64(a.PBlockCount())
			c["core.sblocks"] += float64(a.SBlockCount())
		case *caching.Allocator:
			c["caching.segments"] += float64(a.SegmentCount())
			c["caching.free_blocks"] += float64(a.FreeBlockCount())
		}
		dc := ps.drivers[i].Counters()
		mallocCalls += dc.Malloc + dc.Free
		vmmCalls += dc.AddressReserve + dc.AddressFree + dc.MemCreate + dc.MemRelease + dc.MemMap + dc.MemUnmap + dc.MemSet
		bytesAllocated += dc.BytesAllocated
	}
	if all := c["core.s1_exact"] + c["core.s2_split"] + c["core.s3_stitch"] + c["core.s4_new"]; all > 0 {
		c["core.exact_hit_ratio"] = c["core.s1_exact"] / all
	}
	c["cuda.malloc_calls"] = float64(mallocCalls)
	c["cuda.vmm_calls"] = float64(vmmCalls)
	c["cuda.bytes_allocated_gb"] = gib(bytesAllocated)
}

// serving is a request stream with the configuration that serves it.
type serving struct {
	reqs    []serve.Request
	cost    genCost
	cluster *serve.ClusterConfig // nil: serve.Serve on one server
	server  serve.ServerConfig
	pool    int64
	alloc   func(*cuda.Driver) memalloc.Allocator
	// allServed says the configuration loses nothing, so every offered
	// request must come back served.
	allServed bool
}

// generate times one Mix.Generate call; the stream is the only thing the
// seed decides.
func generate(mix servegen.Mix, rate float64, n int, seed uint64, tr *tracer) ([]serve.Request, genCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := 0
	if tr != nil {
		id = tr.begin("servegen.generate", 0)
	}
	t0 := now()
	reqs, err := mix.WithRate(mix.Rate*rate).Generate(n, seed)
	d := now() - t0
	if tr != nil {
		tr.end(id)
	}
	runtime.ReadMemStats(&after)
	return reqs, genCost{d: d, mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc, requests: n}, err
}

func (s *serving) items() int   { return len(s.reqs) }
func (s *serving) gen() genCost { return s.cost }

func (s *serving) fresh(tr *tracer) (run, error) {
	ps := &pools{capacity: s.pool, newAlloc: s.alloc, tr: tr}
	var rep serve.ClusterReport
	var call func() error
	if s.cluster == nil {
		mgr := ps.kv(0)
		call = func() (err error) {
			rep.Report, err = serve.Serve(s.reqs, mgr, s.server)
			return err
		}
	} else {
		call = func() (err error) {
			rep, err = serve.ServeCluster(s.reqs, ps.kv, *s.cluster)
			return err
		}
	}
	traced := func() error {
		if tr == nil {
			return call()
		}
		id := tr.begin(spanServe, 0)
		defer tr.end(id)
		return call()
	}
	return run{call: traced, outcome: func() outcome { return s.outcome(rep, ps) }}, nil
}

func (s *serving) outcome(rep serve.ClusterReport, ps *pools) outcome {
	// Every request ends in exactly one of: completed in time (Goodput),
	// missed its deadline (aborted or completed late), shed, or lost to a
	// crash. Anything else was left unfinished or dropped by the simulator.
	out := outcome{
		offered:   len(s.reqs),
		good:      rep.Goodput,
		accounted: rep.Goodput + int(rep.DeadlineMisses) + int(rep.Shed) + rep.Lost,
		allServed: s.allServed,
		served:    rep.Served,
		digest:    digestOf(rep),
	}
	var stolen, maxAssigned, sumAssigned int
	for i, n := range rep.Assigned {
		stolen += rep.Stolen[i]
		sumAssigned += n
		maxAssigned = max(maxAssigned, n)
	}
	imbalance := 0.0
	if sumAssigned > 0 {
		mean := float64(sumAssigned) / float64(len(rep.Assigned))
		imbalance = 100 * (float64(maxAssigned) - mean) / mean
	}
	hitRatio := 0.0
	if probes := rep.PrefixHits + rep.PrefixMisses; probes > 0 {
		hitRatio = float64(rep.PrefixHits) / float64(probes)
	}
	replicaSeconds, peakReplicas, availability := rep.ReplicaSeconds.Seconds(), rep.PeakReplicas, 100*rep.Availability
	if s.cluster == nil { // one server, always up, for the whole makespan
		replicaSeconds, peakReplicas, availability = rep.Duration.Seconds(), 1, 100
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out.counts = map[string]float64{
		"serve.steps":                  float64(rep.Steps),
		"serve.mean_batch":             rep.MeanBatch,
		"serve.preemptions":            float64(rep.Preemptions),
		"serve.admit_failures":         float64(rep.AdmitFailures),
		"serve.blocked_steps":          float64(rep.BlockedSteps),
		"serve.deadline_misses":        float64(rep.DeadlineMisses),
		"serve.shed":                   float64(rep.Shed),
		"serve.crashes":                float64(rep.Crashes),
		"serve.retries":                float64(rep.Retries),
		"serve.lost":                   float64(rep.Lost),
		"serve.stolen":                 float64(stolen),
		"serve.spawns":                 float64(rep.Spawns),
		"serve.drains":                 float64(rep.Drains),
		"serve.peak_replicas":          float64(peakReplicas),
		"serve.affinity_routed":        float64(rep.AffinityRouted),
		"serve.assigned_imbalance_pct": imbalance,
		"serve.prefix_hit_ratio":       hitRatio,
		"serve.reused_tokens":          float64(rep.ReusedTokens),
		"serve.retained_samples":       float64(rep.RetainedSamples),
		"serve.sketched_samples":       float64(rep.SketchedSamples),
		"serve.sim_ttft_p50_ms":        ms(rep.TTFT.P50),
		"serve.sim_ttft_p99_ms":        ms(rep.TTFT.P99),
		"serve.sim_e2e_p99_ms":         ms(rep.E2E.P99),
		"serve.sim_makespan_s":         rep.Duration.Seconds(),
		"serve.sim_replica_seconds":    replicaSeconds,
		"serve.sim_availability_pct":   availability,
		"kv.mean_waste_pct":            100 * rep.MeanWaste,
		"kv.peak_used_gb":              gib(rep.PeakUsed),
		"kv.peak_logical_gb":           gib(rep.PeakLogical),
	}
	ps.fill(&out)
	return out
}

// servingSetup builds the setup function of a serving workload: n requests
// of mix at rate times the mix's own rate.
func servingSetup(mix func() servegen.Mix, rate float64, n int, build func(p params) serving) func(params, *tracer) (instance, error) {
	return func(p params, tr *tracer) (instance, error) {
		s := build(p)
		var err error
		s.reqs, s.cost, err = generate(mix(), rate, p.n(n), p.seed, tr)
		if err != nil {
			return nil, err
		}
		return &s, nil
	}
}

// training is the trainer workload: no stream, so set-up is all in fresh.
type training struct {
	spec     workload.Spec
	converge int
	steps    int
	alloc    func(*cuda.Driver) memalloc.Allocator
}

const trainDevice = 80 * sim.GiB

// trainShapeSeed is workload.Spec.Seed. It is part of the workload, like the
// batch size, and not drawn from -seed: the trainer has no input stream, and
// its seed picks the tensor-shape variants every step replays. Ten seeds
// spread ns_per_item over 14..30 ms a step, so each is a different workload,
// not another sample of this one.
const trainShapeSeed = 7

func (t *training) items() int   { return t.steps }
func (t *training) gen() genCost { return genCost{} }

func (t *training) fresh(tr *tracer) (run, error) {
	ps := &pools{capacity: trainDevice, newAlloc: t.alloc, tr: tr}
	alloc := ps.alloc()
	clock := ps.drivers[0].Clock()
	trainer, err := workload.NewTrainer(t.spec, alloc, clock)
	if err != nil {
		return run{}, err
	}
	if err := trainer.Setup(); err != nil {
		return run{}, fmt.Errorf("trainer setup: %w", err)
	}
	for i := range t.converge {
		if err := trainer.Step(); err != nil {
			return run{}, fmt.Errorf("converge step %d: %w", i, err)
		}
	}
	simStart, allocsStart, stepsStart := clock.Now(), ps.allocs[0].Stats().AllocCount, trainer.Steps()
	call := func() error {
		root := 0
		if tr != nil {
			tr.resetOps() // set-up and converge steps went through the wrapper too
			root = tr.begin("workload.steps", 0)
			defer tr.end(root)
		}
		for i := range t.steps {
			id := 0
			if tr != nil {
				id = tr.begin(spanStep, root)
			}
			err := trainer.Step()
			if tr != nil {
				tr.end(id)
			}
			if err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		}
		return nil
	}
	outcome := func() outcome {
		done := trainer.Steps() - stepsStart
		out := outcome{offered: t.steps, good: done, accounted: t.steps, counts: map[string]float64{}}
		ps.fill(&out)
		if done > 0 {
			out.counts["workload.steps"] = float64(done)
			out.counts["workload.alloc_calls_per_step"] = float64(out.stats.AllocCount-allocsStart) / float64(done)
			out.counts["workload.sim_step_ms"] = float64(clock.Now()-simStart) / float64(time.Millisecond) / float64(done)
		}
		s1, s2, s3, s4 := out.counts["core.s1_exact"], out.counts["core.s2_split"], out.counts["core.s3_stitch"], out.counts["core.s4_new"]
		out.digest = digestOf(out.stats, s1, s2, s3, s4, ps.drivers[0].Counters(), clock.Now(), done)
		return out
	}
	return run{call: call, outcome: outcome}, nil
}

// baseline is the same workload over the caching allocator, the paper's
// comparison point.
func (t *training) baseline() *training {
	b := *t
	b.alloc = newCaching
	return &b
}

// Coarse span names the layer arithmetic looks up.
const (
	spanServe = "serve.call"
	spanStep  = "workload.step"
)

// workloads is the benchmark's table. Sizes are full scale; the whys are
// the one-liners BENCHMARK.json repeats, and README.md has the long form.
var workloads = []benchWorkload{
	{
		name: "serve-1m",
		why:  "one server, longest stream, no cluster layer: server loop, latency digests, servegen and 89 KV appends per request over the caching allocator",
		setup: servingSetup(servegen.MixedBursty, 2, 1_000_000, func(params) serving {
			return serving{server: serve.ServerConfig{MaxBatch: 32}, pool: 4 * sim.GiB, alloc: newCaching, allServed: true}
		}),
	},
	{
		name: "fleet-64",
		why:  "64 static replicas under JSQ at serve-1m's per-replica load: the difference to serve-1m is the cluster scheduler (pick, event heap, report merge)",
		setup: servingSetup(servegen.MixedBursty, 2*64, 600_000, func(params) serving {
			return serving{
				cluster: &serve.ClusterConfig{
					Replicas: 64,
					Dispatch: serve.DispatchJSQ,
					Server:   serve.ServerConfig{MaxBatch: 32, Aging: 2 * time.Second},
				},
				pool: 4 * sim.GiB, alloc: newCaching, allServed: true,
			}
		}),
	},
	{
		name: "kv-gmlake",
		why:  "the same KV manager over the paper's allocator on 4 least-kv replicas: equal decode chunks hit GMLake's exact-match path, which dominates host time",
		setup: servingSetup(servegen.MixedBursty, 2*4, 150_000, func(params) serving {
			return serving{
				cluster: &serve.ClusterConfig{
					Replicas: 4,
					Dispatch: serve.DispatchLeastKV,
					Server:   serve.ServerConfig{MaxBatch: 64},
				},
				pool: 6 * sim.GiB, alloc: newGMLake, allServed: true,
			}
		}),
	},
	{
		name: "sessions-chaos",
		why:  "sessions with prefix reuse on an elastic stealing fleet under crashes, deadlines and a tight pool: affinity probes, autoscaler, recovery and preemption paths fleet-64 never takes",
		setup: servingSetup(servegen.ChatSessions, 8, 500_000, func(p params) serving {
			return serving{
				cluster: &serve.ClusterConfig{
					Dispatch:     serve.DispatchSessionAffinity,
					AffinityBase: serve.DispatchJSQ,
					Server:       serve.ServerConfig{MaxBatch: 32, Timeout: 120 * time.Second, PrefixReuse: true},
					MinReplicas:  2,
					MaxReplicas:  8,
					Steal:        true,
					Faults:       serve.FaultConfig{MTTF: 8 * time.Second, MTTR: 400 * time.Millisecond, Seed: p.seed},
					Recovery:     serve.RecoveryConfig{Retries: 3, Backoff: 2},
				},
				pool: 2 * sim.GiB, alloc: newCaching,
			}
		}),
	},
	{
		name: "train-lro",
		why:  "OPT-13B LoRA+recompute+offload training steps over GMLake: large irregular tensors that split, stitch and map new chunks, where kv-gmlake only exact-matches",
		setup: func(p params, _ *tracer) (instance, error) {
			return &training{
				spec: workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24, Seed: trainShapeSeed},
				// 60 steps converge GMLake's stitched-block cache; only
				// below quarter scale does the warm-up shrink with the run.
				converge: min(60, p.n(240)),
				steps:    p.n(250),
				alloc:    newGMLake,
			}, nil
		},
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}
