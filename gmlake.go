// Package gmlake is a pure-Go reproduction of "GMLake: Efficient and
// Transparent GPU Memory Defragmentation for Large-scale DNN Training with
// Virtual Memory Stitching" (ASPLOS 2024).
//
// The package is the public facade over the library:
//
//   - a simulated GPU device and CUDA driver (native allocator + low-level
//     virtual memory management API) with a latency cost model calibrated to
//     the paper's measurements;
//   - the PyTorch-style best-fit-with-coalescing caching allocator the paper
//     uses as its baseline;
//   - the GMLake allocator itself: primitive and stitched memory pools,
//     the BestFit algorithm and the multi-state defragmentation strategy;
//   - LLM fine-tuning workload generators and the experiment harness that
//     regenerates every table and figure of the paper's evaluation;
//   - an inference-serving substrate: three KV-cache policies under
//     continuous batching — with tree-indexed admission, idle-jump and
//     preemption-victim queues, so the serving loop stays O(log n) on long
//     backlogged streams — plus a ServeGen-style multi-tenant workload
//     generator with per-SLO-class reporting;
//   - a deterministic parallel experiment engine (internal/runner): every
//     harness experiment declares its cells (independent workload ×
//     allocator executions, each on a private simulated rig) and a bounded
//     worker pool sweeps them, joining results by cell index, so rendered
//     tables are byte-identical at any parallelism.
//
// # Parallel experiment engine
//
// Experiment sweeps saturate the host instead of running one cell at a
// time. The worker count comes from the `parallel:<n>` configuration key
// (0 = GOMAXPROCS) or the -parallel flag of cmd/gmlake-bench and
// cmd/gmlake-serve; determinism is preserved because cells share no state
// and results join in declaration order. A panicking cell never wedges the
// pool: every other cell completes and the lowest-index panic is re-raised.
//
// # Serving workload mixes
//
// Multi-tenant serving traffic is described by a WorkloadMix: client
// classes with individual arrival processes (Poisson, bursty Gamma,
// on-off), rate shares, prompt/output length distributions (deterministic,
// uniform, lognormal) and SLO class tags. The same seed always yields a
// byte-identical request stream. Canonical mixes are ChatHeavyMix,
// BatchHeavyMix and MixedBurstyMix; a configuration string selects and
// tunes them — and the cluster, session, fault and trace knobs of the
// sections below — with serving keys parsed alongside the allocator
// knobs, e.g. "backend:gmlake,serve_mix:chat+batch,burst_cv:4,replicas:4".
// The keys are described once, in the field table of internal/conf;
// `go run ./cmd/gmlake-serve -h` prints it.
//
// ServeRequests runs a stream under continuous batching with SLO-aware
// admission and preemption, and its ServeReport breaks TTFT and end-to-end
// latency percentiles, preemptions and KV-cache occupancy down per client
// class (ServeClassReport) — the per-SLO-class view a multi-tenant
// operator actually monitors. Latency percentiles are exact nearest-rank
// while a digest holds at most ServeConfig.ExactSamples values; past that
// the digest spills into a fixed-size deterministic mergeable quantile
// sketch (internal/quantile), so million-request runs keep flat memory at
// a bounded relative rank error instead of retaining every sample.
//
// # Multi-replica serving cluster
//
// ServeClusterRequests shards one request stream over N replica servers —
// each with its own cache manager, pool allocator and virtual clock —
// behind a cluster-level admission queue. A DispatchPolicy (round-robin,
// join-shortest-queue, least-KV-load) assigns each arrival to a replica at
// its arrival instant, and the returned ServeClusterReport merges the
// replicas' raw per-request samples into cluster-level per-SLO-class
// percentiles (never averaged percentiles) next to the per-replica
// reports. ServeConfig.Aging enables priority aging — a waiting request
// gains one priority level per Aging of queue wait — so batch-class
// requests cannot starve under a permanent interactive overload.
//
// The fleet can be heterogeneous and elastic. ServeReplicaOverride gives a
// replica its own capacity weight (the load-aware policies divide observed
// load by it, so a 2x replica absorbs 2x demand), batch limit and aging
// rate. ServeClusterConfig.MaxReplicas > 0 enables queue-depth
// autoscaling: replicas spawn when the queued backlog per active replica
// exceeds ScaleUpDepth and drain — only after they empty — when it falls
// to ScaleDownDepth, between MinReplicas and MaxReplicas with a
// ScaleCooldown between decisions; ReplicaSeconds in the report prices the
// fleet. ServeClusterConfig.Steal enables work-stealing re-dispatch: a
// replica that goes idle takes queued (never running) requests from a
// backlogged peer, replacing decide-once-at-arrival dispatch.
//
// The co-simulation is event-ordered — scaling and stealing decisions
// happen at event boundaries — so the same seed yields a byte-identical
// cluster report, and with one replica (static, or MinReplicas ==
// MaxReplicas == 1 with stealing off) the cluster reproduces
// ServeRequests exactly.
//
// # Multi-turn sessions and KV prefix reuse
//
// A WorkloadMix class with a WorkloadSessionProfile generates multi-turn
// conversations instead of one-shot requests: each session's turn N+1
// prompt is the prior prompt plus the prior output plus a fresh delta,
// arriving after a think-time gap, and every request carries its
// SessionID and Turn (ChatSessionsMix is the canonical session mix).
// ServeConfig.PrefixReuse models KV prefix reuse on the server: a
// follow-up turn whose session prefix is still resident on its replica
// skips that fraction of prefill, cutting its TTFT; crashes, recompute
// preemption and deadline drops invalidate residency. The
// DispatchSessionAffinity cluster policy routes a turn to the replica
// holding its prefix and falls back to ServeClusterConfig.AffinityBase
// (default jsq) when none does. Reports count PrefixHits, PrefixMisses,
// ReusedTokens and AffinityRouted. With no session requests and
// PrefixReuse off, every run is byte-identical to the session-unaware
// scheduler. The corresponding configuration keys are prefix_reuse and
// affinity_base; cmd/gmlake-serve exposes -prefix-reuse and
// -affinity-base.
//
// # Request traces
//
// RequestTrace is a request-level serving trace — (arrival offset, class,
// SLO, priority, prompt/output tokens) per request — persisted as
// versioned JSONL or CSV (ReadRequestTrace / RequestTrace.WriteFile). A
// RequestCapture installed as ServeConfig.OnComplete records every
// completed request of a ServeRequests or ServeClusterRequests run back
// into a trace, and RequestTrace.Replay turns a trace into the
// byte-identical request stream (optionally rate-scaled, truncated or
// looped), so generate→capture→replay round-trips exactly.
// FitRequestTrace calibrates a WorkloadMix to a trace — class shares,
// arrival burstiness (Poisson / Gamma CV / on-off duty cycles) and
// length distributions — and RequestTraceFitError reports the moment-match
// and KS-distance errors of any mix against a trace. EmpiricalDist and
// TraceArrivalProcess plug captured length samples and arrival sequences
// straight into a WorkloadMix without fitting a parametric family. The
// corresponding configuration keys are trace_in, trace_out, trace_scale
// and fit (see internal/conf), and cmd/gmlake-serve exposes them as
// -trace-in, -trace-out, -trace-scale and -fit.
//
// (RequestTrace records serving requests; the unrelated allocator-event
// traces of the paper's Figure 5 live in internal/trace.)
//
// # Fault injection and recovery
//
// A cluster run can inject deterministic replica faults
// (ServeClusterConfig.Faults, a ServeFaultConfig): a crash loses the
// replica's KV cache and in-flight sequences, removes it from dispatch,
// and a later restart returns it empty. Faults come from a seeded
// MTTF/MTTR process or a scripted plan (ParseServeFaultPlan,
// ServeFaultEvent), and fire only at event boundaries of the
// co-simulation, so faulty runs replay byte-identically from one seed.
// ServeRecoveryConfig bounds crash recovery: queued requests displaced by
// a crash re-dispatch for free, in-flight ones retry with recompute-from-
// scratch cost under capped retries, exponential backoff and a per-class
// retry budget (exhausted requests count as Lost). ServeConfig.Timeout
// sets a per-request deadline — completions past it are deadline misses,
// not goodput — and ServeConfig.Shed rejects requests at admission once
// the deadline is provably unreachable. Reports grow Crashes, Restarts,
// DeadlineMisses, Shed and Goodput; ServeClusterReport adds Retries, Lost
// and capacity-weighted Availability. The corresponding configuration keys
// are mttf, mttr, fault_plan, timeout, retries, backoff, retry_budget and
// shed, and cmd/gmlake-serve exposes them as flags of the same names.
//
// # Quick start
//
//	sys := gmlake.NewSystem(80 * gmlake.GiB)
//	alloc := gmlake.New(sys.Driver)
//	buf, err := alloc.Alloc(512 * gmlake.MiB)
//	if err != nil { ... }
//	alloc.Free(buf)
//	fmt.Println(alloc.Stats().Utilization())
//
// See examples/ for complete programs and cmd/gmlake-bench for the paper's
// evaluation.
package gmlake

import (
	"repro/internal/caching"
	"repro/internal/compact"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/expandable"
	"repro/internal/fragstat"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/parallel"
	"repro/internal/recompute"
	"repro/internal/reqtrace"
	"repro/internal/safealloc"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Byte sizes.
const (
	KiB = sim.KiB
	MiB = sim.MiB
	GiB = sim.GiB
)

// ChunkSize is the uniform 2 MiB physical chunk size of the VMM API.
const ChunkSize = core.ChunkSize

// Re-exported core types. The aliases keep one canonical implementation in
// internal packages while giving users a single import.
type (
	// Allocator is the GMLake allocator (the paper's contribution).
	Allocator = core.Allocator
	// Config tunes the GMLake allocator.
	Config = core.Config
	// CachingAllocator is the PyTorch-style baseline.
	CachingAllocator = caching.Allocator
	// NativeAllocator is the cudaMalloc/cudaFree strawman.
	NativeAllocator = memalloc.Native
	// ExpandableAllocator is PyTorch's later expandable-segments allocator
	// (VMM-based growing rather than stitching).
	ExpandableAllocator = expandable.Allocator
	// CompactAllocator is a compaction-based (copying) defragmenter.
	CompactAllocator = compact.Allocator
	// MemoryAllocator is the interface all of the above implement.
	MemoryAllocator = memalloc.Allocator
	// Buffer is one live allocation.
	Buffer = memalloc.Buffer
	// Stats is the active/reserved accounting (utilization ratio as in the
	// paper's §5.1).
	Stats = memalloc.Stats
	// Driver is the simulated CUDA driver.
	Driver = cuda.Driver
	// Device is the simulated GPU.
	Device = gpu.Device
	// Clock is the virtual clock all latency is charged to.
	Clock = sim.Clock
	// CostModel prices driver calls (calibrated to the paper's Table 1).
	CostModel = sim.CostModel
	// ModelConfig describes one of the evaluated LLMs.
	ModelConfig = model.Config
	// TrainSpec describes one fine-tuning workload.
	TrainSpec = workload.Spec
	// Strategy is a combination of memory-reduction techniques.
	Strategy = workload.Strategy
	// Trainer drives an allocator through a fine-tuning workload.
	Trainer = workload.Trainer
	// Timeline is a memory-over-time series.
	Timeline = metrics.Timeline
)

// Evaluated models (paper Table 2).
var (
	GPT2       = model.GPT2
	OPT1_3B    = model.OPT1_3B
	GLM10B     = model.GLM10B
	OPT13B     = model.OPT13B
	Vicuna13B  = model.Vicuna13B
	GPTNeoX20B = model.GPTNeoX20B
)

// Strategy shorthands (paper Figures 3 and 10).
var (
	StrategyN   = workload.StrategyN
	StrategyR   = workload.StrategyR
	StrategyLR  = workload.StrategyLR
	StrategyRO  = workload.StrategyRO
	StrategyLRO = workload.StrategyLRO
)

// ZeRO stages and pipeline schedules (paper §2.4 decompositions).
const (
	ZeRO0 = parallel.Stage0
	ZeRO1 = parallel.Stage1
	ZeRO2 = parallel.Stage2
	ZeRO3 = parallel.Stage3

	// GPipe buffers all microbatches to the pipeline flush.
	GPipe = parallel.GPipe
	// OneFOneB bounds in-flight microbatches to the stage depth.
	OneFOneB = parallel.OneFOneB
)

// System bundles one simulated GPU with its driver and clock.
type System struct {
	Device *Device
	Driver *Driver
	Clock  *Clock
}

// NewSystem creates a simulated GPU with the given physical capacity and the
// paper-calibrated cost model.
func NewSystem(capacity int64) *System {
	dev := gpu.NewDevice("sim-gpu", capacity)
	clock := sim.NewClock()
	return &System{
		Device: dev,
		Clock:  clock,
		Driver: cuda.NewDriver(dev, clock, sim.DefaultCostModel()),
	}
}

// New returns a GMLake allocator with the paper's default configuration.
func New(driver *Driver) *Allocator { return core.NewDefault(driver) }

// NewWithConfig returns a GMLake allocator with a custom configuration.
func NewWithConfig(driver *Driver, cfg Config) *Allocator { return core.New(driver, cfg) }

// DefaultConfig returns the paper's recommended GMLake configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewCaching returns the baseline caching allocator.
func NewCaching(driver *Driver) *CachingAllocator { return caching.New(driver) }

// NewNative returns the native (cudaMalloc-per-tensor) allocator.
func NewNative(driver *Driver) *NativeAllocator { return memalloc.NewNative(driver) }

// NewExpandable returns the expandable-segments allocator.
func NewExpandable(driver *Driver) *ExpandableAllocator { return expandable.New(driver) }

// NewCompact returns the compaction-based defragmenter.
func NewCompact(driver *Driver) *CompactAllocator { return compact.New(driver) }

// NewTrainer builds a fine-tuning workload driver over alloc.
func NewTrainer(spec TrainSpec, alloc MemoryAllocator, clock *Clock) (*Trainer, error) {
	return workload.NewTrainer(spec, alloc, clock)
}

// Substrate types the training ecosystem around the allocator is built
// from: CUDA streams and events, host-device offloading, checkpointing
// plans, distributed decompositions, inference KV caching, fragmentation
// analytics and thread-safety.
type (
	// StreamScheduler simulates CUDA streams and events on the virtual
	// clock.
	StreamScheduler = stream.Scheduler
	// StreamID names one stream.
	StreamID = stream.ID
	// Event marks a point in a stream's work queue.
	Event = stream.Event
	// StreamAllocator adds PyTorch's record_stream deferred-free
	// semantics to any allocator.
	StreamAllocator = stream.Allocator

	// Link prices a host-device interconnect.
	Link = offload.Link
	// CopyEngine runs asynchronous H2D/D2H transfers on dedicated
	// streams.
	CopyEngine = offload.Engine
	// OffloadOptimizer is the ZeRO-Offload CPU optimizer pipeline.
	OffloadOptimizer = offload.Optimizer
	// Swapper parks activation tensors in host memory with prefetch.
	Swapper = offload.Swapper

	// RecomputePlan is one activation-checkpointing decision.
	RecomputePlan = recompute.Plan
	// RecomputeModel is the per-layer cost model the planner works over.
	RecomputeModel = recompute.Model

	// Topology is a DP×TP×PP decomposition.
	Topology = parallel.Topology
	// ZeROStage selects DeepSpeed's state-sharding level.
	ZeROStage = parallel.ZeROStage
	// MemoryPlan is the per-rank demand of one topology.
	MemoryPlan = parallel.MemoryPlan

	// ServeRequest is one inference request.
	ServeRequest = serve.Request
	// ServeMix shapes the synthetic request distribution.
	ServeMix = serve.GenConfig
	// ServeConfig tunes the continuous-batching server.
	ServeConfig = serve.ServerConfig
	// KVCacheManager is one KV-cache management policy.
	KVCacheManager = serve.CacheManager
	// ServeReport summarizes a continuous-batching run.
	ServeReport = serve.Report
	// ServeClassReport is the per-client-class (per-SLO-class) slice of a
	// serving run: latency percentiles, preemptions, KV occupancy.
	ServeClassReport = serve.ClassReport
	// LatencySummary holds p50/p95/p99 of a latency sample: exact
	// nearest-rank up to ServeConfig.ExactSamples values per digest,
	// sketch-backed (within a documented relative rank-error bound)
	// beyond it.
	LatencySummary = serve.LatencySummary
	// ServeClusterConfig tunes the multi-replica serving cluster,
	// including the elastic autoscaler (MinReplicas/MaxReplicas), the
	// work-stealing switch (Steal) and per-replica overrides.
	ServeClusterConfig = serve.ClusterConfig
	// ServeReplicaOverride customizes one replica of a heterogeneous
	// cluster: capacity weight for load-aware dispatch, batch limit,
	// aging rate.
	ServeReplicaOverride = serve.ReplicaOverride
	// ServeClusterReport merges per-replica serving reports from raw
	// samples and keeps the per-replica breakdown, plus the elastic-fleet
	// view (peak replicas, spawns/drains, replica-seconds, steals).
	ServeClusterReport = serve.ClusterReport
	// DispatchPolicy assigns cluster arrivals to replicas.
	DispatchPolicy = serve.DispatchPolicy
	// ServeFaultConfig injects deterministic replica crashes and restarts
	// into a cluster run (seeded MTTF/MTTR streams or a scripted plan).
	ServeFaultConfig = serve.FaultConfig
	// ServeFaultEvent is one scripted crash or restart.
	ServeFaultEvent = serve.FaultEvent
	// ServeFaultKind classifies a fault event (ServeFaultCrash,
	// ServeFaultRestart).
	ServeFaultKind = serve.FaultKind
	// ServeRecoveryConfig bounds crash recovery: retries, backoff and the
	// per-class retry budget.
	ServeRecoveryConfig = serve.RecoveryConfig

	// WorkloadMix is a multi-tenant serving workload: an aggregate request
	// rate decomposed over heterogeneous client classes.
	WorkloadMix = servegen.Mix
	// ClientClass is one tenant population in a WorkloadMix.
	ClientClass = servegen.ClientClass
	// ArrivalProcess describes when a client class submits requests.
	ArrivalProcess = servegen.ArrivalProcess
	// LengthDist is a prompt or output token-length distribution.
	LengthDist = servegen.LengthDist
	// WorkloadSessionProfile makes a ClientClass generate multi-turn
	// sessions: turns-per-session, think-time and per-turn prompt-delta
	// distributions, and the prompt-growth cap.
	WorkloadSessionProfile = servegen.SessionProfile

	// RequestTrace is a request-level serving trace: capture, file
	// round-trip (JSONL/CSV), replay and calibration (see the package
	// comment's request-trace section).
	RequestTrace = reqtrace.Trace
	// RequestTraceRecord is one request of a RequestTrace.
	RequestTraceRecord = reqtrace.Record
	// RequestTraceStats summarizes a trace (aggregate and per-class rates,
	// shares, token-length moments).
	RequestTraceStats = reqtrace.Stats
	// RequestCapture records completed requests from a serving run; install
	// its Hook as ServeConfig.OnComplete.
	RequestCapture = reqtrace.Capture
	// TraceReplayOptions tunes RequestTrace.Replay (truncate/loop via N,
	// rate scaling via Scale).
	TraceReplayOptions = reqtrace.ReplayOptions
	// TraceFitReport is the fit-error report of a mix against a trace:
	// moment matches and per-class KS distances.
	TraceFitReport = reqtrace.FitReport

	// FragSnapshot holds an allocator's free blocks for fragmentation
	// indices (FMFI-style).
	FragSnapshot = fragstat.Snapshot

	// SafeAllocator makes any allocator safe for concurrent use.
	SafeAllocator = safealloc.Allocator
)

// NewStreamScheduler creates the stream/event simulator on clock.
func NewStreamScheduler(clock *Clock) *StreamScheduler { return stream.NewScheduler(clock) }

// NewStreamAllocator wraps inner with stream-aware freeing.
func NewStreamAllocator(inner MemoryAllocator, sched *StreamScheduler) *StreamAllocator {
	return stream.NewAllocator(inner, sched)
}

// DefaultPCIe returns the PCIe 4.0 x16 link of the paper's testbed.
func DefaultPCIe() *Link { return offload.DefaultPCIe() }

// NewCopyEngine creates a copy engine over link with fresh streams on sched.
func NewCopyEngine(link *Link, sched *StreamScheduler) *CopyEngine {
	return offload.NewEngine(link, sched)
}

// NewSwapper builds an activation swapper over engine and alloc.
func NewSwapper(engine *CopyEngine, alloc MemoryAllocator, pinned bool) *Swapper {
	return offload.NewSwapper(engine, alloc, pinned)
}

// PlanMemory computes per-rank memory demand for training cfg under a 3D
// topology (see internal/parallel for the fine-grained API).
func PlanMemory(cfg ModelConfig, topo Topology, zero ZeROStage, sched parallel.Schedule, microBatch, seq int) (MemoryPlan, error) {
	return parallel.PlanMemory(cfg, topo, zero, sched, microBatch, seq)
}

// NewOffloadOptimizer builds the ZeRO-Offload CPU optimizer for a parameter
// shard of paramBytes.
func NewOffloadOptimizer(cfg offload.OptimizerConfig, engine *CopyEngine, alloc MemoryAllocator, paramBytes int64) (*OffloadOptimizer, error) {
	return offload.NewOptimizer(cfg, engine, alloc, paramBytes)
}

// RecomputeForModel builds the checkpointing planner's cost model for one of
// the paper's LLMs (flops 0 uses the default A100-class throughput).
func RecomputeForModel(cfg ModelConfig, batch, seq int) RecomputeModel {
	return recompute.ForModel(cfg, batch, seq, 0)
}

// GenServeRequests returns n deterministic inference requests.
func GenServeRequests(n int, cfg ServeMix, seed uint64) ([]ServeRequest, error) {
	return serve.GenRequests(n, cfg, seed)
}

// DefaultServeMix returns the chat-like request mix.
func DefaultServeMix() ServeMix { return serve.DefaultGenConfig() }

// ChatHeavyMix returns the interactive-dominated multi-tenant mix.
func ChatHeavyMix() WorkloadMix { return servegen.ChatHeavy() }

// BatchHeavyMix returns the throughput-oriented multi-tenant mix.
func BatchHeavyMix() WorkloadMix { return servegen.BatchHeavy() }

// MixedBurstyMix returns the bursty heterogeneous stress mix.
func MixedBurstyMix() WorkloadMix { return servegen.MixedBursty() }

// ChatSessionsMix returns the multi-turn conversation mix: interactive
// sessions whose prompts grow by the prior exchange, over a batch-backfill
// floor. Serve it with ServeConfig.PrefixReuse and DispatchSessionAffinity
// to exercise the session machinery end to end.
func ChatSessionsMix() WorkloadMix { return servegen.ChatSessions() }

// ServeMixByName resolves a serve_mix configuration name.
func ServeMixByName(name string) (WorkloadMix, error) { return servegen.MixByName(name) }

// GenMixRequests returns the first n requests of the mix's merged
// multi-tenant stream; the same seed yields a byte-identical stream.
func GenMixRequests(m WorkloadMix, n int, seed uint64) ([]ServeRequest, error) {
	return m.Generate(n, seed)
}

// NewRequestCapture returns an empty request capture; install its Hook as
// ServeConfig.OnComplete to record a run into a RequestTrace.
func NewRequestCapture() *RequestCapture { return reqtrace.NewCapture() }

// RequestTraceFromStream converts a request stream into a canonical
// (arrival-sorted) trace.
func RequestTraceFromStream(reqs []ServeRequest) RequestTrace {
	return reqtrace.FromRequests(reqs)
}

// ReadRequestTrace reads and validates a request-trace file (JSONL or CSV,
// sniffed from the content).
func ReadRequestTrace(path string) (RequestTrace, error) { return reqtrace.ReadFile(path) }

// FitRequestTrace calibrates a WorkloadMix to a trace: class shares,
// arrival processes and token-length distributions recovered from the
// observed requests. Measure the result with RequestTraceFitError.
func FitRequestTrace(t RequestTrace) (WorkloadMix, error) { return reqtrace.Fit(t) }

// RequestTraceFitError generates n requests from the mix and reports how
// the synthetic stream deviates from the trace: moment matches (rate, mean
// lengths) and per-class KS distances.
func RequestTraceFitError(t RequestTrace, m WorkloadMix, n int, seed uint64) (TraceFitReport, error) {
	return reqtrace.FitError(t, m, n, seed)
}

// EmpiricalDist returns the token-length distribution that draws from the
// CDF of observed samples (clamped to [min, max] when nonzero) — the
// nonparametric alternative to a fitted lognormal.
func EmpiricalDist(samples []int, min, max int) LengthDist {
	return servegen.Empirical(samples, min, max)
}

// TraceArrivalProcess returns the arrival process that replays recorded
// arrival offsets (seconds), rescaled to a class's target rate and looped
// past the recorded end.
func TraceArrivalProcess(times []float64) ArrivalProcess {
	return servegen.TraceArrivals(times)
}

// NewContiguousKV returns the pad-to-max KV-cache baseline.
func NewContiguousKV(alloc MemoryAllocator, cfg ModelConfig, maxTokens int) *serve.ContiguousKV {
	return serve.NewContiguousKV(alloc, cfg, maxTokens)
}

// NewPagedKV returns the vLLM-style block-table KV cache.
func NewPagedKV(alloc MemoryAllocator, cfg ModelConfig, blockTokens, totalBlocks int) (*serve.PagedKV, error) {
	return serve.NewPagedKV(alloc, cfg, blockTokens, totalBlocks)
}

// NewChunkedKV returns the chunk-growing KV cache backed by an ordinary
// allocator.
func NewChunkedKV(alloc MemoryAllocator, cfg ModelConfig, chunkTokens int) *serve.ChunkedKV {
	return serve.NewChunkedKV(alloc, cfg, chunkTokens)
}

// ServeRequests runs requests under continuous batching on mgr.
func ServeRequests(reqs []ServeRequest, mgr KVCacheManager, cfg ServeConfig) (ServeReport, error) {
	return serve.Serve(reqs, mgr, cfg)
}

// DefaultServeExactSamples is the default ServeConfig.ExactSamples: a
// latency digest keeps raw samples and reports exact nearest-rank
// percentiles up to this many values, then spills to a mergeable
// deterministic quantile sketch (internal/quantile) whose memory is fixed
// regardless of run length. Set ExactSamples negative to sketch from the
// first sample, or higher to keep exactness on longer runs.
const DefaultServeExactSamples = serve.DefaultExactSamples

// Cluster dispatch policies.
const (
	DispatchRoundRobin      = serve.DispatchRoundRobin
	DispatchJSQ             = serve.DispatchJSQ
	DispatchLeastKV         = serve.DispatchLeastKV
	DispatchSessionAffinity = serve.DispatchSessionAffinity
)

// Scripted fault-event kinds.
const (
	ServeFaultCrash   = serve.FaultCrash
	ServeFaultRestart = serve.FaultRestart
)

// ParseServeFaultPlan parses a scripted fault schedule of '/'-separated
// events like "crash@t=12s:r1/restart@t=14s:r1" into a plan for
// ServeFaultConfig.Plan.
func ParseServeFaultPlan(s string) ([]ServeFaultEvent, error) { return serve.ParseFaultPlan(s) }

// ServeClusterRequests runs requests on a multi-replica serving cluster;
// newMgr builds replica i's cache manager (each replica needs its own
// manager and allocator). See the package comment's cluster section.
func ServeClusterRequests(reqs []ServeRequest, newMgr func(replica int) KVCacheManager, cfg ServeClusterConfig) (ServeClusterReport, error) {
	return serve.ServeCluster(reqs, newMgr, cfg)
}

// ParseDispatchPolicy resolves a dispatch-policy name ("" = round-robin).
func ParseDispatchPolicy(name string) (DispatchPolicy, error) { return serve.ParseDispatch(name) }

// CaptureFragmentation snapshots an allocator's free blocks; ok is false
// when the allocator does not expose them.
func CaptureFragmentation(a MemoryAllocator) (FragSnapshot, bool) { return fragstat.Capture(a) }

// NewSafe wraps any allocator for concurrent use.
func NewSafe(inner MemoryAllocator) *SafeAllocator { return safealloc.New(inner) }

// NewFromConf builds an allocator from a PYTORCH_CUDA_ALLOC_CONF-style
// configuration string, e.g. "backend:gmlake,frag_limit_mb:256" or
// "backend:caching,max_split_size_mb:128,garbage_collection_threshold:0.8".
// The empty string is the default caching allocator. Serving-workload keys
// (serve_mix, serve_rate, burst_cv) are accepted in the same string; see
// the package comment and internal/conf.
func NewFromConf(s string, driver *Driver) (MemoryAllocator, error) { return conf.New(s, driver) }
