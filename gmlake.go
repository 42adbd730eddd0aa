// Package gmlake is a pure-Go reproduction of "GMLake: Efficient and
// Transparent GPU Memory Defragmentation for Large-scale DNN Training with
// Virtual Memory Stitching" (ASPLOS 2024).
//
// The library lives in internal packages; this package re-exports exactly
// the names its examples use, and TestFacadeSurface fails on an exported
// name that no example under examples/, no Example function and no kept
// signature references. What sits behind it:
//
//   - a simulated GPU device and CUDA driver (native allocator + low-level
//     virtual memory management API) with a latency cost model calibrated to
//     the paper's measurements (internal/gpu, internal/cuda, internal/sim);
//   - the PyTorch-style best-fit-with-coalescing caching allocator the paper
//     uses as its baseline (internal/caching), and the expandable-segments
//     and compaction allocators of its §6 comparison (internal/expandable);
//   - the GMLake allocator itself: primitive and stitched memory pools,
//     the BestFit algorithm and the multi-state defragmentation strategy
//     (internal/core);
//   - LLM fine-tuning workload generators (internal/workload) and the
//     experiment harness that regenerates every table and figure of the
//     paper's evaluation (internal/harness, cmd/gmlake-bench), swept by a
//     deterministic parallel engine whose rendered tables are
//     byte-identical at any worker count;
//   - an inference-serving simulator (internal/serve, internal/servegen,
//     internal/reqtrace): KV-cache policies under continuous batching,
//     multi-tenant workload mixes with per-SLO-class reports, a
//     multi-replica cluster with dispatch policies, autoscaling, work
//     stealing, sessions with KV prefix reuse, fault injection and request
//     traces. Its configuration keys are described once, in the field table
//     of internal/conf; `go run ./cmd/gmlake-serve -h` prints it.
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
// # Examples
//
// Three complete programs, whose output TestExamplesOutput pins:
//
//   - examples/quickstart: stitching four scattered free blocks into one
//     allocation, against the caching baseline;
//   - examples/finetune: a LoRA + recomputation fine-tuning run under both
//     allocators;
//   - examples/serving: the serving simulator end to end — KV policies,
//     mixes, cluster dispatch, sessions, faults and request traces.
//
// # Fixed points
//
// Every harness experiment is pinned to a checked-in rendering,
// internal/harness/testdata/golden/<id>.golden, at Parallelism 1 and 8.
// After an intended change to a simulated number, regenerate and review:
//
//	go test ./internal/harness -run TestExperimentGoldens -update
//
// Performance claims rest on `go run ./benchmark` (see benchmark/README.md).
package gmlake

import (
	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/fragstat"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/reqtrace"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Byte sizes.
const (
	MiB = sim.MiB
	GiB = sim.GiB
)

// Re-exported types. The aliases keep one canonical implementation in
// internal packages while giving the examples a single import.
type (
	// Allocator is the GMLake allocator (the paper's contribution).
	Allocator = core.Allocator
	// MemoryAllocator is the interface every allocator implements.
	MemoryAllocator = memalloc.Allocator
	// Buffer is one live allocation.
	Buffer = memalloc.Buffer
	// Stats is the active/reserved accounting (utilization ratio as in the
	// paper's §5.1).
	Stats = memalloc.Stats
	// TrainSpec describes one fine-tuning workload.
	TrainSpec = workload.Spec
	// Topology is a DP×TP×PP decomposition.
	Topology = parallel.Topology
	// StreamAllocator adds PyTorch's record_stream deferred-free semantics
	// to any allocator.
	StreamAllocator = stream.Allocator

	// ServeConfig tunes the continuous-batching server.
	ServeConfig = serve.ServerConfig
	// KVCacheManager is one KV-cache management policy.
	KVCacheManager = serve.CacheManager
	// ServeReport summarizes a continuous-batching run.
	ServeReport = serve.Report
	// ServeClusterConfig tunes the multi-replica serving cluster,
	// including the elastic autoscaler (MinReplicas/MaxReplicas), the
	// work-stealing switch (Steal) and per-replica overrides.
	ServeClusterConfig = serve.ClusterConfig
	// DispatchPolicy assigns cluster arrivals to replicas.
	DispatchPolicy = serve.DispatchPolicy
	// ServeFaultConfig injects deterministic replica crashes and restarts
	// into a cluster run (seeded MTTF/MTTR streams or a scripted plan).
	ServeFaultConfig = serve.FaultConfig
	// ServeRecoveryConfig bounds crash recovery: retries, backoff and the
	// per-class retry budget.
	ServeRecoveryConfig = serve.RecoveryConfig
	// TraceReplayOptions tunes a request trace's Replay (truncate/loop via
	// N, rate scaling via Scale).
	TraceReplayOptions = reqtrace.ReplayOptions
)

// Evaluated models (paper Table 2).
var (
	OPT1_3B = model.OPT1_3B
	OPT13B  = model.OPT13B
)

// Strategy shorthands (paper Figures 3 and 10).
var (
	StrategyLR  = workload.StrategyLR
	StrategyLRO = workload.StrategyLRO
)

const (
	// ZeRO3 shards parameters, gradients and optimizer state (paper §2.4).
	ZeRO3 = parallel.Stage3
	// OneFOneB bounds in-flight microbatches to the stage depth.
	OneFOneB = parallel.OneFOneB
)

// System bundles one simulated GPU with its driver and clock.
type System struct {
	Device *gpu.Device
	Driver *cuda.Driver
	Clock  *sim.Clock
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
func New(driver *cuda.Driver) *Allocator { return core.NewDefault(driver) }

// NewCaching returns the baseline caching allocator.
func NewCaching(driver *cuda.Driver) *caching.Allocator { return caching.New(driver) }

// NewTrainer builds a fine-tuning workload driver over alloc.
func NewTrainer(spec TrainSpec, alloc MemoryAllocator, clock *sim.Clock) (*workload.Trainer, error) {
	return workload.NewTrainer(spec, alloc, clock)
}

// NewStreamScheduler creates the stream/event simulator on clock.
func NewStreamScheduler(clock *sim.Clock) *stream.Scheduler { return stream.NewScheduler(clock) }

// NewStreamAllocator wraps inner with stream-aware freeing.
func NewStreamAllocator(inner MemoryAllocator, sched *stream.Scheduler) *StreamAllocator {
	return stream.NewAllocator(inner, sched)
}

// PlanMemory computes per-rank memory demand for training cfg under a 3D
// topology (see internal/parallel for the fine-grained API).
func PlanMemory(cfg model.Config, topo Topology, zero parallel.ZeROStage, sched parallel.Schedule, microBatch, seq int) (parallel.MemoryPlan, error) {
	return parallel.PlanMemory(cfg, topo, zero, sched, microBatch, seq)
}

// CaptureFragmentation snapshots an allocator's free blocks for
// fragmentation indices (FMFI-style); ok is false when the allocator does
// not expose them.
func CaptureFragmentation(a MemoryAllocator) (fragstat.Snapshot, bool) { return fragstat.Capture(a) }

// MixedBurstyMix returns the bursty heterogeneous multi-tenant stress mix.
func MixedBurstyMix() servegen.Mix { return servegen.MixedBursty() }

// ChatSessionsMix returns the multi-turn conversation mix: interactive
// sessions whose prompts grow by the prior exchange, over a batch-backfill
// floor. Serve it with ServeConfig.PrefixReuse and DispatchSessionAffinity
// to exercise the session machinery end to end.
func ChatSessionsMix() servegen.Mix { return servegen.ChatSessions() }

// GenMixRequests returns the first n requests of the mix's merged
// multi-tenant stream; the same seed yields a byte-identical stream.
func GenMixRequests(m servegen.Mix, n int, seed uint64) ([]serve.Request, error) {
	return m.Generate(n, seed)
}

// NewRequestCapture returns an empty request capture; install its Hook as
// ServeConfig.OnComplete to record a run into a request trace.
func NewRequestCapture() *reqtrace.Capture { return reqtrace.NewCapture() }

// ReadRequestTrace reads and validates a request-trace file (JSONL or CSV,
// sniffed from the content).
func ReadRequestTrace(path string) (reqtrace.Trace, error) { return reqtrace.ReadFile(path) }

// FitRequestTrace calibrates a workload mix to a trace: class shares,
// arrival processes and token-length distributions recovered from the
// observed requests. Measure the result with RequestTraceFitError.
func FitRequestTrace(t reqtrace.Trace) (servegen.Mix, error) { return reqtrace.Fit(t) }

// RequestTraceFitError generates n requests from the mix and reports how
// the synthetic stream deviates from the trace: moment matches (rate, mean
// lengths) and per-class KS distances.
func RequestTraceFitError(t reqtrace.Trace, m servegen.Mix, n int, seed uint64) (reqtrace.FitReport, error) {
	return reqtrace.FitError(t, m, n, seed)
}

// NewContiguousKV returns the pad-to-max KV-cache baseline.
func NewContiguousKV(alloc MemoryAllocator, cfg model.Config, maxTokens int) *serve.ContiguousKV {
	return serve.NewContiguousKV(alloc, cfg, maxTokens)
}

// NewPagedKV returns the vLLM-style block-table KV cache.
func NewPagedKV(alloc MemoryAllocator, cfg model.Config, blockTokens, totalBlocks int) (*serve.PagedKV, error) {
	return serve.NewPagedKV(alloc, cfg, blockTokens, totalBlocks)
}

// NewChunkedKV returns the chunk-growing KV cache backed by an ordinary
// allocator.
func NewChunkedKV(alloc MemoryAllocator, cfg model.Config, chunkTokens int) *serve.ChunkedKV {
	return serve.NewChunkedKV(alloc, cfg, chunkTokens)
}

// ServeRequests runs requests under continuous batching on mgr.
func ServeRequests(reqs []serve.Request, mgr KVCacheManager, cfg ServeConfig) (ServeReport, error) {
	return serve.Serve(reqs, mgr, cfg)
}

// Cluster dispatch policies.
const (
	DispatchJSQ             = serve.DispatchJSQ
	DispatchSessionAffinity = serve.DispatchSessionAffinity
)

// ParseServeFaultPlan parses a scripted fault schedule of '/'-separated
// events like "crash@t=12s:r1/restart@t=14s:r1" into a plan for
// ServeFaultConfig.Plan.
func ParseServeFaultPlan(s string) ([]serve.FaultEvent, error) { return serve.ParseFaultPlan(s) }

// ServeClusterRequests runs requests on a multi-replica serving cluster;
// newMgr builds replica i's cache manager (each replica needs its own
// manager and allocator).
func ServeClusterRequests(reqs []serve.Request, newMgr func(replica int) KVCacheManager, cfg ServeClusterConfig) (serve.ClusterReport, error) {
	return serve.ServeCluster(reqs, newMgr, cfg)
}
