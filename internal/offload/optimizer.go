package offload

import (
	"fmt"
	"time"

	"repro/internal/memalloc"
	"repro/internal/sim"
	"repro/internal/stream"
)

// StreamRecorder is implemented by stream-aware allocators
// (stream.Allocator); the optimizer uses it to free buffers that
// asynchronous copies are still reading without blocking the host.
type StreamRecorder interface {
	RecordStream(b *memalloc.Buffer, id stream.ID)
}

// OptimizerConfig tunes the ZeRO-Offload CPU optimizer.
type OptimizerConfig struct {
	// Bucket is the pipeline granularity: gradients leave and parameters
	// return in buckets of this size, so transfer, CPU compute and the
	// reverse transfer of consecutive buckets overlap. Default 64 MiB.
	Bucket int64

	// Pinned selects page-locked staging on the host (the fast DMA path).
	Pinned bool

	// CPUAdamGiBps is the CPU Adam throughput over fp16 gradient bytes
	// (each byte of gradient drives a read-modify-write of 6 bytes of fp32
	// host state). ZeRO-Offload's vectorized CPU Adam sustains a few GiB/s;
	// default 2.
	CPUAdamGiBps float64

	// StageOnGPU allocates a transient GPU staging buffer per bucket (the
	// flattened, contiguous gradient copy real engines build before DMA).
	// This is the allocation churn that the paper's "O" strategy induces.
	StageOnGPU bool
}

func (c OptimizerConfig) withDefaults() OptimizerConfig {
	if c.Bucket <= 0 {
		c.Bucket = 64 * sim.MiB
	}
	if c.CPUAdamGiBps <= 0 {
		c.CPUAdamGiBps = 2
	}
	return c
}

// Optimizer is a ZeRO-Offload style optimizer: fp32 master parameters,
// momentum and variance live in host memory; every step streams the fp16
// gradient shard to the host, runs CPU Adam, and streams updated fp16
// parameters back, bucket by bucket, with all three stages pipelined.
type Optimizer struct {
	cfg    OptimizerConfig
	engine *Engine
	alloc  memalloc.Allocator
	cpu    stream.ID // the CPU modeled as one more executor

	steps int64
}

// NewOptimizer creates an offloaded optimizer for a parameter shard of
// paramBytes (fp16 bytes on the GPU). alloc may be nil when
// cfg.StageOnGPU is false.
func NewOptimizer(cfg OptimizerConfig, engine *Engine, alloc memalloc.Allocator, paramBytes int64) (*Optimizer, error) {
	cfg = cfg.withDefaults()
	if paramBytes <= 0 {
		return nil, fmt.Errorf("offload: param shard %d bytes", paramBytes)
	}
	if cfg.StageOnGPU && alloc == nil {
		return nil, fmt.Errorf("offload: StageOnGPU requires an allocator")
	}
	return &Optimizer{
		cfg:    cfg,
		engine: engine,
		alloc:  alloc,
		cpu:    engine.Scheduler().NewStream(),
	}, nil
}

// Steps returns how many optimizer steps ran.
func (o *Optimizer) Steps() int64 { return o.steps }

// Step runs one offloaded optimizer step over gradBytes of fp16 gradients.
// It returns the virtual time the step took on the critical path (the host
// blocks until the last updated parameter bucket lands back on the GPU).
func (o *Optimizer) Step(gradBytes int64) (time.Duration, error) {
	if gradBytes <= 0 {
		return 0, fmt.Errorf("offload: step with %d gradient bytes", gradBytes)
	}
	sched := o.engine.Scheduler()
	watch := sim.StartStopwatch(sched.Clock())

	var last stream.Event
	for off := int64(0); off < gradBytes; off += o.cfg.Bucket {
		n := min(o.cfg.Bucket, gradBytes-off)

		var staging *memalloc.Buffer
		if o.cfg.StageOnGPU {
			b, err := o.alloc.Alloc(n)
			if err != nil {
				return watch.Elapsed(), fmt.Errorf("offload: staging bucket: %w", err)
			}
			staging = b
		}

		// Gradients leave; CPU Adam waits for them; parameters return.
		d2h := o.engine.CopyD2H(n, o.cfg.Pinned)
		sched.WaitEvent(o.cpu, d2h)
		sched.Launch(o.cpu, o.adamTime(n))
		cpuDone := sched.Record(o.cpu)
		o.engine.After(HostToDevice, cpuDone)
		last = o.engine.CopyH2D(n, o.cfg.Pinned)

		if staging != nil {
			o.freeAfter(staging, o.engine.D2HStream(), d2h)
		}
	}
	last.Sync(sched.Clock())
	o.steps++
	return watch.Elapsed(), nil
}

// freeAfter frees b once the copy reading it (event ev on stream id) has
// completed, without blocking the host when the allocator is stream-aware.
func (o *Optimizer) freeAfter(b *memalloc.Buffer, id stream.ID, ev stream.Event) {
	if rec, ok := o.alloc.(StreamRecorder); ok {
		rec.RecordStream(b, id)
		o.alloc.Free(b)
		return
	}
	ev.Sync(o.engine.Scheduler().Clock())
	o.alloc.Free(b)
}

// adamTime prices CPU Adam over n fp16 gradient bytes.
func (o *Optimizer) adamTime(n int64) time.Duration {
	return transferTime(n, o.cfg.CPUAdamGiBps)
}

// SerialStepEstimate returns the step time with zero overlap, for reporting
// the pipeline's benefit.
func (o *Optimizer) SerialStepEstimate(gradBytes int64) time.Duration {
	var total time.Duration
	for off := int64(0); off < gradBytes; off += o.cfg.Bucket {
		n := min(o.cfg.Bucket, gradBytes-off)
		total += o.engine.Link().D2H(n, o.cfg.Pinned) +
			o.adamTime(n) +
			o.engine.Link().H2D(n, o.cfg.Pinned)
	}
	return total
}
