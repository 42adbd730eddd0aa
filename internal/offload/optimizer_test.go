package offload

import (
	"testing"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
	"repro/internal/stream"
)

func newTestStack(capacity int64) (*Engine, *stream.Scheduler, memalloc.Allocator) {
	clock := sim.NewClock()
	sched := stream.NewScheduler(clock)
	dev := gpu.NewDevice("t", capacity)
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	return NewEngine(DefaultPCIe(), sched), sched, caching.New(drv)
}

func TestNewOptimizerValidation(t *testing.T) {
	e, _, _ := newTestStack(sim.GiB)
	if _, err := NewOptimizer(OptimizerConfig{}, e, nil, 0); err == nil {
		t.Fatal("accepted zero-byte shard")
	}
	if _, err := NewOptimizer(OptimizerConfig{StageOnGPU: true}, e, nil, sim.MiB); err == nil {
		t.Fatal("accepted StageOnGPU without allocator")
	}
}

func TestStepPipelinesBuckets(t *testing.T) {
	e, _, _ := newTestStack(sim.GiB)
	o, err := NewOptimizer(OptimizerConfig{Bucket: 32 * sim.MiB, Pinned: true}, e, nil, 256*sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	grad := int64(256 * sim.MiB)
	elapsed, err := o.Step(grad)
	if err != nil {
		t.Fatal(err)
	}
	serial := o.SerialStepEstimate(grad)
	if elapsed >= serial {
		t.Fatalf("pipelined step %v not faster than serial %v", elapsed, serial)
	}
	// The critical path can never beat the slowest single stage over all
	// bytes (here CPU Adam at 2 GiB/s).
	slowest := transferTime(grad, 2)
	if elapsed < slowest {
		t.Fatalf("step %v beat the bottleneck stage %v", elapsed, slowest)
	}
	if o.Steps() != 1 {
		t.Fatalf("Steps = %d", o.Steps())
	}
}

func TestStepRejectsZeroGradients(t *testing.T) {
	e, _, _ := newTestStack(sim.GiB)
	o, _ := NewOptimizer(OptimizerConfig{Pinned: true}, e, nil, sim.MiB)
	if _, err := o.Step(0); err == nil {
		t.Fatal("accepted zero-byte step")
	}
}

func TestStagingChurnsAllocator(t *testing.T) {
	e, _, alloc := newTestStack(2 * sim.GiB)
	o, err := NewOptimizer(OptimizerConfig{
		Bucket:     16 * sim.MiB,
		Pinned:     true,
		StageOnGPU: true,
	}, e, alloc, 128*sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(128 * sim.MiB); err != nil {
		t.Fatal(err)
	}
	st := alloc.Stats()
	if st.AllocCount != 8 || st.FreeCount != 8 {
		t.Fatalf("staging traffic alloc=%d free=%d, want 8/8", st.AllocCount, st.FreeCount)
	}
	if st.Active != 0 {
		t.Fatalf("leaked %d staging bytes", st.Active)
	}
}

func TestStagingWithStreamAwareAllocatorDoesNotBlock(t *testing.T) {
	clock := sim.NewClock()
	sched := stream.NewScheduler(clock)
	dev := gpu.NewDevice("t", 2*sim.GiB)
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	salloc := stream.NewAllocator(caching.New(drv), sched)
	engine := NewEngine(DefaultPCIe(), sched)

	o, err := NewOptimizer(OptimizerConfig{
		Bucket:     16 * sim.MiB,
		Pinned:     true,
		StageOnGPU: true,
	}, engine, salloc, 128*sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(128 * sim.MiB); err != nil {
		t.Fatal(err)
	}
	if salloc.DeferredTotal() == 0 {
		t.Fatal("no free was deferred behind the D2H copies")
	}
	salloc.SynchronizeAndFree()
	if got := salloc.Stats().Active; got != 0 {
		t.Fatalf("leaked %d bytes after drain", got)
	}
}

func TestUnevenLastBucket(t *testing.T) {
	e, _, alloc := newTestStack(sim.GiB)
	o, err := NewOptimizer(OptimizerConfig{
		Bucket:     64 * sim.MiB,
		Pinned:     true,
		StageOnGPU: true,
	}, e, alloc, 100*sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// 100 MiB = one 64 MiB bucket + one 36 MiB remainder.
	if _, err := o.Step(100 * sim.MiB); err != nil {
		t.Fatal(err)
	}
	if got := e.BytesD2H(); got != 100*sim.MiB {
		t.Fatalf("D2H bytes = %d, want exactly the gradient bytes", got)
	}
	if got := e.BytesH2D(); got != 100*sim.MiB {
		t.Fatalf("H2D bytes = %d, want exactly the parameter bytes", got)
	}
}
