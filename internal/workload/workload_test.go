package workload

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/optrace"
	"repro/internal/sim"
)

func TestStrategyLabels(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{StrategyN, "N"},
		{StrategyR, "R"},
		{StrategyLR, "LR"},
		{StrategyRO, "RO"},
		{StrategyLRO, "LRO"},
		{Strategy{LoRA: true}, "L"},
		{Strategy{Offload: true}, "O"},
	}
	for _, tt := range tests {
		if got := tt.s.Label(); got != tt.want {
			t.Errorf("Label() = %q, want %q", got, tt.want)
		}
	}
}

func TestPlatformString(t *testing.T) {
	if DeepSpeed.String() != "DeepSpeed" || FSDP.String() != "FSDP" || ColossalAI.String() != "Colossal-AI" {
		t.Fatal("platform names wrong")
	}
	if FSDP.gatherLayers() != 2 || DeepSpeed.gatherLayers() != 1 {
		t.Fatal("gather unit wrong")
	}
}

func TestSpecNormalize(t *testing.T) {
	s := Spec{Model: model.OPT1_3B, Batch: 4}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.World != 1 || n.SeqLen != model.OPT1_3B.SeqLen || n.LoRARank != 16 || n.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if _, err := (Spec{Model: model.OPT1_3B}).Normalize(); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func newHarness(capacity int64) (memalloc.Allocator, *sim.Clock) {
	dev := gpu.NewDevice("test", capacity)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	return caching.New(drv), clock
}

func TestSetupPersistentBytes(t *testing.T) {
	// Full fine-tuning persists ~16 bytes/param sharded; LoRA+offload only
	// the fp16 parameters plus tiny adapters.
	alloc, clock := newHarness(300 * sim.GiB)
	full, err := NewTrainer(Spec{Model: model.OPT13B, Strategy: StrategyN, World: 4, Batch: 1}, alloc, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Setup(); err != nil {
		t.Fatal(err)
	}
	params := model.OPT13B.Params()
	want := params * 16 / 4 // fp16 params + fp16 grads + fp32 Adam, ZeRO-3 over 4
	got := full.PersistentBytes()
	if ratio := float64(got) / float64(want); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("full fine-tune persistent = %d, want ~%d", got, want)
	}
	full.Teardown()

	lora, err := NewTrainer(Spec{Model: model.OPT13B, Strategy: StrategyLRO, World: 4, Batch: 1}, alloc, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := lora.Setup(); err != nil {
		t.Fatal(err)
	}
	wantLoRA := params * 2 / 4 // fp16 params only (optimizer offloaded, adapters tiny)
	gotLoRA := lora.PersistentBytes()
	if ratio := float64(gotLoRA) / float64(wantLoRA); ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("LRO persistent = %d, want ~%d", gotLoRA, wantLoRA)
	}
	lora.Teardown()
}

func TestStepBalancesAllocations(t *testing.T) {
	alloc, clock := newHarness(80 * sim.GiB)
	tr, err := NewTrainer(Spec{Model: model.OPT1_3B, Strategy: StrategyLRO, World: 4, Batch: 8}, alloc, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	persistent := alloc.Stats().Active
	for i := 0; i < 5; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if got := alloc.Stats().Active; got != persistent {
			t.Fatalf("step %d leaked: active %d, want %d", i, got, persistent)
		}
	}
	tr.Teardown()
	if got := alloc.Stats().Active; got != 0 {
		t.Fatalf("teardown leaked %d bytes", got)
	}
}

func TestStepAdvancesClock(t *testing.T) {
	alloc, clock := newHarness(80 * sim.GiB)
	tr, _ := NewTrainer(Spec{Model: model.OPT1_3B, Strategy: StrategyN, World: 4, Batch: 8}, alloc, clock)
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now() - before
	if elapsed < tr.EstimatedStepCompute() {
		t.Fatalf("step took %v, below compute lower bound %v", elapsed, tr.EstimatedStepCompute())
	}
	if elapsed > 20*tr.EstimatedStepCompute() {
		t.Fatalf("step took %v, absurd vs compute %v", elapsed, tr.EstimatedStepCompute())
	}
	tr.Teardown()
}

func TestOOMCleanup(t *testing.T) {
	// A device too small for the activations: Step must fail with OOM and
	// free every transient, leaving only persistent state.
	alloc, clock := newHarness(6 * sim.GiB)
	tr, _ := NewTrainer(Spec{Model: model.OPT1_3B, Strategy: StrategyN, World: 4, Batch: 64}, alloc, clock)
	if err := tr.Setup(); err != nil {
		t.Fatalf("setup should fit: %v", err)
	}
	persistent := alloc.Stats().Active
	err := tr.Step()
	if !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("Step err = %v, want OOM", err)
	}
	if got := alloc.Stats().Active; got != persistent {
		t.Fatalf("transients leaked after OOM: %d vs %d", got, persistent)
	}
	if tr.Steps() != 0 {
		t.Fatal("failed step counted")
	}
	tr.Teardown()
	if alloc.Stats().Active != 0 {
		t.Fatal("teardown after OOM leaked")
	}
}

// TestOOMSampled: a timeline records the failing instant of an
// out-of-memory step, before the abort frees the step's buffers, so a trace
// whose first step OOMs does not stop at setup: setup is the first sample,
// the OOM the last (the step's allocations before it sample in between).
func TestOOMSampled(t *testing.T) {
	alloc, clock := newHarness(6 * sim.GiB)
	tr, _ := NewTrainer(Spec{Model: model.OPT1_3B, Strategy: StrategyN, World: 4, Batch: 64}, alloc, clock)
	var tl metrics.Timeline
	tr.SetTimeline(&tl)
	if err := tr.Setup(); err != nil {
		t.Fatalf("setup should fit: %v", err)
	}
	if err := tr.Step(); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("Step err = %v, want OOM", err)
	}
	var csv strings.Builder
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")[1:]
	if len(rows) < 2 {
		t.Fatalf("timeline has %d samples, want setup and OOM:\n%s", len(rows), csv.String())
	}
	var active, reserved [2]int64
	for i, row := range []string{rows[0], rows[len(rows)-1]} {
		var secs float64
		if _, err := fmt.Sscanf(row, "%f,%d,%d", &secs, &active[i], &reserved[i]); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
	}
	if active[1] <= active[0] {
		t.Errorf("OOM sample holds %d active bytes, no more than setup's %d: it was taken after the abort", active[1], active[0])
	}
	if reserved[1] < reserved[0] {
		t.Errorf("OOM sample reserves %d bytes, below setup's %d", reserved[1], reserved[0])
	}
	tr.Teardown()
}

// TestOOMFreeOrder: after an out-of-memory step the trainer frees its
// step-transient buffers, and on teardown the rest, in an order that does
// not depend on map iteration: two trainers that OOM at the same step over
// recording allocators record the same event stream. The abort frees at
// least eight live buffers, so a map-ordered free sequence would differ
// between the two almost surely.
func TestOOMFreeOrder(t *testing.T) {
	run := func() []optrace.Event {
		alloc, clock := newHarness(12 * sim.GiB)
		rec := optrace.NewRecorder(alloc, clock)
		tr, _ := NewTrainer(Spec{Model: model.OPT1_3B, Strategy: StrategyR, World: 4, Batch: 64}, rec, clock)
		if err := tr.Setup(); err != nil {
			t.Fatalf("setup should fit: %v", err)
		}
		if err := tr.Step(); !errors.Is(err, cuda.ErrOutOfMemory) {
			t.Fatalf("Step err = %v, want OOM", err)
		}
		events := rec.Trace().Events
		aborted := 0
		for i := len(events) - 1; i >= 0 && events[i].Op == optrace.OpFree; i-- {
			aborted++
		}
		if aborted < 8 {
			t.Fatalf("the aborted step freed %d buffers, want at least 8", aborted)
		}
		tr.Teardown()
		return rec.Trace().Events
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatal("two identical trainers recorded different allocation streams after an OOM step")
	}
}

func TestSetupOOM(t *testing.T) {
	alloc, clock := newHarness(1 * sim.GiB)
	tr, _ := NewTrainer(Spec{Model: model.OPT13B, Strategy: StrategyN, World: 1, Batch: 1}, alloc, clock)
	if err := tr.Setup(); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("Setup err = %v, want OOM", err)
	}
	tr.Teardown()
	if alloc.Stats().Active != 0 {
		t.Fatal("partial setup leaked")
	}
}

// recordStream records the allocation stream of n steps of spec.
func recordStream(t *testing.T, spec Spec, capacity int64, n int) *optrace.Trace {
	t.Helper()
	dev := gpu.NewDevice("test", capacity)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	rec := optrace.NewRecorder(caching.New(drv), clock)
	tr, err := NewTrainer(spec, rec, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tr.Teardown()
	return rec.Trace()
}

func TestStreamDeterminism(t *testing.T) {
	spec := Spec{Model: model.OPT1_3B, Strategy: StrategyLRO, World: 4, Batch: 8, Seed: 42}
	a := recordStream(t, spec, 80*sim.GiB, 4)
	b := recordStream(t, spec, 80*sim.GiB, 4)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("streams diverge at event %d: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

func TestStreamIndependentOfAllocator(t *testing.T) {
	// The trainer must emit the same requests regardless of backing
	// allocator; otherwise comparisons would be apples to oranges.
	spec := Spec{Model: model.OPT1_3B, Strategy: StrategyLR, World: 4, Batch: 8, Seed: 9}
	viaCaching := recordStream(t, spec, 80*sim.GiB, 3)

	dev := gpu.NewDevice("test", 80*sim.GiB)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	rec := optrace.NewRecorder(core.NewDefault(drv), clock)
	tr, err := NewTrainer(spec, rec, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tr.Teardown()
	viaGMLake := rec.Trace()

	if len(viaCaching.Events) != len(viaGMLake.Events) {
		t.Fatalf("stream lengths differ by allocator: %d vs %d",
			len(viaCaching.Events), len(viaGMLake.Events))
	}
	for i := range viaCaching.Events {
		a, b := viaCaching.Events[i], viaGMLake.Events[i]
		if a.Op != b.Op || a.ID != b.ID || a.Size != b.Size {
			t.Fatalf("request %d differs by allocator: %+v vs %+v", i, a, b)
		}
	}
}

func TestPlainTrainingIsRegular(t *testing.T) {
	// With strategy N the request stream must repeat exactly step to step:
	// total allocations are setup + steps * perStep.
	spec := Spec{Model: model.OPT1_3B, Strategy: StrategyN, World: 4, Batch: 8, Seed: 5}
	setup := countAllocs(recordStream(t, spec, 80*sim.GiB, 0))
	one := countAllocs(recordStream(t, spec, 80*sim.GiB, 1))
	three := countAllocs(recordStream(t, spec, 80*sim.GiB, 3))
	perStep := one - setup
	if perStep <= 0 {
		t.Fatalf("per-step allocations = %d", perStep)
	}
	if got, want := three-setup, 3*perStep; got != want {
		t.Fatalf("3 steps made %d allocations, want %d (stream not regular)", got, want)
	}
}

func countAllocs(tr *optrace.Trace) int64 {
	var n int64
	for _, ev := range tr.Events {
		if ev.Op == optrace.OpAlloc {
			n++
		}
	}
	return n
}

func TestIrregularStrategiesAllocateMore(t *testing.T) {
	// Paper Figure 5: optimization strategies make requests more frequent
	// and smaller.
	plain := recordStream(t, Spec{Model: model.OPT1_3B, Strategy: StrategyN, World: 4, Batch: 8, Seed: 5}, 80*sim.GiB, 4)
	lr := recordStream(t, Spec{Model: model.OPT1_3B, Strategy: StrategyLR, World: 4, Batch: 8, Seed: 5}, 80*sim.GiB, 4)
	ps, ls := plain.Stats(), lr.Stats()
	if ls.Allocs <= ps.Allocs {
		t.Fatalf("LR allocs %d not greater than plain %d", ls.Allocs, ps.Allocs)
	}
	if ls.MeanBytes >= ps.MeanBytes {
		t.Fatalf("LR mean size %d not smaller than plain %d", ls.MeanBytes, ps.MeanBytes)
	}
}

func TestComputeModelScaling(t *testing.T) {
	c1 := computeModel{spec: Spec{Model: model.OPT13B, World: 1, Batch: 8, SeqLen: 512}}
	c4 := computeModel{spec: Spec{Model: model.OPT13B, World: 4, Batch: 8, SeqLen: 512}}
	if c1.gatherTime(sim.GiB) != 0 {
		t.Fatal("single-GPU gather should be free")
	}
	if c4.gatherTime(sim.GiB) <= 0 {
		t.Fatal("multi-GPU gather should cost time")
	}
	// Backward costs more than forward; recompute makes it costlier still.
	fwd := c4.layerForward(512)
	bwd := c4.layerBackward(512)
	if bwd <= fwd {
		t.Fatal("backward not more expensive than forward")
	}
	cR := computeModel{spec: Spec{Model: model.OPT13B, World: 4, Batch: 8, SeqLen: 512, Strategy: StrategyR}}
	if cR.layerBackward(512) <= bwd {
		t.Fatal("recompute backward not more expensive")
	}
}

func TestSeqBucketsRecur(t *testing.T) {
	alloc, clock := newHarness(80 * sim.GiB)
	tr, _ := NewTrainer(Spec{Model: model.OPT1_3B, Strategy: StrategyLR, World: 4, Batch: 4, Seed: 3}, alloc, clock)
	seen := map[int]int{}
	for i := 0; i < 200; i++ {
		seen[tr.stepSeq()]++
	}
	if len(seen) != tr.variantCount() {
		t.Fatalf("got %d distinct sequence buckets, want %d", len(seen), tr.variantCount())
	}
	for seq, n := range seen {
		if n < 20 {
			t.Fatalf("bucket %d drawn only %d of 200 times", seq, n)
		}
	}
}

func TestDoubleSetupRejected(t *testing.T) {
	alloc, clock := newHarness(80 * sim.GiB)
	tr, _ := NewTrainer(Spec{Model: model.OPT1_3B, World: 4, Batch: 1}, alloc, clock)
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Setup(); err == nil {
		t.Fatal("second Setup accepted")
	}
	tr.Teardown()
	if err := tr.Step(); err == nil {
		t.Fatal("Step after Teardown accepted")
	}
}
