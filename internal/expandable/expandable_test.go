package expandable

import (
	"errors"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

func newTestAllocator(capacity int64) (*Allocator, *cuda.Driver) {
	dev := gpu.NewDevice("test", capacity)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	return New(drv), drv
}

func mustAlloc(t *testing.T, a *Allocator, size int64) *memalloc.Buffer {
	t.Helper()
	b, err := a.Alloc(size)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", size, err)
	}
	return b
}

func checkInv(t *testing.T, a *Allocator) {
	t.Helper()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowAndReuse(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b1 := mustAlloc(t, a, 100*sim.MiB)
	if a.Frontier() != 100*sim.MiB {
		t.Fatalf("frontier = %d, want exactly the mapped request", a.Frontier())
	}
	creates := drv.Counters().MemCreate
	a.Free(b1)
	// Same-size realloc must reuse the mapped prefix: no new chunks.
	b2 := mustAlloc(t, a, 100*sim.MiB)
	if drv.Counters().MemCreate != creates {
		t.Fatal("re-allocation grew the segment")
	}
	if b2.Ptr != b1.Ptr {
		t.Fatal("block not reused at the same address")
	}
	a.Free(b2)
	checkInv(t, a)
}

func TestCrossClassReuse(t *testing.T) {
	// The motivating advantage over the caching allocator: memory freed by
	// one size class serves another without reserving more.
	a, _ := newTestAllocator(2 * sim.GiB)
	var bufs []*memalloc.Buffer
	for i := 0; i < 8; i++ {
		bufs = append(bufs, mustAlloc(t, a, 64*sim.MiB))
	}
	for _, b := range bufs {
		a.Free(b)
	}
	reserved := a.Stats().Reserved
	big := mustAlloc(t, a, 512*sim.MiB) // spans all eight coalesced blocks
	if got := a.Stats().Reserved; got != reserved {
		t.Fatalf("reserved grew from %d to %d; arena should be reused", reserved, got)
	}
	a.Free(big)
	checkInv(t, a)
}

func TestTailMergeOnGrow(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b1 := mustAlloc(t, a, 64*sim.MiB)
	b2 := mustAlloc(t, a, 10*sim.MiB)
	a.Free(b2) // free tail block
	// A request larger than the free tail extends the frontier and must
	// merge with it: only the shortfall is newly mapped.
	before := a.Stats().Reserved
	b3 := mustAlloc(t, a, 30*sim.MiB)
	grown := a.Stats().Reserved - before
	if grown != 20*sim.MiB {
		t.Fatalf("grew %d, want 20 MiB (30 wanted - 10 free tail)", grown)
	}
	a.Free(b1)
	a.Free(b3)
	checkInv(t, a)
}

func TestInteriorHolePinsFrontier(t *testing.T) {
	// The known weakness vs GMLake: a live block above a hole prevents any
	// trim, and a request larger than the hole must extend the frontier.
	a, _ := newTestAllocator(4 * sim.GiB)
	hole := mustAlloc(t, a, 256*sim.MiB)
	pin := mustAlloc(t, a, 64*sim.MiB)
	a.Free(hole)
	before := a.Stats().Reserved
	big := mustAlloc(t, a, 512*sim.MiB)
	if a.Stats().Reserved <= before {
		t.Fatal("expected frontier growth: the hole cannot serve a larger request")
	}
	a.Free(pin)
	a.Free(big)
	checkInv(t, a)
}

func TestEmptyCacheTrimsTail(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 128*sim.MiB)
	a.Free(b)
	a.EmptyCache()
	if a.Stats().Reserved != 0 {
		t.Fatalf("Reserved = %d after trim", a.Stats().Reserved)
	}
	if free, total := drv.MemGetInfo(); free != total {
		t.Fatalf("device not free after trim: %d/%d", free, total)
	}
	if a.Frontier() != 0 {
		t.Fatalf("frontier = %d after trim", a.Frontier())
	}
	checkInv(t, a)
	// The allocator must still work after a full trim.
	b2 := mustAlloc(t, a, 64*sim.MiB)
	a.Free(b2)
	checkInv(t, a)
}

func TestEmptyCachePreservesLiveBlocks(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	live := mustAlloc(t, a, 64*sim.MiB)
	dead := mustAlloc(t, a, 64*sim.MiB)
	a.Free(dead)
	a.EmptyCache()
	if got := a.Stats().Reserved; got != 64*sim.MiB {
		t.Fatalf("Reserved = %d, want the live 64 MiB", got)
	}
	a.Free(live)
	checkInv(t, a)
}

func TestSmallRequestsUseSmallPool(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 100*sim.KiB)
	if drv.Counters().AddressReserve != 0 {
		t.Fatal("small request touched the expandable segment")
	}
	a.Free(b)
	if st := a.Stats(); st.Active != 0 {
		t.Fatalf("Active = %d", st.Active)
	}
}

func TestOOM(t *testing.T) {
	a, _ := newTestAllocator(256 * sim.MiB)
	b := mustAlloc(t, a, 200*sim.MiB)
	if _, err := a.Alloc(100 * sim.MiB); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
	a.Free(b)
	checkInv(t, a)
}

// panicValue runs fn and returns what it panicked with, or nil.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestDoubleFreePanics frees an arena buffer and a small-pool buffer twice:
// both panics name the arena, not the small pool it embeds.
func TestDoubleFreePanics(t *testing.T) {
	for _, size := range []int64{10 * sim.MiB, sim.MiB} {
		a, _ := newTestAllocator(sim.GiB)
		b := mustAlloc(t, a, size)
		a.Free(b)
		if got := panicValue(func() { a.Free(b) }); got != "expandable: double Free" {
			t.Fatalf("second Free of a %d-byte buffer panicked with %v", size, got)
		}
	}
}

// TestStaleHandleAfterReuse frees a split block, whose record absorbs the
// remainder and serves the next Alloc, and frees the first buffer again:
// the stale handle must panic without touching the new owner.
func TestStaleHandleAfterReuse(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	bufA := mustAlloc(t, a, 9*sim.MiB) // maps 10 MiB and splits off 1 MiB
	rec := bufA.Impl()
	a.Free(bufA)
	bufB := mustAlloc(t, a, 9*sim.MiB)
	if bufB.Impl() != rec {
		t.Fatal("the second Alloc did not reuse the first one's block record")
	}
	if got := panicValue(func() { a.Free(bufA) }); got != "expandable: double Free" {
		t.Fatalf("Free of the stale handle panicked with %v", got)
	}
	if bufB.Impl() != rec || a.Stats().Active != bufB.BlockSize {
		t.Fatal("the stale Free changed the live buffer's state")
	}
	checkInv(t, a)
	a.Free(bufB)
	checkInv(t, a)
}

// TestRandomWorkloadInvariants drives the arena in each mode with a random
// alloc/free stream, checking the invariants after every operation.
func TestRandomWorkloadInvariants(t *testing.T) {
	for _, mode := range []struct {
		name string
		ctor func(*cuda.Driver) *Allocator
		seed uint64
	}{{"expandable", New, 31}, {"compact", NewCompact, 77}} {
		t.Run(mode.name, func(t *testing.T) {
			drv := cuda.NewDriver(gpu.NewDevice("test", 8*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
			a := mode.ctor(drv)
			rng := sim.NewRNG(mode.seed)
			var live []*memalloc.Buffer
			for step := 0; step < 3000; step++ {
				if rng.Float64() < 0.55 {
					size := int64(rng.Intn(int(256*sim.MiB)) + 1)
					if b, err := a.Alloc(size); err == nil {
						live = append(live, b)
					}
				} else if len(live) > 0 {
					i := rng.Intn(len(live))
					a.Free(live[i])
					live = append(live[:i], live[i+1:]...)
				}
				checkInv(t, a)
			}
			if mode.name == "compact" && a.Compactions() == 0 {
				t.Fatal("the stream never forced a compaction")
			}
			for _, b := range live {
				a.Free(b)
			}
			checkInv(t, a)
			if st := a.Stats(); st.Active != 0 {
				t.Fatalf("leaked %d bytes", st.Active)
			}
			a.EmptyCache()
			if free, total := drv.MemGetInfo(); free != total {
				t.Fatalf("device leak: %d of %d", free, total)
			}
		})
	}
}

func TestNameAndResetPeaks(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	if a.Name() != "expandable" {
		t.Fatalf("Name = %q", a.Name())
	}
	b, err := a.Alloc(8 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(b)
	a.ResetPeaks()
	st := a.Stats()
	if st.PeakActive != st.Active || st.PeakReserved != st.Reserved {
		t.Fatal("ResetPeaks did not restart peaks")
	}
}
