package caching

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

func TestRoundSize(t *testing.T) {
	tests := []struct{ in, want int64 }{
		{1, 512},
		{511, 512},
		{512, 512},
		{513, 1024},
		{sim.MiB, sim.MiB},
	}
	for _, tt := range tests {
		if got := RoundSize(tt.in); got != tt.want {
			t.Errorf("RoundSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestAllocationSize(t *testing.T) {
	tests := []struct{ in, want int64 }{
		{512, SmallBuffer},
		{SmallSize, SmallBuffer},
		{SmallSize + 512, LargeBuffer},
		{MinLargeAlloc - 512, LargeBuffer},
		{MinLargeAlloc, MinLargeAlloc},
		{MinLargeAlloc + 1, MinLargeAlloc + RoundLarge},
		{100 * sim.MiB, 100 * sim.MiB},
		{101 * sim.MiB, 102 * sim.MiB},
	}
	for _, tt := range tests {
		if got := allocationSize(tt.in); got != tt.want {
			t.Errorf("allocationSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestAllocFreeReuse(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b1, err := a.Alloc(100 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	mallocsAfterFirst := drv.Counters().Malloc
	a.Free(b1)
	// Same-size realloc must hit the cache: no new cudaMalloc.
	b2, err := a.Alloc(100 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if drv.Counters().Malloc != mallocsAfterFirst {
		t.Fatalf("cache miss on same-size realloc: %d mallocs", drv.Counters().Malloc)
	}
	if b2.Ptr != b1.Ptr {
		t.Fatalf("reused block at %#x, want %#x", uint64(b2.Ptr), uint64(b1.Ptr))
	}
	a.Free(b2)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	big, err := a.Alloc(100 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(big)
	// Allocate a smaller tensor: best fit splits the 100 MiB block.
	small1, err := a.Alloc(30 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if small1.Ptr != big.Ptr {
		t.Fatal("split should reuse the cached block's front")
	}
	if a.FreeBlockCount() != 1 {
		t.Fatalf("FreeBlockCount = %d, want 1 (the split remainder)", a.FreeBlockCount())
	}
	small2, err := a.Alloc(70 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if small2.Ptr != big.Ptr+cuda.DevicePtr(30*sim.MiB) {
		t.Fatal("second allocation should use the split remainder")
	}
	// Free both: they must coalesce back into one 100 MiB block.
	a.Free(small1)
	a.Free(small2)
	if a.FreeBlockCount() != 1 {
		t.Fatalf("FreeBlockCount = %d, want 1 after coalescing", a.FreeBlockCount())
	}
	again, err := a.Alloc(100 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if again.Ptr != big.Ptr {
		t.Fatal("coalesced block not reusable at original address")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallPoolSegmentSharing(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	// Many small tensors should share 2 MiB segments.
	var bufs []*memalloc.Buffer
	for i := 0; i < 100; i++ {
		b, err := a.Alloc(10 * sim.KiB)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	// 100 * 10 KiB = ~1 MiB; one 2 MiB segment must be enough.
	if got := drv.Counters().Malloc; got != 1 {
		t.Fatalf("small pool used %d segments, want 1", got)
	}
	for _, b := range bufs {
		a.Free(b)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeDoesNotCallDriver(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b, _ := a.Alloc(50 * sim.MiB)
	frees := drv.Counters().Free
	a.Free(b)
	if drv.Counters().Free != frees {
		t.Fatal("Free invoked cudaFree; caching allocator must not")
	}
	st := a.Stats()
	if st.Active != 0 {
		t.Fatalf("Active = %d after free", st.Active)
	}
	if st.Reserved == 0 {
		t.Fatal("Reserved dropped to 0; cache should retain the segment")
	}
}

func TestEmptyCache(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b, _ := a.Alloc(50 * sim.MiB)
	a.Free(b)
	a.EmptyCache()
	if st := a.Stats(); st.Reserved != 0 {
		t.Fatalf("Reserved = %d after EmptyCache", st.Reserved)
	}
	if free, total := drv.MemGetInfo(); free != total {
		t.Fatalf("device not fully free after EmptyCache: %d/%d", free, total)
	}
	if a.SegmentCount() != 0 {
		t.Fatalf("SegmentCount = %d", a.SegmentCount())
	}
}

func TestEmptyCacheKeepsPartialSegments(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b1, _ := a.Alloc(8 * sim.MiB) // 20 MiB segment, split
	a.EmptyCache()
	if a.SegmentCount() != 1 {
		t.Fatal("EmptyCache released a segment with a live block")
	}
	a.Free(b1)
	a.EmptyCache()
	if a.SegmentCount() != 0 {
		t.Fatal("EmptyCache kept a fully-free segment")
	}
}

func TestOOMRetryAfterCacheFlush(t *testing.T) {
	a, _ := newTestAllocator(100 * sim.MiB)
	b, err := a.Alloc(60 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(b)
	// Cache now holds 60 MiB; a 90 MiB request cannot fit alongside it but
	// must succeed after the allocator flushes its cache.
	b2, err := a.Alloc(90 * sim.MiB)
	if err != nil {
		t.Fatalf("Alloc after flushable cache failed: %v", err)
	}
	a.Free(b2)
}

func TestHardOOM(t *testing.T) {
	a, _ := newTestAllocator(100 * sim.MiB)
	b, err := a.Alloc(80 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(80 * sim.MiB); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	a.Free(b)
}

func TestFragmentationScenario(t *testing.T) {
	// The paper's Figure 1 scenario: split remainders too small for a new
	// request force reserved memory to grow even though total free bytes
	// would suffice.
	a, _ := newTestAllocator(10 * sim.GiB)
	var keep, junk []*memalloc.Buffer
	// Interleave long-lived and short-lived blocks inside shared segments.
	for i := 0; i < 32; i++ {
		b1, err := a.Alloc(96 * sim.MiB)
		if err != nil {
			t.Fatal(err)
		}
		junk = append(junk, b1)
		b2, err := a.Alloc(32 * sim.MiB)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, b2)
	}
	for _, b := range junk {
		a.Free(b)
	}
	st := a.Stats()
	freeBytes := st.Reserved - st.Active
	if freeBytes < 32*96*sim.MiB {
		t.Fatalf("expected ≥ %d cached free bytes, got %d", 32*96*sim.MiB, freeBytes)
	}
	// Allocate blocks bigger than any single cached fragment: reserved must
	// grow despite ample free bytes — that is fragmentation.
	reservedBefore := st.Reserved
	b, err := a.Alloc(200 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Reserved; got <= reservedBefore {
		t.Fatalf("reserved did not grow (%d -> %d); expected fragmentation", reservedBefore, got)
	}
	a.Free(b)
	for _, bf := range keep {
		a.Free(bf)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// panicValue runs fn and returns what it panicked with, or nil.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestDoubleFreePanics(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b, _ := a.Alloc(sim.MiB)
	a.Free(b)
	if got := panicValue(func() { a.Free(b) }); got != "caching: double Free" {
		t.Fatalf("second Free panicked with %v", got)
	}
	foreign := &memalloc.Buffer{}
	foreign.SetImpl(42)
	if got := panicValue(func() { a.Free(foreign) }); got != "caching: Free of buffer not owned by this allocator" {
		t.Fatalf("Free of a foreign buffer panicked with %v", got)
	}
}

// TestStaleHandleAfterReuse frees a split block, hands its recycled record
// to a new buffer, and frees the first buffer again: the stale handle must
// panic without touching the new owner.
func TestStaleHandleAfterReuse(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	bufA, err := a.Alloc(4 * sim.MiB) // splits a 20 MiB segment
	if err != nil {
		t.Fatal(err)
	}
	rec := bufA.Impl()
	a.Free(bufA)
	bufB, err := a.Alloc(4 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if bufB.Impl() != rec {
		t.Fatal("the second Alloc did not reuse the first one's block record")
	}
	if got := panicValue(func() { a.Free(bufA) }); got != "caching: double Free" {
		t.Fatalf("Free of the stale handle panicked with %v", got)
	}
	if bufB.Impl() != rec || a.Stats().Active != bufB.BlockSize {
		t.Fatal("the stale Free changed the live buffer's state")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a.Free(bufB)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitFreeAllocationBudget holds a warm split+free cycle to no
// allocation: the split remainder is a record the previous Free merged away,
// and the handle comes from the allocator's slab (one slab per 255 handles
// averages to 0 over AllocsPerRun's truncated mean).
func TestSplitFreeAllocationBudget(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	cycle := func() {
		buf, err := a.Alloc(4 * sim.MiB)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(buf)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm split+free cycle allocates %v times, want 0", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b1, _ := a.Alloc(30 * sim.MiB)
	b2, _ := a.Alloc(10 * sim.MiB)
	st := a.Stats()
	if st.AllocCount != 2 || st.FreeCount != 0 {
		t.Fatalf("counts = %d/%d", st.AllocCount, st.FreeCount)
	}
	if st.Active < 40*sim.MiB {
		t.Fatalf("Active = %d, want >= 40 MiB", st.Active)
	}
	if st.Reserved < st.Active {
		t.Fatal("Reserved < Active")
	}
	a.Free(b1)
	a.Free(b2)
	st = a.Stats()
	if st.Active != 0 {
		t.Fatalf("Active = %d after freeing all", st.Active)
	}
	if st.PeakActive < 40*sim.MiB {
		t.Fatalf("PeakActive = %d", st.PeakActive)
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("Utilization = %v", u)
	}
}

// TestRandomWorkloadInvariants churns random requests and checks the
// invariants — the wholly-free segment counts among them — after every
// operation, on an ample device and on a tight one where a miss's
// cudaMalloc fails often. It fails unless every flush path was taken: a
// refusal with nothing to flush, a flush that let the retry succeed, one
// after which it failed anyway, and a GCThreshold flush before the
// cudaMalloc.
func TestRandomWorkloadInvariants(t *testing.T) {
	var refused, flushOK, flushFail, gcFlush int
	for _, tc := range []struct {
		capacity int64
		cfg      Config
	}{
		{4 * sim.GiB, Config{}},
		{192 * sim.MiB, Config{}},
		{192 * sim.MiB, Config{GCThreshold: 0.7}},
	} {
		a, drv := newTunedAllocator(tc.capacity, tc.cfg)
		rng := sim.NewRNG(2024)
		var live []*memalloc.Buffer
		for step := 0; step < 4000; step++ {
			switch r := rng.Float64(); {
			case r < 0.01:
				a.EmptyCache()
			case r < 0.56:
				// Mix small and large requests across three magnitudes.
				var size int64
				switch rng.Intn(3) {
				case 0:
					size = int64(rng.Intn(1024) + 1)
				case 1:
					size = int64(rng.Intn(int(4*sim.MiB)) + 1)
				default:
					size = int64(rng.Intn(int(64*sim.MiB)) + 1)
				}
				before := drv.Counters()
				b, err := a.Alloc(size)
				after := drv.Counters()
				mallocs, frees := after.Malloc-before.Malloc, after.Free-before.Free
				switch {
				case err != nil && !errors.Is(err, cuda.ErrOutOfMemory):
					t.Fatalf("step %d: %v", step, err)
				case err != nil && mallocs == 1:
					refused++
				case err != nil:
					flushFail++
				case mallocs == 2:
					flushOK++
				case mallocs == 1 && frees > 0:
					gcFlush++
				}
				if err == nil {
					live = append(live, b)
				}
			case len(live) > 0:
				i := rng.Intn(len(live))
				a.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("%d MiB, GCThreshold %v, step %d: %v", tc.capacity/sim.MiB, tc.cfg.GCThreshold, step, err)
			}
		}
		for _, b := range live {
			a.Free(b)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if st := a.Stats(); st.Active != 0 {
			t.Fatalf("leaked %d active bytes", st.Active)
		}
		a.EmptyCache()
		if free, total := drv.MemGetInfo(); free != total {
			t.Fatalf("device leak: %d of %d free", free, total)
		}
	}
	t.Logf("refused %d, flush then success %d, flush then refusal %d, GC flushes %d",
		refused, flushOK, flushFail, gcFlush)
	if refused == 0 || flushOK == 0 || flushFail == 0 || gcFlush == 0 {
		t.Fatalf("a flush path was never taken: refused %d, flush then success %d, flush then refusal %d, GC flushes %d",
			refused, flushOK, flushFail, gcFlush)
	}
}

// TestRefusalAllocationBudget holds a repeated refusal on a full device with
// nothing to flush to no heap allocation: the device hands back the error
// it made for the first, identical refusal, and the caching allocator wraps
// it without allocating. Nothing is formatted until read.
func TestRefusalAllocationBudget(t *testing.T) {
	a, _ := newTestAllocator(100 * sim.MiB)
	if _, err := a.Alloc(80 * sim.MiB); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.Alloc(80 * sim.MiB); err == nil {
			t.Fatal("Alloc on a full device succeeded")
		}
	})
	if allocs != 0 {
		t.Fatalf("a repeated refused Alloc allocates %v times, want 0", allocs)
	}
}

func TestNameResetPeaksAndFreeSizes(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	if a.Name() != "caching" {
		t.Fatalf("Name = %q", a.Name())
	}
	b1, _ := a.Alloc(16 * sim.MiB)
	b2, _ := a.Alloc(8 * sim.MiB)
	a.Free(b2)

	sizes := a.FreeBlockSizes()
	if len(sizes) == 0 {
		t.Fatal("no free block sizes after a free")
	}
	var total int64
	for _, s := range sizes {
		if s <= 0 {
			t.Fatalf("non-positive free size %d", s)
		}
		total += s
	}
	st := a.Stats()
	if total != st.Reserved-st.Active {
		t.Fatalf("free sizes sum %d != reserved-active %d", total, st.Reserved-st.Active)
	}

	a.ResetPeaks()
	st = a.Stats()
	if st.PeakActive != st.Active || st.PeakReserved != st.Reserved {
		t.Fatal("ResetPeaks did not restart peaks")
	}
	a.Free(b1)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
