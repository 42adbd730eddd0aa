package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

func newTestAllocator(capacity int64) (*Allocator, *cuda.Driver) {
	dev := gpu.NewDevice("test", capacity)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	return NewDefault(drv), drv
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

func TestAllocFreeExactReuse(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 100*sim.MiB)
	creates := drv.Counters().MemCreate
	a.Free(b)
	// Same-size realloc must be an S1 exact match: no new physical chunks.
	b2 := mustAlloc(t, a, 100*sim.MiB)
	if drv.Counters().MemCreate != creates {
		t.Fatal("exact-match realloc created new physical chunks")
	}
	if b2.Ptr != b.Ptr {
		t.Fatal("exact match should reuse the same pBlock")
	}
	s1, _, _, s4 := a.StrategyCounts()
	if s1 != 1 || s4 != 1 {
		t.Fatalf("strategy counts s1=%d s4=%d, want 1 and 1", s1, s4)
	}
	a.Free(b2)
	checkInv(t, a)
}

func TestSplitS2(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	big := mustAlloc(t, a, 400*sim.MiB)
	a.Free(big)
	// Smaller request: S2 splits the 400 MiB pBlock.
	small := mustAlloc(t, a, 150*sim.MiB)
	_, s2, _, _ := a.StrategyCounts()
	if s2 != 1 {
		t.Fatalf("s2 = %d, want 1", s2)
	}
	if small.BlockSize != 150*sim.MiB {
		t.Fatalf("BlockSize = %d, want exact 150 MiB after split", small.BlockSize)
	}
	// Reserved must not have grown: the split reused physical chunks.
	if got := a.Stats().Reserved; got != 400*sim.MiB {
		t.Fatalf("Reserved = %d, want 400 MiB", got)
	}
	// The Figure 9 S2 side effect: the two halves were stitched into an
	// sBlock preserving the original 400 MiB size.
	if a.SBlockCount() != 1 {
		t.Fatalf("SBlockCount = %d, want 1", a.SBlockCount())
	}
	a.Free(small)
	// Now a 400 MiB request exact-matches the preserved sBlock (S1).
	again := mustAlloc(t, a, 400*sim.MiB)
	s1, _, _, s4 := a.StrategyCounts()
	if s1 != 1 {
		t.Fatalf("s1 = %d, want 1 (sBlock exact match)", s1)
	}
	if s4 != 1 {
		t.Fatalf("s4 = %d, want 1 (only the first allocation)", s4)
	}
	a.Free(again)
	checkInv(t, a)
}

func TestStitchS3(t *testing.T) {
	a, dev := newTestAllocator(sim.GiB)
	// Create two separated 200 MiB pBlocks.
	b1 := mustAlloc(t, a, 200*sim.MiB)
	b2 := mustAlloc(t, a, 200*sim.MiB)
	a.Free(b1)
	a.Free(b2)
	// A 400 MiB request cannot be served by either alone: S3 stitches both.
	big := mustAlloc(t, a, 400*sim.MiB)
	_, _, s3, _ := a.StrategyCounts()
	if s3 != 1 {
		t.Fatalf("s3 = %d, want 1", s3)
	}
	// No new physical memory: reserved stays 400 MiB and the device agrees.
	if got := a.Stats().Reserved; got != 400*sim.MiB {
		t.Fatalf("Reserved = %d, want 400 MiB (stitching allocates nothing)", got)
	}
	if used := dev.Device().Used(); used != 400*sim.MiB {
		t.Fatalf("device Used = %d, want 400 MiB", used)
	}
	a.Free(big)
	checkInv(t, a)
}

func TestStitchS3WithTrim(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b1 := mustAlloc(t, a, 200*sim.MiB)
	b2 := mustAlloc(t, a, 300*sim.MiB)
	a.Free(b1)
	a.Free(b2)
	// 440 MiB needs both blocks but only part of the second: trim split.
	big := mustAlloc(t, a, 440*sim.MiB)
	if big.BlockSize != 440*sim.MiB {
		t.Fatalf("BlockSize = %d, want exact 440 MiB", big.BlockSize)
	}
	if got := a.Stats().Reserved; got != 500*sim.MiB {
		t.Fatalf("Reserved = %d, want 500 MiB", got)
	}
	a.Free(big)
	checkInv(t, a)
	// The 60 MiB trim remainder must be reusable.
	rest := mustAlloc(t, a, 60*sim.MiB)
	if got := a.Stats().Reserved; got != 500*sim.MiB {
		t.Fatalf("Reserved grew to %d reusing the trim remainder", got)
	}
	a.Free(rest)
	checkInv(t, a)
}

func TestInsufficientS4StitchesWithNew(t *testing.T) {
	a, _ := newTestAllocator(2 * sim.GiB)
	b1 := mustAlloc(t, a, 200*sim.MiB)
	a.Free(b1)
	// 500 MiB: the free 200 MiB pBlock is insufficient; S4 allocates the
	// 300 MiB deficit and stitches.
	big := mustAlloc(t, a, 500*sim.MiB)
	_, _, _, s4 := a.StrategyCounts()
	if s4 != 2 { // first allocation + this one
		t.Fatalf("s4 = %d, want 2", s4)
	}
	// Reserved grew only by the deficit.
	if got := a.Stats().Reserved; got != 500*sim.MiB {
		t.Fatalf("Reserved = %d, want 500 MiB (200 reused + 300 new)", got)
	}
	a.Free(big)
	checkInv(t, a)
}

func TestFragmentationDefeated(t *testing.T) {
	// The paper's Figure 1: free blocks individually too small for a new
	// request. The caching allocator would cudaMalloc more; GMLake stitches
	// and reserved memory does not grow.
	a, _ := newTestAllocator(4 * sim.GiB)
	var bufs []*memalloc.Buffer
	for i := 0; i < 8; i++ {
		bufs = append(bufs, mustAlloc(t, a, 256*sim.MiB))
	}
	reserved := a.Stats().Reserved
	if reserved != 2*sim.GiB {
		t.Fatalf("Reserved = %d, want 2 GiB", reserved)
	}
	for _, b := range bufs {
		a.Free(b)
	}
	// One 2 GiB request over eight scattered 256 MiB blocks.
	big := mustAlloc(t, a, 2*sim.GiB)
	if got := a.Stats().Reserved; got != reserved {
		t.Fatalf("Reserved grew from %d to %d; stitching should defeat fragmentation", reserved, got)
	}
	a.Free(big)
	checkInv(t, a)
}

func TestConvergence(t *testing.T) {
	// §5.4: after a warm-up iteration, a repeating allocation pattern must
	// be served entirely by S1 exact matches.
	a, drv := newTestAllocator(8 * sim.GiB)
	sizes := []int64{512 * sim.MiB, 100 * sim.MiB, 257 * sim.MiB, 64 * sim.MiB, 1 * sim.GiB}

	iteration := func() {
		var bufs []*memalloc.Buffer
		for _, s := range sizes {
			bufs = append(bufs, mustAlloc(t, a, s))
		}
		for _, b := range bufs {
			a.Free(b)
		}
	}
	iteration() // warm-up
	s1Before, _, _, _ := a.StrategyCounts()
	creates := drv.Counters().MemCreate
	for i := 0; i < 10; i++ {
		iteration()
	}
	s1After, s2, s3, s4 := a.StrategyCounts()
	if got, want := s1After-s1Before, int64(10*len(sizes)); got != want {
		t.Fatalf("S1 hits after warm-up = %d, want %d (s2=%d s3=%d s4=%d)", got, want, s2, s3, s4)
	}
	if drv.Counters().MemCreate != creates {
		t.Fatal("steady state created new physical chunks")
	}
	checkInv(t, a)
}

func TestSmallRequestsUseSplittingPath(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	// Sub-2MiB requests must not consume VMM machinery (paper §3.1).
	var bufs []*memalloc.Buffer
	for i := 0; i < 50; i++ {
		bufs = append(bufs, mustAlloc(t, a, 100*sim.KiB))
	}
	if drv.Counters().AddressReserve != 0 {
		t.Fatal("small requests used the VMM path")
	}
	if drv.Counters().Malloc == 0 {
		t.Fatal("small requests should use cudaMalloc'd caching segments")
	}
	for _, b := range bufs {
		a.Free(b)
	}
	if st := a.Stats(); st.Active != 0 {
		t.Fatalf("Active = %d after freeing small buffers", st.Active)
	}
}

func TestStitchBelowFragLimitFallback(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	// Blocks below the 128 MiB FragLimit are not first-choice stitch
	// candidates, but when the request cannot be covered otherwise the
	// second BestFit pass must stitch them rather than allocate new
	// physical memory (let alone OOM).
	var bufs []*memalloc.Buffer
	for i := 0; i < 10; i++ {
		bufs = append(bufs, mustAlloc(t, a, 100*sim.MiB))
	}
	for _, b := range bufs {
		a.Free(b)
	}
	big := mustAlloc(t, a, 800*sim.MiB)
	if got := a.Stats().Reserved; got != 1000*sim.MiB {
		t.Fatalf("Reserved = %d, want 1000 MiB (no new physical)", got)
	}
	if a.GCRuns() != 0 {
		t.Fatalf("GCRuns = %d, want 0", a.GCRuns())
	}
	a.Free(big)
	checkInv(t, a)
}

func TestOOMThenGC(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	// Fill the device through the embedded small-request pool, whose cached
	// cudaMalloc segments are not stitchable. A large VMM request must
	// trigger the GC fallback, which flushes that cache, and succeed.
	var bufs []*memalloc.Buffer
	for i := 0; i < 45; i++ {
		bufs = append(bufs, mustAlloc(t, a, int64(1900)*sim.KiB)) // ~45 * 2 MiB segments
	}
	for _, b := range bufs {
		a.Free(b)
	}
	// Small cache now holds ~90 MiB of cudaMalloc segments. A request for
	// nearly the whole device cannot create its pBlock until GC flushes it.
	big := mustAlloc(t, a, 960*sim.MiB)
	if a.GCRuns() == 0 {
		t.Fatal("expected a GC run")
	}
	a.Free(big)
	checkInv(t, a)
}

func TestHardOOM(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 900*sim.MiB)
	if _, err := a.Alloc(500 * sim.MiB); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory (S5)", err)
	}
	a.Free(b)
	checkInv(t, a)
}

func TestChunkRounding(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 3*sim.MiB+1)
	if b.BlockSize != 4*sim.MiB {
		t.Fatalf("BlockSize = %d, want 4 MiB (chunk-rounded)", b.BlockSize)
	}
	a.Free(b)
}

func TestFreeNeverReleasesPhysical(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 100*sim.MiB)
	rel := drv.Counters().MemRelease
	a.Free(b)
	if drv.Counters().MemRelease != rel {
		t.Fatal("Free released physical memory; deallocation must only update state")
	}
	if got := a.Stats().Reserved; got != 100*sim.MiB {
		t.Fatalf("Reserved = %d after free, want 100 MiB retained", got)
	}
}

func TestEmptyCache(t *testing.T) {
	a, drv := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 100*sim.MiB)
	a.Free(b)
	a.EmptyCache()
	if got := a.Stats().Reserved; got != 0 {
		t.Fatalf("Reserved = %d after EmptyCache", got)
	}
	if free, total := drv.MemGetInfo(); free != total {
		t.Fatalf("device not fully free: %d/%d", free, total)
	}
	if a.PBlockCount() != 0 || a.SBlockCount() != 0 {
		t.Fatalf("blocks leaked: p=%d s=%d", a.PBlockCount(), a.SBlockCount())
	}
	checkInv(t, a)
}

func TestEmptyCacheSparesActive(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	live := mustAlloc(t, a, 200*sim.MiB)
	dead := mustAlloc(t, a, 200*sim.MiB)
	a.Free(dead)
	a.EmptyCache()
	if got := a.Stats().Reserved; got != 200*sim.MiB {
		t.Fatalf("Reserved = %d, want live 200 MiB only", got)
	}
	a.Free(live)
	checkInv(t, a)
}

func TestStitchFreeLRUCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSBlocks = 4
	dev := gpu.NewDevice("test", 8*sim.GiB)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	a := New(drv, cfg)

	// Each cycle uses fresh sizes so convergence cannot reuse cached
	// sBlocks: new stitches accumulate until the cap forces StitchFree.
	for i := int64(0); i < 8; i++ {
		size := (150 + 10*i) * sim.MiB
		b1 := mustAlloc(t, a, size)
		b2 := mustAlloc(t, a, size)
		a.Free(b1)
		a.Free(b2)
		big := mustAlloc(t, a, 2*size)
		a.Free(big)
	}
	if a.SBlockCount() > cfg.MaxSBlocks {
		t.Fatalf("SBlockCount = %d exceeds cap %d", a.SBlockCount(), cfg.MaxSBlocks)
	}
	if a.StitchFreeCount() == 0 {
		t.Fatal("expected StitchFree evictions")
	}
	checkInv(t, a)
}

func TestDoubleFreePanics(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 10*sim.MiB)
	a.Free(b)
	defer func() {
		if got := recover(); got != "core: double Free" {
			t.Fatalf("second Free panicked with %v", got)
		}
	}()
	a.Free(b)
}

// TestStaleHandleAfterReuse frees a buffer, lets an exact match hand its
// pBlock or sBlock record to a new buffer, and frees the first buffer
// again: the stale handle must panic without touching the new owner.
func TestStaleHandleAfterReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int64
		kind string
		prep func(a *Allocator) // frees what the first Alloc is built from
	}{
		{"pBlock", 100 * sim.MiB, "*core.PBlock", func(*Allocator) {}},
		{"sBlock", 400 * sim.MiB, "*core.SBlock", func(a *Allocator) {
			b1, b2 := mustAlloc(t, a, 200*sim.MiB), mustAlloc(t, a, 200*sim.MiB)
			a.Free(b1)
			a.Free(b2) // the 400 MiB Alloc stitches the two
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := newTestAllocator(sim.GiB)
			tc.prep(a)
			bufA := mustAlloc(t, a, tc.size)
			rec := bufA.Impl()
			if got := fmt.Sprintf("%T", rec); got != tc.kind {
				t.Fatalf("the first Alloc is a %s, want a %s", got, tc.kind)
			}
			a.Free(bufA)
			bufB := mustAlloc(t, a, tc.size)
			if bufB.Impl() != rec {
				t.Fatal("the second Alloc did not reuse the first one's record")
			}
			if got := panicValue(func() { a.Free(bufA) }); got != "core: double Free" {
				t.Fatalf("Free of the stale handle panicked with %v", got)
			}
			if bufB.Impl() != rec || a.Stats().Active != bufB.BlockSize {
				t.Fatal("the stale Free changed the live buffer's state")
			}
			checkInv(t, a)
			// The record is still assigned: the same size gets another one.
			other := mustAlloc(t, a, tc.size)
			if other.Ptr == bufB.Ptr {
				t.Fatal("the stale Free released the live buffer's record")
			}
			a.Free(other)
			a.Free(bufB)
			checkInv(t, a)
		})
	}
}

// panicValue runs fn and returns what it panicked with, or nil.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestSharedChunkSingleTensor(t *testing.T) {
	// A pBlock's chunks may be reachable via several sBlocks, but only one
	// tensor may use them at a time (§3.3.1). After assigning a stitched
	// sBlock, its members and every overlapping sBlock must be unavailable.
	a, _ := newTestAllocator(2 * sim.GiB)
	b1 := mustAlloc(t, a, 200*sim.MiB)
	b2 := mustAlloc(t, a, 200*sim.MiB)
	b3 := mustAlloc(t, a, 200*sim.MiB)
	a.Free(b1)
	a.Free(b2)
	a.Free(b3)
	// Stitch p1+p2 (+p3 partially, depending on fit) into 400 MiB.
	big := mustAlloc(t, a, 400*sim.MiB)
	// Now request another 400 MiB: must NOT reuse any active member.
	big2 := mustAlloc(t, a, 400*sim.MiB)
	if big.Ptr == big2.Ptr {
		t.Fatal("same stitched block assigned twice")
	}
	// Total active is 800 MiB over 600 MiB of original blocks: at least
	// 200 MiB new physical was required.
	if got := a.Stats().Reserved; got < 800*sim.MiB {
		t.Fatalf("Reserved = %d < active 800 MiB: chunks double-booked", got)
	}
	a.Free(big)
	a.Free(big2)
	checkInv(t, a)
}

func TestRandomWorkloadInvariants(t *testing.T) {
	a, drv := newTestAllocator(8 * sim.GiB)
	rng := sim.NewRNG(777)
	var live []*memalloc.Buffer
	for step := 0; step < 3000; step++ {
		if rng.Float64() < 0.55 {
			var size int64
			switch rng.Intn(4) {
			case 0:
				size = int64(rng.Intn(int(2*sim.MiB)) + 1) // small path
			case 1:
				size = int64(rng.Intn(int(32*sim.MiB)) + 1)
			case 2:
				size = int64(rng.Intn(int(256*sim.MiB)) + 1)
			default:
				size = int64(rng.Intn(int(sim.GiB)) + 1)
			}
			b, err := a.Alloc(size)
			if err != nil {
				continue
			}
			live = append(live, b)
		} else if len(live) > 0 {
			i := rng.Intn(len(live))
			a.Free(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if step%300 == 0 {
			checkInv(t, a)
		}
	}
	for _, b := range live {
		a.Free(b)
	}
	checkInv(t, a)
	if st := a.Stats(); st.Active != 0 {
		t.Fatalf("leaked %d active bytes", st.Active)
	}
	a.EmptyCache()
	if free, total := drv.MemGetInfo(); free != total {
		t.Fatalf("device leak: %d of %d free", free, total)
	}
}

func TestStatsUtilization(t *testing.T) {
	a, _ := newTestAllocator(sim.GiB)
	b := mustAlloc(t, a, 100*sim.MiB)
	st := a.Stats()
	if st.Utilization() != 1 {
		t.Fatalf("Utilization = %v, want 1 (active == reserved)", st.Utilization())
	}
	if st.Fragmentation() != 0 {
		t.Fatalf("Fragmentation = %v, want 0", st.Fragmentation())
	}
	a.Free(b)
}

func TestAccessorsAndFreeBlockSizes(t *testing.T) {
	a, _ := newTestAllocator(4 * sim.GiB)
	if a.Name() != "gmlake" {
		t.Fatalf("Name = %q", a.Name())
	}
	b1, err := a.Alloc(64 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(32 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBlockSizes(); len(got) != 0 {
		t.Fatalf("free sizes with everything active: %v", got)
	}
	a.Free(b2)
	sizes := a.FreeBlockSizes()
	if len(sizes) != 1 || sizes[0] != 32*sim.MiB {
		t.Fatalf("free sizes = %v", sizes)
	}
	a.Free(b1)
	sizes = a.FreeBlockSizes()
	if len(sizes) != 2 || sizes[0] > sizes[1] {
		t.Fatalf("free sizes not ascending: %v", sizes)
	}

	a.ResetPeaks()
	st := a.Stats()
	if st.PeakActive != st.Active || st.PeakReserved != st.Reserved {
		t.Fatal("ResetPeaks did not restart peak tracking")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesCorruption gives the checker teeth: each
// corruption of a small stitched allocator — two 256 MiB pBlocks and one
// 512 MiB sBlock over them, all free — must fail CheckInvariants with the
// message of the rule it breaks.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(a *Allocator, p *PBlock)
		want    string
	}{
		{"pBlock removed from its class", func(a *Allocator, p *PBlock) {
			p.class.remove(p.slot)
		}, "pPool size classes hold 1 pBlocks, count is 2"},
		{"sBlock member not in the pPool", func(a *Allocator, p *PBlock) {
			// Unregistered with the books balanced, but still recording its
			// old class and slot: only the slot identity check can tell.
			class, slot := p.class, p.slot
			a.pblocks.remove(p)
			a.acct.OnRelease(p.size)
			p.class, p.slot = class, slot
		}, "sBlock member not in pPool"},
		{"stale slot", func(a *Allocator, p *PBlock) {
			p.slot = 1 - p.slot
		}, "misplaced"},
		{"flipped inactive bit", func(a *Allocator, p *PBlock) {
			p.class.clear(p.slot)
		}, "inactive bit is false while active is false"},
		{"live count off by one", func(a *Allocator, p *PBlock) {
			a.sblocks.count++
		}, "sPool size classes hold 1 sBlocks, count is 2"},
	}
	for _, tc := range cases {
		a, _ := newTestAllocator(4 * sim.GiB)
		b1 := mustAlloc(t, a, 256*sim.MiB)
		b2 := mustAlloc(t, a, 256*sim.MiB)
		a.Free(b1)
		a.Free(b2)
		a.Free(mustAlloc(t, a, 512*sim.MiB))
		checkInv(t, a)
		ss := sBlocks(a)
		if len(ss) != 1 || len(ss[0].members) != 2 || a.PBlockCount() != 2 {
			t.Fatalf("set-up: %d sBlocks over %d pBlocks, want one over two", len(ss), a.PBlockCount())
		}
		tc.corrupt(a, ss[0].members[0])
		if err := a.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestBlockAccessors(t *testing.T) {
	a, _ := newTestAllocator(4 * sim.GiB)
	// Force a stitch: two free pBlocks, then a request spanning both.
	b1, _ := a.Alloc(256 * sim.MiB)
	b2, _ := a.Alloc(256 * sim.MiB)
	a.Free(b1)
	a.Free(b2)
	big, err := a.Alloc(512 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	_, _, s3, _ := a.StrategyCounts()
	if s3 != 1 {
		t.Fatalf("expected one S3 stitch, got %d", s3)
	}
	// Walk the structures through the exported accessors.
	found := false
	for _, p := range pBlocks(a) {
		if p.Size() <= 0 {
			t.Fatalf("degenerate pBlock %d@%d", p.Size(), p.VA())
		}
		if len(p.owners) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no pBlock has a stitched owner")
	}
	for _, s := range sBlocks(a) {
		if s.Size() != 512*sim.MiB {
			t.Fatalf("sBlock %d@%d", s.Size(), s.VA())
		}
		if len(s.Members()) != 2 {
			t.Fatalf("sBlock members = %d", len(s.Members()))
		}
	}
	a.Free(big)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExactMatchAllocationBudget pins the S1 hot path to no heap allocation
// per Alloc+Free pair — the returned Buffer comes from the allocator's slab,
// one per 255 handles — for a plain pBlock and for an sBlock whose member
// pBlocks each carry at least 32 other stitched views.
func TestExactMatchAllocationBudget(t *testing.T) {
	pair := func(a *Allocator, size int64) func() {
		return func() {
			b, err := a.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			a.Free(b)
		}
	}

	a, _ := newTestAllocator(8 * sim.GiB)
	a.Free(mustAlloc(t, a, 256*sim.MiB))
	if n := testing.AllocsPerRun(200, pair(a, 256*sim.MiB)); n != 0 {
		t.Errorf("pBlock exact match: %.0f allocations per Alloc+Free, want 0", n)
	}

	// Two pBlocks, each stitched in turn with 32 one-chunk partners while
	// nothing else is free; taking the partner back leaves the view cached
	// over the pBlock. Then the pair is stitched into the sBlock under test.
	const views = 32
	a, _ = newTestAllocator(8 * sim.GiB)
	sizes := [2]int64{600 * sim.MiB, 700 * sim.MiB}
	held := [2]*memalloc.Buffer{mustAlloc(t, a, sizes[0]), mustAlloc(t, a, sizes[1])}
	var partners [2 * views]*memalloc.Buffer
	for i := range partners {
		partners[i] = mustAlloc(t, a, ChunkSize)
	}
	for m, size := range sizes {
		a.Free(held[m])
		for _, partner := range partners[m*views : (m+1)*views] {
			a.Free(partner)
			a.Free(mustAlloc(t, a, size+ChunkSize))
			mustAlloc(t, a, ChunkSize)
		}
		held[m] = mustAlloc(t, a, size)
	}
	a.Free(held[0])
	a.Free(held[1])
	a.Free(mustAlloc(t, a, sizes[0]+sizes[1]))

	s := a.sblocks.findExact(sizes[0] + sizes[1])
	if s == nil || len(s.members) != 2 {
		t.Fatalf("no cached two-member sBlock of %d bytes", sizes[0]+sizes[1])
	}
	for _, p := range s.members {
		if len(p.owners) <= views {
			t.Fatalf("member carries %d views, want more than %d", len(p.owners), views)
		}
	}
	s1Before, _, _, _ := a.StrategyCounts()
	if n := testing.AllocsPerRun(200, pair(a, s.size)); n != 0 {
		t.Errorf("sBlock exact match: %.0f allocations per Alloc+Free, want 0", n)
	}
	if s1After, _, _, _ := a.StrategyCounts(); s1After-s1Before < 200 {
		t.Fatalf("measured pairs were not all exact matches: S1 moved by %d", s1After-s1Before)
	}
	checkInv(t, a)
}

// TestStitchCycleAllocationBudget pins the record reuse of the S3 path: a
// warm cycle shaped like BenchmarkGMLakeStitch — two pBlocks freed, stitched
// by a request of their joint size, the view freed, the pools emptied —
// allocates nothing. Every pBlock, sBlock, LRU node and reservation comes
// from a retired record, and each list from a retired record's capacity
// (25 times per cycle when each was allocated anew).
func TestStitchCycleAllocationBudget(t *testing.T) {
	a, _ := newTestAllocator(8 * sim.GiB)
	cycle := func() {
		b1, b2 := mustAlloc(t, a, 128*sim.MiB), mustAlloc(t, a, 128*sim.MiB)
		a.Free(b1)
		a.Free(b2)
		a.Free(mustAlloc(t, a, 256*sim.MiB))
		a.EmptyCache()
	}
	_, _, s3Before, _ := a.StrategyCounts()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("stitch, free and EmptyCache: %.0f allocations per cycle, want 0", n)
	}
	if _, _, s3, _ := a.StrategyCounts(); s3-s3Before != 101 {
		t.Fatalf("%d of 101 cycles stitched", s3-s3Before)
	}
	checkInv(t, a)
}
