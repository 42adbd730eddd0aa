package expandable

import (
	"errors"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

func newCompactAllocator(capacity int64) (*Allocator, *cuda.Driver) {
	dev := gpu.NewDevice("test", capacity)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	return NewCompact(drv), drv
}

// fragment interleaves eight 96 MiB and eight 32 MiB blocks and frees the
// 96 MiB ones: 768 MiB free, in holes of 96 MiB. It returns the kept
// buffers and the address of the arena's first block.
func fragment(t *testing.T, a *Allocator) (keep []*memalloc.Buffer, base cuda.DevicePtr) {
	t.Helper()
	var junk []*memalloc.Buffer
	for i := 0; i < 8; i++ {
		junk = append(junk, mustAlloc(t, a, 96*sim.MiB))
		keep = append(keep, mustAlloc(t, a, 32*sim.MiB))
	}
	for _, b := range junk {
		a.Free(b)
	}
	return keep, junk[0].Ptr
}

func TestCompactionDefeatsFragmentation(t *testing.T) {
	// Request more than any single hole: compaction must fire and serve it
	// without growing the arena.
	a, _ := newCompactAllocator(4 * sim.GiB)
	keep, _ := fragment(t, a)
	reserved := a.Stats().Reserved
	big := mustAlloc(t, a, 512*sim.MiB) // bigger than any 96 MiB hole
	if a.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", a.Compactions())
	}
	if got := a.Stats().Reserved; got != reserved {
		t.Fatalf("reserved grew %d -> %d; compaction should reuse holes", reserved, got)
	}
	if a.MovedBytes() == 0 {
		t.Fatal("compaction moved nothing")
	}
	a.Free(big)
	for _, b := range keep {
		a.Free(b)
	}
	checkInv(t, a)
}

func TestCompactionChargesCopyTime(t *testing.T) {
	a, drv := newCompactAllocator(4 * sim.GiB)
	keep, _ := fragment(t, a)
	before := drv.Clock().Now()
	big := mustAlloc(t, a, 512*sim.MiB)
	elapsed := drv.Clock().Now() - before
	if elapsed < SyncStall {
		t.Fatalf("compaction took %v, below the sync stall %v", elapsed, SyncStall)
	}
	a.Free(big)
	for _, b := range keep {
		a.Free(b)
	}
}

// TestCompactionRewritesLivePointers: blocks slide, so every live buffer's
// Ptr must slide with its block — afterwards the live [Ptr, Ptr+BlockSize)
// ranges are pairwise disjoint and inside the mapped prefix.
func TestCompactionRewritesLivePointers(t *testing.T) {
	a, _ := newCompactAllocator(4 * sim.GiB)
	live, base := fragment(t, a)
	live = append(live, mustAlloc(t, a, 512*sim.MiB))
	if a.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", a.Compactions())
	}
	end := base + cuda.DevicePtr(a.Frontier())
	for i, b := range live {
		if b.Ptr < base || b.Ptr+cuda.DevicePtr(b.BlockSize) > end {
			t.Errorf("buffer %d [%#x, +%d) outside the mapped prefix [%#x, %#x)", i, b.Ptr, b.BlockSize, base, end)
		}
		for j, c := range live[:i] {
			if b.Ptr < c.Ptr+cuda.DevicePtr(c.BlockSize) && c.Ptr < b.Ptr+cuda.DevicePtr(b.BlockSize) {
				t.Errorf("buffers %d [%#x, +%d) and %d [%#x, +%d) overlap", j, c.Ptr, c.BlockSize, i, b.Ptr, b.BlockSize)
			}
		}
	}
	checkInv(t, a)
	for _, b := range live {
		a.Free(b)
	}
	checkInv(t, a)
}

func TestNoCompactionWhenFitExists(t *testing.T) {
	a, _ := newCompactAllocator(sim.GiB)
	b1 := mustAlloc(t, a, 100*sim.MiB)
	a.Free(b1)
	b2 := mustAlloc(t, a, 64*sim.MiB)
	if a.Compactions() != 0 {
		t.Fatal("compaction ran despite a fitting free block")
	}
	a.Free(b2)
	checkInv(t, a)
}

func TestGrowWhenFreeInsufficient(t *testing.T) {
	a, _ := newCompactAllocator(sim.GiB)
	b1 := mustAlloc(t, a, 100*sim.MiB)
	// Nothing free: must extend, not compact.
	b2 := mustAlloc(t, a, 100*sim.MiB)
	if a.Compactions() != 0 {
		t.Fatal("pointless compaction")
	}
	if a.Stats().Reserved != 200*sim.MiB {
		t.Fatalf("Reserved = %d", a.Stats().Reserved)
	}
	a.Free(b1)
	a.Free(b2)
	checkInv(t, a)
}

func TestCompactOOM(t *testing.T) {
	a, _ := newCompactAllocator(256 * sim.MiB)
	b := mustAlloc(t, a, 200*sim.MiB)
	if _, err := a.Alloc(100 * sim.MiB); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
	a.Free(b)
}

func TestEmptyCacheTrims(t *testing.T) {
	a, drv := newCompactAllocator(sim.GiB)
	b := mustAlloc(t, a, 128*sim.MiB)
	a.Free(b)
	a.EmptyCache()
	if a.Stats().Reserved != 0 {
		t.Fatalf("Reserved = %d after trim", a.Stats().Reserved)
	}
	if free, total := drv.MemGetInfo(); free != total {
		t.Fatal("device not free")
	}
	checkInv(t, a)
}

func TestSmallPoolPath(t *testing.T) {
	a, _ := newCompactAllocator(sim.GiB)
	b := mustAlloc(t, a, 64*sim.KiB)
	a.Free(b)
	if st := a.Stats(); st.Active != 0 {
		t.Fatalf("Active = %d", st.Active)
	}
}

func TestCompactNameAndResetPeaks(t *testing.T) {
	a, _ := newCompactAllocator(sim.GiB)
	if a.Name() != "compact" {
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
