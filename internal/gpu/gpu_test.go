package gpu

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRangeAllocatorBasic(t *testing.T) {
	a := NewRangeAllocator(1024, 64)
	off1, err := a.Alloc(100) // rounds to 128
	if err != nil {
		t.Fatal(err)
	}
	off2, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if off1 == off2 {
		t.Fatal("overlapping allocations")
	}
	if a.Free() != 1024-128-64 {
		t.Fatalf("Free = %d, want %d", a.Free(), 1024-128-64)
	}
	a.FreeRange(off1, 100)
	a.FreeRange(off2, 64)
	if a.Free() != 1024 {
		t.Fatalf("Free after release = %d, want 1024", a.Free())
	}
	if a.FragmentCount() != 1 {
		t.Fatalf("fragments = %d, want 1 (coalesced)", a.FragmentCount())
	}
}

func TestRangeAllocatorExhaustion(t *testing.T) {
	a := NewRangeAllocator(256, 64)
	if _, err := a.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); !errors.Is(err, ErrSpaceExhausted) {
		t.Fatalf("err = %v, want ErrSpaceExhausted", err)
	}
}

func TestRangeAllocatorBestFit(t *testing.T) {
	a := NewRangeAllocator(1024, 64)
	// Carve: [0,256) [256,512) [512,1024), then free the middle and last.
	o1, _ := a.Alloc(256)
	o2, _ := a.Alloc(256)
	o3, _ := a.Alloc(512)
	_ = o1
	a.FreeRange(o2, 256)
	a.FreeRange(o3, 512)
	// Best fit for 192 should come from the 256-range at o2, not the 512.
	got, err := a.Alloc(192)
	if err != nil {
		t.Fatal(err)
	}
	if got != o2 {
		t.Fatalf("best-fit offset = %d, want %d", got, o2)
	}
}

func TestRangeAllocatorCoalesceMiddle(t *testing.T) {
	a := NewRangeAllocator(3*64, 64)
	o1, _ := a.Alloc(64)
	o2, _ := a.Alloc(64)
	o3, _ := a.Alloc(64)
	a.FreeRange(o1, 64)
	a.FreeRange(o3, 64)
	if a.FragmentCount() != 2 {
		t.Fatalf("fragments = %d, want 2", a.FragmentCount())
	}
	a.FreeRange(o2, 64) // middle free must merge both sides
	if a.FragmentCount() != 1 {
		t.Fatalf("fragments = %d, want 1 after middle free", a.FragmentCount())
	}
	if a.LargestFree() != 3*64 {
		t.Fatalf("LargestFree = %d, want %d", a.LargestFree(), 3*64)
	}
}

func TestRangeAllocatorDoubleFreePanics(t *testing.T) {
	a := NewRangeAllocator(1024, 64)
	off, _ := a.Alloc(128)
	a.FreeRange(off, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.FreeRange(off, 128)
}

// TestRangeAllocatorProperty drives random alloc/free cycles and checks that
// no two live ranges overlap and that full release restores a single free
// fragment.
func TestRangeAllocatorProperty(t *testing.T) {
	rng := sim.NewRNG(99)
	a := NewRangeAllocator(1<<20, 256)
	type live struct{ off, size int64 }
	var lives []live
	for step := 0; step < 3000; step++ {
		if rng.Float64() < 0.6 {
			size := int64(rng.Intn(8192) + 1)
			off, err := a.Alloc(size)
			if err != nil {
				continue
			}
			rounded := ((size + 255) / 256) * 256
			for _, l := range lives {
				if off < l.off+l.size && l.off < off+rounded {
					t.Fatalf("overlap: [%d,%d) with [%d,%d)", off, off+rounded, l.off, l.off+l.size)
				}
			}
			lives = append(lives, live{off, rounded})
		} else if len(lives) > 0 {
			i := rng.Intn(len(lives))
			a.FreeRange(lives[i].off, lives[i].size)
			lives = append(lives[:i], lives[i+1:]...)
		}
	}
	for _, l := range lives {
		a.FreeRange(l.off, l.size)
	}
	if a.Free() != 1<<20 {
		t.Fatalf("Free = %d, want %d", a.Free(), 1<<20)
	}
	if a.FragmentCount() != 1 {
		t.Fatalf("fragments = %d, want 1", a.FragmentCount())
	}
}

func TestRangeAllocatorQuick(t *testing.T) {
	// Allocations rounded to granule never exceed span and always align.
	f := func(sizes []uint16) bool {
		a := NewRangeAllocator(1<<18, 128)
		for _, s := range sizes {
			size := int64(s%4096) + 1
			off, err := a.Alloc(size)
			if err != nil {
				return true // exhaustion is fine
			}
			if off%128 != 0 || off+size > 1<<18 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDevicePhysicalLedger(t *testing.T) {
	d := NewDevice("a100-0", 80*sim.GiB)
	id1, err := d.AllocPhysical(30 * sim.GiB)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.AllocPhysical(50 * sim.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocPhysical(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-capacity alloc err = %v, want ErrOutOfMemory", err)
	}
	if d.Used() != 80*sim.GiB || d.FreeBytes() != 0 {
		t.Fatalf("Used = %d, Free = %d", d.Used(), d.FreeBytes())
	}
	d.FreePhysical(id1)
	if d.Used() != 50*sim.GiB {
		t.Fatalf("Used after free = %d", d.Used())
	}
	if d.PeakUsed() != 80*sim.GiB {
		t.Fatalf("PeakUsed = %d, want 80GiB", d.PeakUsed())
	}
	d.FreePhysical(id2)
	if d.LiveSegments() != 0 {
		t.Fatalf("LiveSegments = %d, want 0", d.LiveSegments())
	}
	d.ResetPeak()
	if d.PeakUsed() != 0 {
		t.Fatalf("PeakUsed after ResetPeak = %d, want 0", d.PeakUsed())
	}
}

func TestDeviceFreeUnknownPanics(t *testing.T) {
	d := NewDevice("x", sim.GiB)
	defer func() {
		if recover() == nil {
			t.Fatal("FreePhysical(unknown) did not panic")
		}
	}()
	d.FreePhysical(12345)
}

func TestDeviceVAReservations(t *testing.T) {
	d := NewDevice("x", sim.GiB)
	a1, err := d.ReserveVA(10 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.ReserveVA(10 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("overlapping VA reservations")
	}
	if a1%uint64(VAGranule) != 0 || a2%uint64(VAGranule) != 0 {
		t.Fatal("VA not aligned to granule")
	}
	d.ReleaseVA(a1, 10*sim.MiB)
	d.ReleaseVA(a2, 10*sim.MiB)
	if d.VAFragments() != 1 {
		t.Fatalf("VA fragments = %d, want 1", d.VAFragments())
	}
}

func TestDeviceSegmentSize(t *testing.T) {
	d := NewDevice("x", sim.GiB)
	id, _ := d.AllocPhysical(2 * sim.MiB)
	if size, ok := d.SegmentSize(id); !ok || size != 2*sim.MiB {
		t.Fatalf("SegmentSize = %d, %v", size, ok)
	}
	if _, ok := d.SegmentSize(9999); ok {
		t.Fatal("SegmentSize of unknown id should report !ok")
	}
}

func TestDeviceAccessors(t *testing.T) {
	d := NewDevice("a100", sim.GiB)
	if d.Name() != "a100" || d.Capacity() != sim.GiB {
		t.Fatalf("accessors: %q %d", d.Name(), d.Capacity())
	}
	ra := NewRangeAllocator(sim.GiB, 512)
	if ra.Span() != sim.GiB {
		t.Fatalf("Span = %d", ra.Span())
	}
}

// TestRangeAllocatorAllocationFree pins the recycling of free-range records:
// once warm, an Alloc that splits a range and the FreeRange that merges it
// back allocate nothing, with and without a live neighbour on either side.
func TestRangeAllocatorAllocationFree(t *testing.T) {
	a := NewRangeAllocator(1<<20, 64)
	left, _ := a.Alloc(256)
	hole, _ := a.Alloc(512)
	right, _ := a.Alloc(256)
	a.FreeRange(hole, 512)
	cycle := func() {
		for _, size := range []int64{512, 128, 4096} {
			off, err := a.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			a.FreeRange(off, size)
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm Alloc/FreeRange cycle allocates %v times, want 0", n)
	}
	a.FreeRange(left, 256)
	a.FreeRange(right, 256)
	if a.FragmentCount() != 1 || a.Free() != 1<<20 {
		t.Fatalf("%d fragments, %d free after releasing everything", a.FragmentCount(), a.Free())
	}
}

// TestRefusalShared pins the shared refusal: an AllocPhysical refused
// exactly as the previous one returns the same error without allocating,
// and any other refusal gets its own.
func TestRefusalShared(t *testing.T) {
	d := NewDevice("x", 8*sim.MiB)
	if _, err := d.AllocPhysical(6 * sim.MiB); err != nil {
		t.Fatal(err)
	}
	_, first := d.AllocPhysical(4 * sim.MiB)
	var again error
	if n := testing.AllocsPerRun(100, func() { _, again = d.AllocPhysical(4 * sim.MiB) }); n != 0 {
		t.Fatalf("a repeated refusal allocates %v times, want 0", n)
	}
	if again != first || !errors.Is(again, ErrOutOfMemory) {
		t.Fatalf("repeated refusal = %v (%p), first %v (%p)", again, again, first, first)
	}
	_, other := d.AllocPhysical(3 * sim.MiB)
	if other == first || other.Error() != "gpu: out of device memory: want 3145728, free 2097152" {
		t.Fatalf("a different refusal = %v, shared with %v", other, first)
	}
	if _, err := d.AllocPhysical(sim.MiB); err != nil {
		t.Fatal(err)
	}
	_, smaller := d.AllocPhysical(4 * sim.MiB)
	if smaller == first || smaller.Error() != "gpu: out of device memory: want 4194304, free 1048576" {
		t.Fatalf("the same request on less free memory = %v, shared with %v", smaller, first)
	}
	if first.Error() != "gpu: out of device memory: want 4194304, free 2097152" {
		t.Fatalf("the first refusal changed to %v", first)
	}
}
