package memalloc

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func newNative(capacity int64) (*Native, *cuda.Driver) {
	dev := gpu.NewDevice("test", capacity)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	return NewNative(drv), drv
}

func TestNativeAllocFree(t *testing.T) {
	n, drv := newNative(sim.GiB)
	b, err := n.Alloc(100 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if b.BlockSize != 100*sim.MiB {
		t.Fatalf("buffer block size %d", b.BlockSize)
	}
	st := n.Stats()
	if st.Active != 100*sim.MiB || st.Reserved != 100*sim.MiB {
		t.Fatalf("stats %+v", st)
	}
	n.Free(b)
	st = n.Stats()
	if st.Active != 0 || st.Reserved != 0 {
		t.Fatalf("stats after free %+v", st)
	}
	if free, total := drv.MemGetInfo(); free != total {
		t.Fatal("device not free")
	}
}

// TestBufferHandleSize pins the handle every Alloc returns to 32 bytes:
// that is what packs a full slab of 255 handles plus Go's 8-byte malloc
// header into the 8 KiB size class (handleSlab). One more field would cost
// every allocation in every workload half as much heap again.
func TestBufferHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Buffer{}); got != 32 {
		t.Fatalf("Buffer is %d bytes, want 32", got)
	}
}

// TestHandlesSlabs: Handles issues each handle once, with the fields it was
// given, from slabs of 15, 31, 63, 127 and then 255 handles.
func TestHandlesSlabs(t *testing.T) {
	var h Handles
	seen := map[*Buffer]bool{}
	var caps []int
	for i := range 1000 {
		b := h.New(cuda.DevicePtr(i), int64(i), i)
		if seen[b] || b.Ptr != cuda.DevicePtr(i) || b.BlockSize != int64(i) || b.Impl() != i {
			t.Fatalf("handle %d: reissued %v, fields %+v", i, seen[b], *b)
		}
		seen[b] = true
		if len(h.slab) == 1 {
			caps = append(caps, cap(h.slab))
		}
	}
	if want := []int{15, 31, 63, 127, 255, 255, 255}; !slices.Equal(caps, want) {
		t.Fatalf("slab sizes %v, want %v", caps, want)
	}
}

func TestNativeOOM(t *testing.T) {
	n, _ := newNative(10 * sim.MiB)
	if _, err := n.Alloc(11 * sim.MiB); !errors.Is(err, cuda.ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestNativeEveryAllocHitsDriver(t *testing.T) {
	n, drv := newNative(sim.GiB)
	for i := 0; i < 10; i++ {
		b, err := n.Alloc(sim.MiB)
		if err != nil {
			t.Fatal(err)
		}
		n.Free(b)
	}
	c := drv.Counters()
	if c.Malloc != 10 || c.Free != 10 {
		t.Fatalf("driver calls %d/%d, want 10/10 (no caching)", c.Malloc, c.Free)
	}
}

func TestStatsUtilization(t *testing.T) {
	tests := []struct {
		s    Stats
		util float64
	}{
		{Stats{}, 1},
		{Stats{PeakActive: 50, PeakReserved: 100}, 0.5},
		{Stats{PeakActive: 100, PeakReserved: 100}, 1},
		{Stats{PeakActive: 20, PeakReserved: 60}.Add(Stats{PeakActive: 30, PeakReserved: 40}), 0.5},
	}
	for _, tt := range tests {
		if got := tt.s.Utilization(); got != tt.util {
			t.Errorf("Utilization(%+v) = %v, want %v", tt.s, got, tt.util)
		}
		if got := tt.s.Fragmentation(); got != 1-tt.util {
			t.Errorf("Fragmentation(%+v) = %v", tt.s, got)
		}
	}
	sum := Stats{1, 2, 3, 4, 5, 6}.Add(Stats{10, 20, 30, 40, 50, 60})
	if want := (Stats{11, 22, 33, 44, 55, 66}); sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
}

func TestAccountingPeaks(t *testing.T) {
	var a Accounting
	a.OnReserve(100)
	a.OnAlloc(60)
	a.OnAlloc(30)
	a.OnFree(60)
	a.OnAlloc(10)
	st := a.Stats()
	if st.Active != 40 || st.PeakActive != 90 {
		t.Fatalf("active %d peak %d, want 40/90", st.Active, st.PeakActive)
	}
	if st.Reserved != 100 || st.PeakReserved != 100 {
		t.Fatalf("reserved %d peak %d", st.Reserved, st.PeakReserved)
	}
	a.OnRelease(50)
	a.ResetPeaks()
	st = a.Stats()
	if st.PeakActive != 40 || st.PeakReserved != 50 {
		t.Fatalf("after ResetPeaks: %+v", st)
	}
	if st.AllocCount != 3 || st.FreeCount != 1 {
		t.Fatalf("counts %d/%d", st.AllocCount, st.FreeCount)
	}
}

func TestAccountingQuick(t *testing.T) {
	// Peaks never decrease and always bound current values during an
	// arbitrary alloc/free sequence.
	f := func(ops []int16) bool {
		var a Accounting
		var live int64
		for _, op := range ops {
			size := int64(op)%512 + 1
			if size <= 0 {
				size = -size + 1
			}
			if op >= 0 {
				a.OnReserve(size)
				a.OnAlloc(size)
				live += size
			} else if live > 0 {
				if size > live {
					size = live
				}
				a.OnFree(size)
				a.OnRelease(size)
				live -= size
			}
			st := a.Stats()
			if st.PeakActive < st.Active || st.PeakReserved < st.Reserved {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferImpl(t *testing.T) {
	b := &Buffer{}
	if b.Impl() != nil {
		t.Fatal("fresh buffer has impl")
	}
	b.SetImpl(42)
	if b.Impl() != 42 {
		t.Fatal("impl roundtrip failed")
	}
}
