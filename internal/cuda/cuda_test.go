package cuda

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/gpu"
	"repro/internal/sim"
)

func newTestDriver(capacity int64) *Driver {
	dev := gpu.NewDevice("test", capacity)
	return NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
}

func TestMallocFree(t *testing.T) {
	d := newTestDriver(1 * sim.GiB)
	ptr, err := d.Malloc(256 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if free, total := d.MemGetInfo(); free != 768*sim.MiB || total != sim.GiB {
		t.Fatalf("MemGetInfo = %d/%d", free, total)
	}
	if err := d.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if free, _ := d.MemGetInfo(); free != sim.GiB {
		t.Fatalf("free after Free = %d", free)
	}
	if err := d.Free(ptr); err == nil {
		t.Fatal("double Free succeeded")
	}
}

func TestMallocOOM(t *testing.T) {
	d := newTestDriver(100 * sim.MiB)
	if _, err := d.Malloc(200 * sim.MiB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Failed Malloc must not leak VA or physical.
	if free, _ := d.MemGetInfo(); free != 100*sim.MiB {
		t.Fatalf("free after failed malloc = %d", free)
	}
}

func TestMallocChargesClock(t *testing.T) {
	d := newTestDriver(4 * sim.GiB)
	before := d.Clock().Now()
	if _, err := d.Malloc(2 * sim.GiB); err != nil {
		t.Fatal(err)
	}
	elapsed := d.Clock().Now() - before
	// Calibration pin: cudaMalloc(2 GiB) = 1 ms.
	if elapsed != d.Cost().CudaMalloc(2*sim.GiB) {
		t.Fatalf("elapsed = %v, want %v", elapsed, d.Cost().CudaMalloc(2*sim.GiB))
	}
}

func TestVMMLifecycle(t *testing.T) {
	d := newTestDriver(1 * sim.GiB)
	const size = 10 * sim.MiB // 5 chunks of 2 MiB

	va, err := d.MemAddressReserve(size)
	if err != nil {
		t.Fatal(err)
	}
	var handles []MemHandle
	for i := int64(0); i < 5; i++ {
		h, err := d.MemCreate(ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.MemMap(va+DevicePtr(i*ChunkGranularity), h); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := d.MemSetAccess(va, size); err != nil {
		t.Fatal(err)
	}
	if got := d.MappedBytes(); got != size {
		t.Fatalf("MappedBytes = %d, want %d", got, size)
	}
	if free, _ := d.MemGetInfo(); free != sim.GiB-size {
		t.Fatalf("free = %d", free)
	}

	// Release handles first: memory must stay until unmapped.
	for _, h := range handles {
		if err := d.MemRelease(h); err != nil {
			t.Fatal(err)
		}
	}
	if free, _ := d.MemGetInfo(); free != sim.GiB-size {
		t.Fatalf("free after release-before-unmap = %d, memory reclaimed too early", free)
	}
	if err := d.MemUnmap(va, size); err != nil {
		t.Fatal(err)
	}
	if free, _ := d.MemGetInfo(); free != sim.GiB {
		t.Fatalf("free after unmap = %d, want full capacity", free)
	}
	if err := d.MemAddressFree(va, size); err != nil {
		t.Fatal(err)
	}
	if d.LiveHandles() != 0 {
		t.Fatalf("LiveHandles = %d, want 0", d.LiveHandles())
	}
}

func TestVMMSharedMapping(t *testing.T) {
	// GMLake's core trick: the same physical chunk mapped from two VA
	// ranges (pBlock and sBlock). The chunk must survive until both
	// unmap, even after release.
	d := newTestDriver(1 * sim.GiB)
	h, err := d.MemCreate(ChunkGranularity)
	if err != nil {
		t.Fatal(err)
	}
	va1, _ := d.MemAddressReserve(ChunkGranularity)
	va2, _ := d.MemAddressReserve(ChunkGranularity)
	if err := d.MemMap(va1, h); err != nil {
		t.Fatal(err)
	}
	if err := d.MemMap(va2, h); err != nil {
		t.Fatal(err)
	}
	if err := d.MemRelease(h); err != nil {
		t.Fatal(err)
	}
	if err := d.MemUnmap(va1, ChunkGranularity); err != nil {
		t.Fatal(err)
	}
	if free, _ := d.MemGetInfo(); free == sim.GiB {
		t.Fatal("chunk reclaimed while still mapped from second VA")
	}
	if err := d.MemUnmap(va2, ChunkGranularity); err != nil {
		t.Fatal(err)
	}
	if free, _ := d.MemGetInfo(); free != sim.GiB {
		t.Fatalf("chunk not reclaimed after last unmap: free = %d", free)
	}
}

func TestVMMValidation(t *testing.T) {
	d := newTestDriver(1 * sim.GiB)

	if _, err := d.MemAddressReserve(sim.MiB); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("Reserve(1MiB) err = %v, want ErrInvalidValue (not chunk multiple)", err)
	}
	if _, err := d.MemCreate(sim.MiB); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("MemCreate(1MiB) err = %v, want ErrInvalidValue", err)
	}

	va, _ := d.MemAddressReserve(4 * sim.MiB)
	h, _ := d.MemCreate(2 * sim.MiB)
	if err := d.MemMap(va, h); err != nil {
		t.Fatal(err)
	}
	// Overlapping map of the same region must fail.
	h2, _ := d.MemCreate(2 * sim.MiB)
	if err := d.MemMap(va, h2); !errors.Is(err, ErrAlreadyMapped) {
		t.Errorf("overlapping MemMap err = %v, want ErrAlreadyMapped", err)
	}
	// Map outside any reservation must fail.
	if err := d.MemMap(DevicePtr(1<<48), h2); !errors.Is(err, ErrRangeNotFound) {
		t.Errorf("unreserved MemMap err = %v, want ErrRangeNotFound", err)
	}
	// AddressFree with live mappings must fail.
	if err := d.MemAddressFree(va, 4*sim.MiB); !errors.Is(err, ErrRangeStillUsed) {
		t.Errorf("MemAddressFree err = %v, want ErrRangeStillUsed", err)
	}
	// Map at an address off the reservation's granule grid must fail.
	va2, _ := d.MemAddressReserve(6 * sim.MiB)
	if err := d.MemMap(va2+DevicePtr(sim.MiB), h2); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("misaligned MemMap err = %v, want ErrInvalidValue", err)
	}
	// SetAccess over a hole must fail, and fail before it charges the clock,
	// counts a call or grants access to the part that is mapped.
	now, counters := d.Clock().Now(), d.Counters()
	if err := d.MemSetAccess(va, 4*sim.MiB); !errors.Is(err, ErrNotMapped) {
		t.Errorf("MemSetAccess over hole err = %v, want ErrNotMapped", err)
	}
	if d.Clock().Now() != now || d.Counters() != counters {
		t.Errorf("failed MemSetAccess moved the clock by %v, counters %+v -> %+v",
			d.Clock().Now()-now, counters, d.Counters())
	}
	if err := d.MemSetAccess(va, 2*sim.MiB); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().MemSet; got != counters.MemSet+1 {
		t.Errorf("MemSet = %d after the first successful MemSetAccess, want %d: the failed call granted access", got, counters.MemSet+1)
	}
	// Unmap of an unmapped region must fail.
	if err := d.MemUnmap(va+DevicePtr(2*sim.MiB), 2*sim.MiB); !errors.Is(err, ErrNotMapped) {
		t.Errorf("MemUnmap err = %v, want ErrNotMapped", err)
	}
	// Release twice must fail.
	if err := d.MemRelease(h2); err != nil {
		t.Fatal(err)
	}
	if err := d.MemRelease(h2); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("double MemRelease err = %v, want ErrInvalidHandle", err)
	}
	// Mapping a released handle must fail.
	if err := d.MemMap(va+DevicePtr(2*sim.MiB), h2); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("MemMap of released handle err = %v, want ErrInvalidHandle", err)
	}
}

// TestMemSetAccessGapAtEnd: a range whose mappings cover all but its last
// granule fails with ErrNotMapped after the one walk has already granted
// access to the mappings before the gap. The failed call must leave every
// access bit as it found it — the two it set cleared, the one set earlier
// kept — and charge no clock time and count no call.
func TestMemSetAccessGapAtEnd(t *testing.T) {
	d := newTestDriver(sim.GiB)
	va, err := d.MemAddressReserve(4 * ChunkGranularity)
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(0); g < 3; g++ {
		h, err := d.MemCreate(ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.MemMap(va+DevicePtr(g*ChunkGranularity), h); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.MemSetAccess(va+DevicePtr(ChunkGranularity), ChunkGranularity); err != nil {
		t.Fatal(err)
	}
	r := d.findReservation(va, 4*ChunkGranularity)
	bits := func() (b [4]bool) {
		for g := range b {
			b[g] = r.slots[g].ref&accessBit != 0
		}
		return b
	}
	now, counters, before := d.Clock().Now(), d.Counters(), bits()
	if err := d.MemSetAccess(va, 4*ChunkGranularity); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("MemSetAccess over a trailing gap err = %v, want ErrNotMapped", err)
	}
	if got := bits(); got != before {
		t.Errorf("access bits %v after the failed call, want %v", got, before)
	}
	if d.Clock().Now() != now || d.Counters() != counters {
		t.Errorf("failed MemSetAccess moved the clock by %v, counters %+v -> %+v",
			d.Clock().Now()-now, counters, d.Counters())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.MemSetAccess(va, 3*ChunkGranularity); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().MemSet; got != counters.MemSet+2 {
		t.Errorf("MemSet = %d after covering the three mappings, want %d", got, counters.MemSet+2)
	}
}

// TestCheckInvariantsCatchesCorruption gives the driver's checker teeth:
// each corruption of a small mapped state — a 4-granule reservation with a
// 2-granule handle mapped at its start and access set — must fail
// CheckInvariants with the message of the rule it breaks.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Driver, r *reservation)
		want    string
	}{
		{"free slot listed twice", func(d *Driver, r *reservation) {
			d.freeSlots = append(d.freeSlots, 0, 0)
		}, "free list holds slot 0 twice"},
		{"unmapped granule with state", func(d *Driver, r *reservation) {
			r.slots[3].ref = 1
		}, "unmapped slot 3 holds state"},
		{"broken continuation", func(d *Driver, r *reservation) {
			r.slots[1].span = -2
		}, "slot 1 is not granule 1"},
		{"live count off by one", func(d *Driver, r *reservation) {
			r.live++
		}, "live = 2, page table holds 1"},
		{"map count off by one", func(d *Driver, r *reservation) {
			d.handles[0].mapCount++
		}, "has mapCount 2, 1 mappings name it"},
		{"stale reservation memo", func(d *Driver, r *reservation) {
			d.last = &reservation{}
		}, "last-reservation memo"},
	}
	for _, tc := range cases {
		d := newTestDriver(sim.GiB)
		va, err := d.MemAddressReserve(4 * ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		h, err := d.MemCreate(2 * ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.MemMap(va, h); err != nil {
			t.Fatal(err)
		}
		if err := d.MemSetAccess(va, 2*ChunkGranularity); err != nil {
			t.Fatal(err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: set-up: %v", tc.name, err)
		}
		tc.corrupt(d, d.findReservation(va, 4*ChunkGranularity))
		if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestVMMCreateOOM(t *testing.T) {
	d := newTestDriver(4 * sim.MiB)
	h1, err := d.MemCreate(2 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.MemCreate(4 * sim.MiB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	_ = h1
}

func TestTable1Breakdown(t *testing.T) {
	// Allocating 2 GiB via 2 MiB chunks must cost ~115x a 2 GiB cudaMalloc
	// (Table 1 / Figure 6 headline).
	d := newTestDriver(8 * sim.GiB)

	sw := sim.StartStopwatch(d.Clock())
	mptr, err := d.Malloc(2 * sim.GiB)
	if err != nil {
		t.Fatal(err)
	}
	nativeCost := sw.Elapsed()
	if err := d.Free(mptr); err != nil {
		t.Fatal(err)
	}

	sw = sim.StartStopwatch(d.Clock())
	va, err := d.MemAddressReserve(2 * sim.GiB)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 2*sim.GiB; off += ChunkGranularity {
		h, err := d.MemCreate(ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.MemMap(va+DevicePtr(off), h); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.MemSetAccess(va, 2*sim.GiB); err != nil {
		t.Fatal(err)
	}
	vmmCost := sw.Elapsed()

	ratio := float64(vmmCost) / float64(nativeCost)
	if ratio < 100 || ratio > 130 {
		t.Fatalf("VMM/native ratio = %.1f, want ~115 (Table 1)", ratio)
	}
}

func TestCounters(t *testing.T) {
	d := newTestDriver(sim.GiB)
	ptr, _ := d.Malloc(2 * sim.MiB)
	_ = d.Free(ptr)
	va, _ := d.MemAddressReserve(2 * sim.MiB)
	h, _ := d.MemCreate(2 * sim.MiB)
	_ = d.MemMap(va, h)
	_ = d.MemSetAccess(va, 2*sim.MiB)
	_ = d.MemUnmap(va, 2*sim.MiB)
	_ = d.MemRelease(h)
	_ = d.MemAddressFree(va, 2*sim.MiB)

	c := d.Counters()
	want := Counters{
		Malloc: 1, Free: 1,
		AddressReserve: 1, AddressFree: 1,
		MemCreate: 1, MemRelease: 1,
		MemMap: 1, MemUnmap: 1, MemSet: 1,
		BytesAllocated: 4 * sim.MiB, BytesReleased: 4 * sim.MiB,
	}
	if c != want {
		t.Fatalf("Counters = %+v, want %+v", c, want)
	}
}

// TestStaleHandleAfterReuse releases a handle, lets MemCreate reissue its
// slot, and uses the old handle: it must stay invalid while the new one
// works.
func TestStaleHandleAfterReuse(t *testing.T) {
	d := newTestDriver(sim.GiB)
	va, err := d.MemAddressReserve(ChunkGranularity)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := d.MemCreate(ChunkGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.MemRelease(h1); err != nil {
		t.Fatal(err)
	}
	h2, err := d.MemCreate(ChunkGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 || uint32(h2) != uint32(h1) {
		t.Fatalf("handles %#x then %#x: want the same slot, a new handle", h1, h2)
	}
	if err := d.MemMap(va, h1); !errors.Is(err, ErrInvalidHandle) {
		t.Fatalf("MemMap of the stale handle = %v, want ErrInvalidHandle", err)
	}
	if err := d.MemRelease(h1); !errors.Is(err, ErrInvalidHandle) {
		t.Fatalf("MemRelease of the stale handle = %v, want ErrInvalidHandle", err)
	}
	if d.LiveHandles() != 1 {
		t.Fatalf("LiveHandles = %d, want 1", d.LiveHandles())
	}
	if err := d.MemMap(va, h2); err != nil {
		t.Fatal(err)
	}
	if err := d.MemUnmap(va, ChunkGranularity); err != nil {
		t.Fatal(err)
	}
	if err := d.MemRelease(h2); err != nil {
		t.Fatal(err)
	}
	if d.LiveHandles() != 0 {
		t.Fatalf("LiveHandles = %d, want 0", d.LiveHandles())
	}
}

// TestVMMCycleAllocationFree pins the recycling of handle and reservation
// records: once warm, a chunk's whole life (create, map, set access, unmap,
// release) allocates nothing, and nor does reserving and freeing a range of
// the size freed last, whose record and page table are reused.
func TestVMMCycleAllocationFree(t *testing.T) {
	const n = 4
	d := newTestDriver(sim.GiB)
	va, err := d.MemAddressReserve(n * ChunkGranularity)
	if err != nil {
		t.Fatal(err)
	}
	chunk := func() {
		var hs [n]MemHandle
		for i := range hs {
			h, err := d.MemCreate(ChunkGranularity)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.MemMap(va+DevicePtr(int64(i)*ChunkGranularity), h); err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		if err := d.MemSetAccess(va, n*ChunkGranularity); err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if err := d.MemRelease(h); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.MemUnmap(va, n*ChunkGranularity); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, chunk); got != 0 {
		t.Errorf("MemCreate/MemMap/MemUnmap/MemRelease: %.1f allocs per cycle, want 0", got)
	}
	if d.LiveHandles() != 0 || d.MappedBytes() != 0 {
		t.Fatalf("%d handles, %d bytes mapped after the cycle", d.LiveHandles(), d.MappedBytes())
	}
	reserve := func() {
		va, err := d.MemAddressReserve(n * ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.MemAddressFree(va, n*ChunkGranularity); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, reserve); got != 0 {
		t.Errorf("MemAddressReserve/MemAddressFree: %.1f allocs per cycle, want 0", got)
	}
}

// TestColdMemCreateAllocations pins that a cold MemCreate allocates no
// record: 4096 of them on a fresh driver allocate only as the handle table
// grows. The devices have held 4096 segments before, so their segment maps
// are already grown and the count is the driver's alone.
func TestColdMemCreateAllocations(t *testing.T) {
	const n = 4096
	// AllocsPerRun calls the function once to warm up, then once measured.
	var drivers []*Driver
	for range 2 {
		d := newTestDriver(n * ChunkGranularity)
		var segs [n]gpu.SegmentID
		for i := range segs {
			segs[i], _ = d.Device().AllocPhysical(ChunkGranularity)
		}
		for _, seg := range segs {
			d.Device().FreePhysical(seg)
		}
		drivers = append(drivers, d)
	}
	create := func() {
		d := drivers[0]
		drivers = drivers[1:]
		for range n {
			if _, err := d.MemCreate(ChunkGranularity); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(1, create); got > 20 {
		t.Errorf("%d cold MemCreates: %.0f allocations, want at most 20", n, got)
	}
}

// TestPageTableSlotLayout pins the page table's slot at 8 bytes, and the
// slot and the handle record free of pointers, so neither a page table nor
// the handle table is scanned by the garbage collector.
func TestPageTableSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 8 {
		t.Errorf("a page-table slot is %d bytes, want 8", n)
	}
	for _, v := range []any{slot{}, physical{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// pointerFree reports whether a value of type t holds no pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
