package cuda

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// refDriver is a deliberately naive model of the VMM half of Driver: a sorted
// slice of mappings per reservation, every lookup a linear scan. It states
// the semantics the page table has to keep, in the plainest form available.
type refDriver struct {
	cost    *sim.CostModel
	now     time.Duration
	c       Counters
	free    int64 // device bytes not held by a handle
	res     []*refReservation
	handles map[MemHandle]*refHandle // live handles, keyed as the driver issued them
}

type refReservation struct {
	base DevicePtr
	size int64
	maps []refMapping // ascending addr
}

type refMapping struct {
	addr   DevicePtr
	size   int64
	h      *refHandle
	access bool
}

type refHandle struct {
	id       MemHandle
	size     int64
	mapCount int
	released bool
}

func badSize(size int64) bool { return size <= 0 || size%ChunkGranularity != 0 }

// reserve models MemAddressReserve; va is the address the real driver chose.
func (m *refDriver) reserve(size int64, va DevicePtr) error {
	m.now += m.cost.MemAddressReserve(size)
	m.c.AddressReserve++
	if badSize(size) {
		return ErrInvalidValue
	}
	m.res = append(m.res, &refReservation{base: va, size: size})
	return nil
}

func (m *refDriver) addressFree(ptr DevicePtr, size int64) error {
	for i, r := range m.res {
		if r.base != ptr {
			continue
		}
		if r.size != size {
			return ErrInvalidValue
		}
		if len(r.maps) != 0 {
			return ErrRangeStillUsed
		}
		m.now += m.cost.MemAddressFree(size)
		m.c.AddressFree++
		m.res = append(m.res[:i], m.res[i+1:]...)
		return nil
	}
	return ErrRangeNotFound
}

// create models MemCreate; h is the handle the real driver issued.
func (m *refDriver) create(size int64, h MemHandle) error {
	m.now += m.cost.MemCreate(size)
	m.c.MemCreate++
	if badSize(size) {
		return ErrInvalidValue
	}
	if size > m.free {
		return ErrOutOfMemory
	}
	m.handles[h] = &refHandle{id: h, size: size}
	m.free -= size
	m.c.BytesAllocated += size
	return nil
}

func (m *refDriver) reclaim(h *refHandle) {
	if h.released && h.mapCount == 0 {
		m.free += h.size
		m.c.BytesReleased += h.size
		delete(m.handles, h.id)
	}
}

func (m *refDriver) release(id MemHandle) error {
	h := m.handles[id]
	if h == nil || h.released {
		return ErrInvalidHandle
	}
	m.now += m.cost.MemRelease(h.size)
	m.c.MemRelease++
	h.released = true
	m.reclaim(h)
	return nil
}

// find returns the reservation with the greatest base at or below ptr, if
// [ptr, ptr+size) ends inside it.
func (m *refDriver) find(ptr DevicePtr, size int64) *refReservation {
	var best *refReservation
	for _, r := range m.res {
		if r.base <= ptr && (best == nil || r.base > best.base) {
			best = r
		}
	}
	if best == nil || ptr+DevicePtr(size) > best.base+DevicePtr(best.size) {
		return nil
	}
	return best
}

func (m *refDriver) mapAt(ptr DevicePtr, id MemHandle) error {
	h := m.handles[id]
	if h == nil || h.released {
		return ErrInvalidHandle
	}
	r := m.find(ptr, h.size)
	if r == nil {
		return ErrRangeNotFound
	}
	if (ptr-r.base)%DevicePtr(ChunkGranularity) != 0 {
		return ErrInvalidValue
	}
	for _, o := range r.maps {
		if ptr < o.addr+DevicePtr(o.size) && o.addr < ptr+DevicePtr(h.size) {
			return ErrAlreadyMapped
		}
	}
	m.now += m.cost.MemMap(h.size)
	m.c.MemMap++
	r.maps = append(r.maps, refMapping{addr: ptr, size: h.size, h: h})
	sort.Slice(r.maps, func(i, j int) bool { return r.maps[i].addr < r.maps[j].addr })
	h.mapCount++
	return nil
}

// contained returns the index range [lo, hi) in r.maps of the mappings the
// range calls act on: from the first mapping at or above ptr up to, not
// including, the first that ends beyond ptr+size.
func (r *refReservation) contained(ptr DevicePtr, size int64) (lo, hi int) {
	for lo < len(r.maps) && r.maps[lo].addr < ptr {
		lo++
	}
	hi = lo
	for hi < len(r.maps) && r.maps[hi].addr+DevicePtr(r.maps[hi].size) <= ptr+DevicePtr(size) {
		hi++
	}
	return lo, hi
}

func (m *refDriver) setAccess(ptr DevicePtr, size int64) error {
	r := m.find(ptr, size)
	if r == nil {
		return ErrRangeNotFound
	}
	lo, hi := r.contained(ptr, size)
	covered := int64(0)
	for _, o := range r.maps[lo:hi] {
		covered += o.size
	}
	if covered != size {
		return ErrNotMapped
	}
	for i := lo; i < hi; i++ {
		if o := &r.maps[i]; !o.access {
			m.now += m.cost.MemSetAccess(o.size)
			m.c.MemSet++
			o.access = true
		}
	}
	return nil
}

func (m *refDriver) unmap(ptr DevicePtr, size int64) error {
	r := m.find(ptr, size)
	if r == nil {
		return ErrRangeNotFound
	}
	lo, hi := r.contained(ptr, size)
	if lo == hi {
		return ErrNotMapped
	}
	for _, o := range r.maps[lo:hi] {
		m.now += m.cost.MemUnmap(o.size)
		m.c.MemUnmap++
		o.h.mapCount--
		m.reclaim(o.h)
	}
	r.maps = append(r.maps[:lo], r.maps[hi:]...)
	return nil
}

func (m *refDriver) mappedBytes() int64 {
	var total int64
	for _, r := range m.res {
		for _, o := range r.maps {
			total += o.size
		}
	}
	return total
}

// mapEach maps hs one after another from ptr with one call per handle,
// stopping at the first that fails — what a MemMap over several handles
// stands for. size returns a handle's size, asked only once it has mapped.
func mapEach(mapOne func(DevicePtr, MemHandle) error, size func(MemHandle) int64, ptr DevicePtr, hs []MemHandle) (mapped int, err error) {
	for _, h := range hs {
		if err := mapOne(ptr, h); err != nil {
			return mapped, err
		}
		ptr += DevicePtr(size(h))
		mapped++
	}
	return mapped, nil
}

// sameDriverState reports where two drivers' observable VMM state differs:
// the clock, the counters, the handle table and every reservation's page
// table.
func sameDriverState(d, e *Driver) error {
	if d.Clock().Now() != e.Clock().Now() {
		return fmt.Errorf("clock %v, per-handle twin %v", d.Clock().Now(), e.Clock().Now())
	}
	if d.Counters() != e.Counters() {
		return fmt.Errorf("Counters %+v, per-handle twin %+v", d.Counters(), e.Counters())
	}
	if !slices.Equal(d.handles, e.handles) || !slices.Equal(d.freeSlots, e.freeSlots) {
		return fmt.Errorf("handle tables differ from the per-handle twin's")
	}
	n, o := d.resByAddr.Min(), e.resByAddr.Min()
	for ; n != nil && o != nil; n, o = d.resByAddr.Next(n), e.resByAddr.Next(o) {
		if r, q := n.Value, o.Value; r.base != q.base || r.live != q.live || !slices.Equal(r.slots, q.slots) {
			return fmt.Errorf("page table of reservation %#x differs from the per-handle twin's %#x", uint64(r.base), uint64(q.base))
		}
	}
	if n != nil || o != nil {
		return fmt.Errorf("%d reservations, per-handle twin %d", d.resByAddr.Len(), e.resByAddr.Len())
	}
	return nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDriverAgainstModel drives random VMM call sequences — valid ones and
// every flavour of invalid one — through the driver and the naive model, and
// compares everything a caller can observe after each call. A MemMap names
// one to four handles; a twin driver takes the same calls but maps them one
// call per handle, and must end every call with the same error text, clock,
// counters, handle table and page tables (CONTRACTS.md A-2).
func TestDriverAgainstModel(t *testing.T) {
	const (
		capacity = 96 * ChunkGranularity
		half     = DevicePtr(ChunkGranularity / 2)
	)
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for _, seed := range []uint64{1, 7, 42} {
		rng := sim.NewRNG(seed)
		d, twin := newTestDriver(capacity), newTestDriver(capacity)
		var multiMaps, partialMaps int // MemMaps of several handles that mapped them all, or some
		m := &refDriver{cost: d.Cost(), free: capacity, handles: make(map[MemHandle]*refHandle)}

		granules := func(max int) int64 { return int64(1+rng.Intn(max)) * ChunkGranularity }
		oneIn := func(n int) bool { return rng.Intn(n) == 0 }
		// issued is every handle the driver ever returned, live or not;
		// anyHandle names one of them, or 0, or a handle never issued (its
		// slot exists, its generation does not).
		var issued []MemHandle
		seen := make(map[MemHandle]bool)
		const never = MemHandle(1<<52 | 1)
		anyHandle := func() MemHandle {
			switch k := rng.Intn(len(issued) + 2); k {
			case len(issued):
				return 0
			case len(issued) + 1:
				return never
			default:
				return issued[k]
			}
		}
		// pickRange returns an address and size inside (or, rarely, hanging
		// off) a random reservation: granule-aligned by default, sometimes
		// misaligned at either end, empty or negative.
		pickRange := func() (DevicePtr, int64) {
			if len(m.res) == 0 || oneIn(40) {
				return DevicePtr(1 << 48), ChunkGranularity
			}
			r := m.res[rng.Intn(len(m.res))]
			n := int(r.size / ChunkGranularity)
			lo := rng.Intn(n + 1)
			ptr := r.base + DevicePtr(int64(lo)*ChunkGranularity)
			size := int64(rng.Intn(n-lo+1)) * ChunkGranularity
			switch rng.Intn(12) {
			case 0:
				ptr += half
			case 1:
				size += int64(half)
			case 2:
				ptr, size = ptr+half, size-int64(half)
			case 3:
				size = -size
			case 4:
				size += ChunkGranularity
			}
			return ptr, size
		}

		for step := 0; step < steps; step++ {
			var op string
			var got, got2, want error
			switch k := rng.Intn(20); {
			case k < 2:
				size := granules(16)
				if oneIn(10) {
					size -= ChunkGranularity / 2
				}
				op = fmt.Sprintf("MemAddressReserve(%d)", size)
				var va, va2 DevicePtr
				va, got = d.MemAddressReserve(size)
				va2, got2 = twin.MemAddressReserve(size)
				want = m.reserve(size, va)
				if va != va2 {
					t.Fatalf("seed %d step %d: %s = %#x, per-handle twin %#x", seed, step, op, uint64(va), uint64(va2))
				}
			case k < 5:
				size := granules(8)
				if oneIn(10) {
					size = ChunkGranularity / 2 * int64(rng.Intn(3))
				}
				op = fmt.Sprintf("MemCreate(%d)", size)
				var h, h2 MemHandle
				h, got = d.MemCreate(size)
				h2, got2 = twin.MemCreate(size)
				want = m.create(size, h)
				if h != h2 {
					t.Fatalf("seed %d step %d: %s = handle %d, per-handle twin %d", seed, step, op, h, h2)
				}
				if got == nil {
					if seen[h] || h == never {
						t.Fatalf("seed %d step %d: %s = handle %d, issued before or never to be issued", seed, step, op, h)
					}
					seen[h] = true
					issued = append(issued, h)
				}
			case k < 11:
				ptr, _ := pickRange()
				hs := make([]MemHandle, 1+rng.Intn(4))
				for i := range hs {
					hs[i] = anyHandle()
				}
				op = fmt.Sprintf("MemMap(%#x, %v)", uint64(ptr), hs)
				got = d.MemMap(ptr, hs...)
				size := func(h MemHandle) int64 { return m.handles[h].size }
				mapOne := func(ptr DevicePtr, h MemHandle) error { return twin.MemMap(ptr, h) }
				var mapped int
				mapped, got2 = mapEach(mapOne, size, ptr, hs)
				_, want = mapEach(m.mapAt, size, ptr, hs)
				switch {
				case len(hs) > 1 && got2 == nil:
					multiMaps++
				case mapped > 0 && got2 != nil:
					partialMaps++
				}
			case k < 14:
				ptr, size := pickRange()
				op = fmt.Sprintf("MemSetAccess(%#x, %d)", uint64(ptr), size)
				got, got2, want = d.MemSetAccess(ptr, size), twin.MemSetAccess(ptr, size), m.setAccess(ptr, size)
			case k < 17:
				ptr, size := pickRange()
				op = fmt.Sprintf("MemUnmap(%#x, %d)", uint64(ptr), size)
				got, got2, want = d.MemUnmap(ptr, size), twin.MemUnmap(ptr, size), m.unmap(ptr, size)
			case k < 19:
				h := anyHandle()
				op = fmt.Sprintf("MemRelease(%d)", h)
				got, got2, want = d.MemRelease(h), twin.MemRelease(h), m.release(h)
			default:
				ptr, size := pickRange()
				if len(m.res) > 0 && !oneIn(4) {
					r := m.res[rng.Intn(len(m.res))]
					ptr, size = r.base, r.size
				}
				op = fmt.Sprintf("MemAddressFree(%#x, %d)", uint64(ptr), size)
				got, got2, want = d.MemAddressFree(ptr, size), twin.MemAddressFree(ptr, size), m.addressFree(ptr, size)
			}

			if errText(got) != errText(got2) {
				t.Fatalf("seed %d step %d: %s = %v, per-handle twin %v", seed, step, op, got, got2)
			}
			if err := sameDriverState(d, twin); err != nil {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
			}

			if (got == nil) != (want == nil) || !errors.Is(got, want) {
				t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, got, want)
			}
			if c := d.Counters(); c != m.c {
				t.Fatalf("seed %d step %d: %s: Counters = %+v, model %+v", seed, step, op, c, m.c)
			}
			if now := d.Clock().Now(); now != m.now {
				t.Fatalf("seed %d step %d: %s: clock = %v, model %v", seed, step, op, now, m.now)
			}
			if b := d.MappedBytes(); b != m.mappedBytes() {
				t.Fatalf("seed %d step %d: %s: MappedBytes = %d, model %d", seed, step, op, b, m.mappedBytes())
			}
			if n := d.LiveHandles(); n != len(m.handles) {
				t.Fatalf("seed %d step %d: %s: LiveHandles = %d, model %d", seed, step, op, n, len(m.handles))
			}
			if free, _ := d.MemGetInfo(); free != m.free {
				t.Fatalf("seed %d step %d: %s: free = %d, model %d", seed, step, op, free, m.free)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
			}
		}
		if m.c.MemMap == 0 || m.c.MemUnmap == 0 || m.c.MemSet == 0 || m.c.AddressFree == 0 || m.c.BytesReleased == 0 {
			t.Fatalf("seed %d: workload never exercised a success path: %+v", seed, m.c)
		}
		if multiMaps == 0 || partialMaps == 0 {
			t.Fatalf("seed %d: %d MemMaps mapped several handles, %d failed part-way: want both", seed, multiMaps, partialMaps)
		}
		t.Logf("seed %d: %d multi, %d partial", seed, multiMaps, partialMaps)
	}
}

// TestMemMapStopsAtFirstFailure maps lists of handles that fail part-way —
// onto an already-mapped granule, through a released handle, off the end of
// the reservation — and checks that MemMap returns the failing handle's
// error with the handles before it mapped and none after, leaving the same
// clock, counters and page table as a driver mapping one handle per call
// (CONTRACTS.md A-2).
func TestMemMapStopsAtFirstFailure(t *testing.T) {
	const g = ChunkGranularity
	for _, tc := range []struct {
		name   string
		at     int64   // granule of the reservation the list starts at
		sizes  []int64 // granules per handle; 0 names a released handle
		taken  int64   // granule mapped beforehand, or -1
		mapped int     // handles mapped before the failure
		err    error
	}{
		{"already mapped granule", 0, []int64{1, 1, 1, 1}, 2, 2, ErrAlreadyMapped},
		{"stale handle", 0, []int64{1, 0, 1}, -1, 1, ErrInvalidHandle},
		{"off the reservation", 2, []int64{1, 2}, -1, 1, ErrRangeNotFound},
		{"whole list", 0, []int64{2, 1, 1}, -1, 3, nil},
	} {
		run := func(perHandle bool) (*Driver, []MemHandle, error) {
			d := newTestDriver(sim.GiB)
			va, err := d.MemAddressReserve(4 * g)
			if err != nil {
				t.Fatal(err)
			}
			hs := make([]MemHandle, len(tc.sizes))
			for i, n := range tc.sizes {
				if hs[i], err = d.MemCreate(max(n, 1) * g); err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					if err := d.MemRelease(hs[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.taken >= 0 {
				h, err := d.MemCreate(g)
				if err == nil {
					err = d.MemMap(va+DevicePtr(tc.taken*g), h)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			ptr := va + DevicePtr(tc.at*g)
			if !perHandle {
				return d, hs, d.MemMap(ptr, hs...)
			}
			mapOne := func(ptr DevicePtr, h MemHandle) error { return d.MemMap(ptr, h) }
			size := func(h MemHandle) int64 { return d.handle(h).size }
			_, err = mapEach(mapOne, size, ptr, hs)
			return d, hs, err
		}
		d, hs, err := run(false)
		twin, _, err2 := run(true)
		if errText(err) != errText(err2) || (err == nil) != (tc.err == nil) || !errors.Is(err, tc.err) {
			t.Errorf("%s: MemMap = %v, per-handle calls %v, want %v", tc.name, err, err2, tc.err)
		}
		if err := sameDriverState(d, twin); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		for i, h := range hs {
			want := 0
			if i < tc.mapped {
				want = 1
			}
			if p := d.handle(h); p != nil && p.mapCount != want {
				t.Errorf("%s: handle %d of the list mapped %d times, want %d", tc.name, i, p.mapCount, want)
			}
		}
		want := int64(tc.mapped)
		if tc.taken >= 0 {
			want++
		}
		if got := d.Counters().MemMap; got != want {
			t.Errorf("%s: %d cuMemMap calls counted, want %d", tc.name, got, want)
		}
	}
}

// TestMemMapAllocationFree pins the host cost of the mapping hot path: on a
// warm reservation MemMap, MemSetAccess and MemUnmap allocate nothing, both
// when every call resolves the reservation the previous one did and when
// every call has to search for it, and when one MemMap maps every chunk.
func TestMemMapAllocationFree(t *testing.T) {
	const n = 16
	d := newTestDriver(sim.GiB)
	var vas [2]DevicePtr
	var handles [2][n]MemHandle
	for i := range vas {
		va, err := d.MemAddressReserve(n * ChunkGranularity)
		if err != nil {
			t.Fatal(err)
		}
		vas[i] = va
		for j := range handles[i] {
			if handles[i][j], err = d.MemCreate(ChunkGranularity); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle := func(res ...int) func() {
		return func() {
			for j := 0; j < n; j++ {
				for _, i := range res {
					if err := d.MemMap(vas[i]+DevicePtr(int64(j)*ChunkGranularity), handles[i][j]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, i := range res {
				if err := d.MemSetAccess(vas[i], n*ChunkGranularity); err != nil {
					t.Fatal(err)
				}
				if err := d.MemUnmap(vas[i], n*ChunkGranularity); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := testing.AllocsPerRun(50, cycle(0)); got != 0 {
		t.Errorf("consecutive chunks of one reservation: %.1f allocs per cycle, want 0", got)
	}
	if got := testing.AllocsPerRun(50, cycle(0, 1)); got != 0 {
		t.Errorf("alternating reservations (memo miss on every call): %.1f allocs per cycle, want 0", got)
	}
	whole := func() {
		if err := d.MemMap(vas[0], handles[0][:]...); err != nil {
			t.Fatal(err)
		}
		if err := d.MemSetAccess(vas[0], n*ChunkGranularity); err != nil {
			t.Fatal(err)
		}
		if err := d.MemUnmap(vas[0], n*ChunkGranularity); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(50, whole); got != 0 {
		t.Errorf("all chunks in one MemMap call: %.1f allocs per cycle, want 0", got)
	}
	// Freeing the memoised reservation must leave lookups working and free.
	if err := d.MemAddressFree(vas[1], n*ChunkGranularity); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, cycle(0)); got != 0 {
		t.Errorf("after MemAddressFree of the memoised reservation: %.1f allocs per cycle, want 0", got)
	}
}
