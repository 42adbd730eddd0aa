// Package cuda simulates the slice of the CUDA driver API that GMLake and
// the PyTorch caching allocator use: the native allocator (cudaMalloc /
// cudaFree) and the low-level virtual memory management (VMM) API
// (cuMemAddressReserve, cuMemCreate, cuMemMap, cuMemSetAccess and their
// teardown counterparts).
//
// Every call is priced by the sim.CostModel — calibrated to the paper's
// Table 1 and Figure 6 — and charged to a sim.Clock, so experiments measure
// allocation latency and end-to-end overhead in deterministic virtual time.
//
// Semantics follow the real driver where it matters to the paper:
//
//   - Physical memory handles (cuMemCreate) are reference-counted: a handle's
//     memory is released only once it has been cuMemRelease'd *and* every
//     mapping of it has been unmapped. GMLake depends on this to map the same
//     physical chunks from both a pBlock VA and one or more sBlock VAs.
//   - Virtual address reservations are contiguous and distinct; mappings must
//     land inside a reservation and may not overlap one another.
//   - Physical chunks are sized in multiples of the 2 MiB granularity, and a
//     mapping starts on a granule boundary of its reservation.
//
// # Page table
//
// A reservation is a dense, granule-aligned range, so its mappings live in a
// page table with one 8-byte slot per 2 MiB granule rather than in an
// ordered set. The first granule of a mapping holds ref = its handle-table
// slot + 1, with the access flag in the top bit, and span = the number of
// granules it covers; each later granule holds ref 0 and span = minus the
// distance back to the first; an unmapped granule is all zero. A slot holds
// no pointer, so a page table is one allocation the garbage collector never
// scans. MemAddressFree keeps the record and its page table, all zero once
// unmapped, on a free list for the next MemAddressReserve, which reuses the
// table if it holds the new range and otherwise allocates one of exactly
// its size: a warm reserve/free cycle of equal size allocates nothing. On
// the host one MemMap call costs O(granules of its handles) —
// index, check the slots are empty, fill them — resolving the reservation
// once per run of handles it holds and pricing a chunk size once per run of
// equal sizes, so an allocator maps a block's chunks in one call.
// MemSetAccess and MemUnmap cost O(granules of the range) through one walk
// over the mappings a range contains (reservation.next); none of them
// allocates or calls through a func value. The reservations have one index,
// a tree keyed by base: resolving an address is O(1) when it hits the
// reservation the previous call resolved and O(log reservations) otherwise.
//
// # Handle table
//
// Physical handles index a table of records, held by value, rather than a
// map. A handle is gen<<32 | slot+1: the table slot holding its record, and
// how many handles that slot issued before it. When a handle's memory is
// reclaimed, its record stays in the slot with the next generation's
// handle, and the slot goes on a free list for the next MemCreate. So a
// released handle stays ErrInvalidHandle after its slot is reissued, a warm
// MemCreate/MemRelease cycle allocates nothing, and a cold one allocates
// only when the table grows. The page table names records by slot, never by
// address: growing the table moves them, so no *physical is held across a
// MemCreate.
//
// Host cost is not simulated cost: what a call charges to the sim.Clock comes
// from the cost model alone and does not depend on any of the above.
package cuda

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/container"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// ChunkGranularity is the minimum physical allocation granularity of the VMM
// API (2 MiB on NVIDIA hardware).
const ChunkGranularity = 2 * sim.MiB

// DevicePtr is a device virtual address.
type DevicePtr uint64

// MemHandle names a physical memory allocation created with MemCreate.
type MemHandle int64

// Errors mirroring the driver's failure modes.
var (
	ErrOutOfMemory    = gpu.ErrOutOfMemory
	ErrInvalidValue   = errors.New("cuda: invalid value")
	ErrNotMapped      = errors.New("cuda: range not mapped")
	ErrAlreadyMapped  = errors.New("cuda: range already mapped")
	ErrInvalidHandle  = errors.New("cuda: invalid memory handle")
	ErrRangeNotFound  = errors.New("cuda: address range not reserved")
	ErrRangeStillUsed = errors.New("cuda: reservation still has mappings")
)

// OutOfMemoryError is the refusal Malloc and MemCreate return when the
// device cannot hold the allocation; it wraps ErrOutOfMemory.
type OutOfMemoryError = gpu.OutOfMemoryError

// Counters aggregates driver-call statistics; the harness reports them and
// the paper's "caching allocator is ~10x faster than native" observation is
// visible directly in the call counts.
type Counters struct {
	Malloc, Free                  int64
	AddressReserve, AddressFree   int64
	MemCreate, MemRelease         int64
	MemMap, MemUnmap, MemSet      int64
	BytesAllocated, BytesReleased int64
}

// Driver is one device's simulated driver context.
type Driver struct {
	dev   *gpu.Device
	clock *sim.Clock
	cost  *sim.CostModel

	counters Counters

	mallocs   map[DevicePtr]mallocAlloc
	resByAddr container.Tree[*reservation]  // every reservation, keyed by base
	handles   []physical                    // the handle table (see the package comment)
	freeSlots []int                         // slots of handles whose memory was reclaimed
	granted   []int32                       // MemSetAccess's scratch: the granules it set
	spareRes  container.Spares[reservation] // freed reservations, page tables kept

	// last is the reservation findReservation resolved last.
	last *reservation
}

type mallocAlloc struct {
	size int64
	seg  gpu.SegmentID
}

type reservation struct {
	base  DevicePtr
	size  int64
	slots []slot // page table, one entry per ChunkGranularity
	live  int    // mappings in slots
	node  container.Node[*reservation]
}

// slot is one granule of a reservation's page table (see the package
// comment for the encoding). ref is nonzero on a mapping's first granule
// only.
type slot struct {
	ref  uint32 // handle-table slot + 1, | accessBit once access is set
	span int32
}

// accessBit lies above every slot + 1: reaching it takes 2^31 records.
const accessBit = 1 << 31

// record returns the handle record a mapping's first granule names.
func (d *Driver) record(s slot) *physical { return &d.handles[s.ref&^accessBit-1] }

type physical struct {
	id       MemHandle // the handle naming the record; once reclaimed, the next one
	size     int64
	seg      gpu.SegmentID
	mapCount int
	released bool
}

// NewDriver creates a driver over dev, charging costs from model to clock.
func NewDriver(dev *gpu.Device, clock *sim.Clock, model *sim.CostModel) *Driver {
	return &Driver{
		dev:     dev,
		clock:   clock,
		cost:    model,
		mallocs: make(map[DevicePtr]mallocAlloc),
	}
}

// Device returns the underlying simulated device.
func (d *Driver) Device() *gpu.Device { return d.dev }

// Clock returns the driver's virtual clock.
func (d *Driver) Clock() *sim.Clock { return d.clock }

// Cost returns the driver's cost model.
func (d *Driver) Cost() *sim.CostModel { return d.cost }

// Counters returns a snapshot of the driver-call statistics.
func (d *Driver) Counters() Counters { return d.counters }

// MemGetInfo reports free and total physical memory, like cuMemGetInfo.
func (d *Driver) MemGetInfo() (free, total int64) {
	return d.dev.FreeBytes(), d.dev.Capacity()
}

// Malloc is cudaMalloc: a contiguous device allocation with a device
// synchronization. The latency is charged even on failure, as on real
// hardware.
func (d *Driver) Malloc(size int64) (DevicePtr, error) {
	d.clock.Advance(d.cost.CudaMalloc(size))
	d.counters.Malloc++
	if size <= 0 {
		return 0, fmt.Errorf("%w: Malloc(%d)", ErrInvalidValue, size)
	}
	seg, err := d.dev.AllocPhysical(size)
	if err != nil {
		return 0, err
	}
	va, err := d.dev.ReserveVA(size)
	if err != nil {
		d.dev.FreePhysical(seg)
		return 0, err
	}
	ptr := DevicePtr(va)
	d.mallocs[ptr] = mallocAlloc{size: size, seg: seg}
	d.counters.BytesAllocated += size
	return ptr, nil
}

// Free is cudaFree.
func (d *Driver) Free(ptr DevicePtr) error {
	a, ok := d.mallocs[ptr]
	if !ok {
		return fmt.Errorf("%w: Free(%#x)", ErrInvalidValue, uint64(ptr))
	}
	d.clock.Advance(d.cost.CudaFree(a.size))
	d.counters.Free++
	d.counters.BytesReleased += a.size
	d.dev.FreePhysical(a.seg)
	d.dev.ReleaseVA(uint64(ptr), a.size)
	delete(d.mallocs, ptr)
	return nil
}

// MemAddressReserve reserves size bytes of contiguous virtual address space.
func (d *Driver) MemAddressReserve(size int64) (DevicePtr, error) {
	d.clock.Advance(d.cost.MemAddressReserve(size))
	d.counters.AddressReserve++
	if size <= 0 || size%ChunkGranularity != 0 {
		return 0, fmt.Errorf("%w: MemAddressReserve(%d): must be a positive multiple of %d",
			ErrInvalidValue, size, ChunkGranularity)
	}
	va, err := d.dev.ReserveVA(size)
	if err != nil {
		return 0, err
	}
	ptr := DevicePtr(va)
	// A freed reservation's page table is all zero: reuse it if it holds
	// this one, or else allocate one of exactly this size.
	r := d.spareRes.Get()
	n := int(size / ChunkGranularity)
	if n <= cap(r.slots) {
		r.slots = r.slots[:n]
	} else {
		r.slots = make([]slot, n)
	}
	r.base, r.size, r.live = ptr, size, 0
	r.node.Value, r.node.Key = r, container.Key{Hi: int64(ptr)}
	d.resByAddr.InsertNode(&r.node)
	return ptr, nil
}

// MemAddressFree releases a reservation. All mappings must be unmapped first.
func (d *Driver) MemAddressFree(ptr DevicePtr, size int64) error {
	n := d.resByAddr.Floor(container.Key{Hi: int64(ptr)})
	if n == nil || n.Value.base != ptr {
		return fmt.Errorf("%w: MemAddressFree(%#x)", ErrRangeNotFound, uint64(ptr))
	}
	r := n.Value
	if r.size != size {
		return fmt.Errorf("%w: MemAddressFree size %d != reserved %d", ErrInvalidValue, size, r.size)
	}
	if r.live != 0 {
		return fmt.Errorf("%w: %d mappings live", ErrRangeStillUsed, r.live)
	}
	d.clock.Advance(d.cost.MemAddressFree(size))
	d.counters.AddressFree++
	d.dev.ReleaseVA(uint64(ptr), size)
	d.resByAddr.Delete(&r.node)
	if d.last == r {
		d.last = nil
	}
	r.node.Value = nil
	d.spareRes.Put(r)
	return nil
}

// MemCreate allocates a physical memory chunk of the given size (a positive
// multiple of ChunkGranularity) and returns its handle.
func (d *Driver) MemCreate(size int64) (MemHandle, error) {
	d.clock.Advance(d.cost.MemCreate(size))
	d.counters.MemCreate++
	if size <= 0 || size%ChunkGranularity != 0 {
		return 0, fmt.Errorf("%w: MemCreate(%d): must be a positive multiple of %d",
			ErrInvalidValue, size, ChunkGranularity)
	}
	seg, err := d.dev.AllocPhysical(size)
	if err != nil {
		return 0, err
	}
	var p *physical
	if n := len(d.freeSlots); n > 0 {
		p = &d.handles[d.freeSlots[n-1]]
		d.freeSlots = d.freeSlots[:n-1]
	} else {
		d.handles = append(d.handles, physical{id: MemHandle(len(d.handles) + 1)})
		p = &d.handles[len(d.handles)-1]
	}
	*p = physical{id: p.id, size: size, seg: seg}
	d.counters.BytesAllocated += size
	return p.id, nil
}

// handle returns the record h names while h is live and not yet released,
// or nil: h was never issued, was released, or names an earlier
// generation of a reissued slot.
func (d *Driver) handle(h MemHandle) *physical {
	i := int(uint32(h)) - 1
	if i < 0 || i >= len(d.handles) {
		return nil
	}
	if p := &d.handles[i]; p.id == h && !p.released {
		return p
	}
	return nil
}

// MemRelease drops the caller's reference to a physical handle. The memory is
// returned to the device once no mapping references it, per driver semantics.
func (d *Driver) MemRelease(h MemHandle) error {
	p := d.handle(h)
	if p == nil {
		return fmt.Errorf("%w: MemRelease(%d)", ErrInvalidHandle, h)
	}
	d.clock.Advance(d.cost.MemRelease(p.size))
	d.counters.MemRelease++
	p.released = true
	d.maybeReclaim(p)
	return nil
}

// MemMap maps the whole physical handles hs one after another from ptr:
// each lands where the previous one ends, on a granule boundary inside a
// reservation with enough room and no overlapping mapping. It acts exactly
// as one cuMemMap per handle in turn: it stops at the first handle that
// fails, returning that handle's error, and leaves the ones before it
// mapped. On the host it resolves the reservation once per run of handles
// the reservation holds and prices a chunk size once per run of equal sizes.
func (d *Driver) MemMap(ptr DevicePtr, hs ...MemHandle) error {
	var r *reservation
	var priced int64
	var cost time.Duration
	for _, h := range hs {
		p := d.handle(h)
		if p == nil {
			return fmt.Errorf("%w: MemMap handle %d", ErrInvalidHandle, h)
		}
		if r == nil || !r.holds(ptr, p.size) {
			if r = d.findReservation(ptr, p.size); r == nil {
				return fmt.Errorf("%w: MemMap(%#x, %d bytes)", ErrRangeNotFound, uint64(ptr), p.size)
			}
		}
		off := int64(ptr - r.base)
		if off%ChunkGranularity != 0 {
			return fmt.Errorf("%w: MemMap(%#x): not aligned to %d", ErrInvalidValue, uint64(ptr), ChunkGranularity)
		}
		lo, k := int(off/ChunkGranularity), int(p.size/ChunkGranularity)
		for _, s := range r.slots[lo : lo+k] {
			if s.span != 0 {
				return fmt.Errorf("%w: [%#x,%#x)", ErrAlreadyMapped, uint64(ptr), uint64(ptr)+uint64(p.size))
			}
		}
		if p.size != priced {
			priced, cost = p.size, d.cost.MemMap(p.size)
		}
		d.clock.Advance(cost)
		d.counters.MemMap++
		r.slots[lo] = slot{ref: uint32(h), span: int32(k)}
		for i := 1; i < k; i++ {
			r.slots[lo+i].span = int32(-i)
		}
		r.live++
		p.mapCount++
		ptr += DevicePtr(p.size)
	}
	return nil
}

// MemSetAccess enables access on [ptr, ptr+size), which must exactly cover
// one or more existing mappings. A call that fails changes nothing. It
// prices a mapping size once per run of equal sizes. One walk checks the
// coverage and sets the bits; the clock and counters are charged once the
// coverage is known, and a failing call clears the bits it set.
func (d *Driver) MemSetAccess(ptr DevicePtr, size int64) error {
	r := d.findReservation(ptr, size)
	if r == nil {
		return fmt.Errorf("%w: MemSetAccess(%#x)", ErrRangeNotFound, uint64(ptr))
	}
	lo, hi := r.granules(ptr, size)
	covered := int64(0)
	var priced int32
	var cost, charge time.Duration
	set := d.granted[:0]
	for i := r.next(lo, hi); i < hi; i = r.next(i, hi) {
		s := &r.slots[i]
		covered += int64(s.span) * ChunkGranularity
		if s.ref&accessBit == 0 {
			if s.span != priced {
				priced, cost = s.span, d.cost.MemSetAccess(int64(s.span)*ChunkGranularity)
			}
			charge += cost
			s.ref |= accessBit
			set = append(set, int32(i))
		}
		i += int(s.span)
	}
	d.granted = set
	if covered != size {
		for _, i := range set {
			r.slots[i].ref &^= accessBit
		}
		return fmt.Errorf("%w: MemSetAccess covers %d of %d bytes", ErrNotMapped, covered, size)
	}
	d.clock.Advance(charge)
	d.counters.MemSet += int64(len(set))
	return nil
}

// MemUnmap removes every mapping fully contained in [ptr, ptr+size).
func (d *Driver) MemUnmap(ptr DevicePtr, size int64) error {
	r := d.findReservation(ptr, size)
	if r == nil {
		return fmt.Errorf("%w: MemUnmap(%#x)", ErrRangeNotFound, uint64(ptr))
	}
	live := r.live
	lo, hi := r.granules(ptr, size)
	for i := r.next(lo, hi); i < hi; i = r.next(i, hi) {
		p, k := d.record(r.slots[i]), int(r.slots[i].span)
		d.clock.Advance(d.cost.MemUnmap(p.size))
		d.counters.MemUnmap++
		clear(r.slots[i : i+k])
		r.live--
		p.mapCount--
		d.maybeReclaim(p)
		i += k
	}
	if r.live == live {
		return fmt.Errorf("%w: MemUnmap(%#x, %d)", ErrNotMapped, uint64(ptr), size)
	}
	return nil
}

// MappedBytes reports the total bytes currently mapped across reservations
// (each mapping counted once; shared physical chunks counted per mapping).
func (d *Driver) MappedBytes() int64 {
	var granules int64
	for n := d.resByAddr.Min(); n != nil; n = d.resByAddr.Next(n) {
		for _, s := range n.Value.slots {
			granules += int64(max(s.span, 0))
		}
	}
	return granules * ChunkGranularity
}

// LiveHandles reports physical handles whose memory is still held.
func (d *Driver) LiveHandles() int { return len(d.handles) - len(d.freeSlots) }

// maybeReclaim returns p's memory to the device once it is released and
// unmapped, and frees its slot with the handle a generation on.
func (d *Driver) maybeReclaim(p *physical) {
	if p.released && p.mapCount == 0 {
		d.dev.FreePhysical(p.seg)
		d.counters.BytesReleased += p.size
		d.freeSlots = append(d.freeSlots, int(uint32(p.id))-1)
		p.id += 1 << 32
	}
}

// granules returns the page-table bounds [lo, hi) of the mappings that can
// lie wholly inside [ptr, ptr+size), which must lie inside r; walk them with
// next.
func (r *reservation) granules(ptr DevicePtr, size int64) (lo, hi int) {
	off := int64(ptr - r.base)
	lo = int((off + ChunkGranularity - 1) / ChunkGranularity)
	hi = int((off + size) / ChunkGranularity)
	if lo < hi && r.slots[lo].span < 0 {
		// The range begins inside a mapping, which it therefore does not
		// contain: step back to the mapping's first granule, then past it.
		lo += int(r.slots[lo].span)
		lo += int(r.slots[lo].span)
	}
	return lo, hi
}

// next returns the first granule of the first mapping at or after granule i
// (a mapping's first granule or an unmapped one) that ends by hi, or hi when
// there is none.
func (r *reservation) next(i, hi int) int {
	for ; i < hi; i++ {
		if k := int(r.slots[i].span); k != 0 {
			if i+k > hi {
				return hi
			}
			return i
		}
	}
	return hi
}

func (r *reservation) holds(ptr DevicePtr, size int64) bool {
	return ptr >= r.base && ptr+DevicePtr(size) <= r.base+DevicePtr(r.size)
}

// findReservation returns the reservation holding [ptr, ptr+size), or nil.
// Reservations are disjoint, so when the last one resolved holds the range
// no tree search is needed.
func (d *Driver) findReservation(ptr DevicePtr, size int64) *reservation {
	if d.last != nil && d.last.holds(ptr, size) {
		return d.last
	}
	n := d.resByAddr.Floor(container.Key{Hi: int64(ptr)})
	if n == nil || !n.Value.holds(ptr, size) {
		return nil
	}
	d.last = n.Value
	return d.last
}
