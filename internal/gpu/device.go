package gpu

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when a physical allocation exceeds the device's
// remaining capacity. It is the simulated equivalent of
// CUDA_ERROR_OUT_OF_MEMORY.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// OutOfMemoryError is AllocPhysical's refusal: the request and the free
// capacity it did not fit in. It wraps ErrOutOfMemory and formats only when
// read. A device hands the same record out again for a refusal equal to its
// previous one, so a caller retrying against an unchanged device allocates
// nothing: the record is read-only once returned.
type OutOfMemoryError struct {
	Want, Free int64
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("%v: want %d, free %d", ErrOutOfMemory, e.Want, e.Free)
}

// Unwrap makes errors.Is(err, ErrOutOfMemory) hold.
func (e *OutOfMemoryError) Unwrap() error { return ErrOutOfMemory }

// SegmentID identifies one live physical allocation on a Device.
type SegmentID int64

// Device simulates one GPU's memory system.
//
// Physical memory is page-mapped behind the driver on real hardware, so any
// allocation succeeds as long as enough total bytes are free — physical
// contiguity is never client-visible. The device therefore tracks physical
// memory as a capacity ledger of live segments. The virtual address space,
// where contiguity *is* client-visible, is modelled precisely by a
// RangeAllocator.
type Device struct {
	name     string
	capacity int64
	used     int64
	peakUsed int64
	segments map[SegmentID]int64
	nextSeg  SegmentID
	va       *RangeAllocator
	refusal  *OutOfMemoryError // the last one returned, reissued while equal
}

// VASpan is the size of the simulated device virtual address space. 1 PiB
// comfortably exceeds any experiment's reservation churn while keeping
// offsets readable in traces.
const VASpan = int64(1) << 50

// VAGranule is the smallest unit of virtual address space the device hands
// out, matching CUDA's 64 KiB VA granularity.
const VAGranule = int64(64) << 10

// NewDevice creates a device with the given physical capacity in bytes.
func NewDevice(name string, capacity int64) *Device {
	if capacity <= 0 {
		panic(fmt.Sprintf("gpu: capacity %d", capacity))
	}
	return &Device{
		name:     name,
		capacity: capacity,
		segments: make(map[SegmentID]int64),
		va:       NewRangeAllocator(VASpan, VAGranule),
	}
}

// Name returns the device's display name.
func (d *Device) Name() string { return d.name }

// Capacity returns total physical memory in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// Used returns currently allocated physical bytes.
func (d *Device) Used() int64 { return d.used }

// PeakUsed returns the high-water mark of allocated physical bytes.
func (d *Device) PeakUsed() int64 { return d.peakUsed }

// FreeBytes returns remaining physical capacity.
func (d *Device) FreeBytes() int64 { return d.capacity - d.used }

// LiveSegments returns the number of live physical allocations.
func (d *Device) LiveSegments() int { return len(d.segments) }

// AllocPhysical reserves size physical bytes and returns a segment handle.
// It fails with an *OutOfMemoryError if the device cannot hold the
// allocation; the error is shared with equal refusals and must not be
// modified.
func (d *Device) AllocPhysical(size int64) (SegmentID, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gpu: AllocPhysical size %d", size)
	}
	if d.used+size > d.capacity {
		if r := d.refusal; r == nil || r.Want != size || r.Free != d.FreeBytes() {
			d.refusal = &OutOfMemoryError{Want: size, Free: d.FreeBytes()}
		}
		return 0, d.refusal
	}
	d.nextSeg++
	id := d.nextSeg
	d.segments[id] = size
	d.used += size
	if d.used > d.peakUsed {
		d.peakUsed = d.used
	}
	return id, nil
}

// FreePhysical releases a segment. Freeing an unknown segment panics: it is
// always an allocator bug, never a runtime condition.
func (d *Device) FreePhysical(id SegmentID) {
	size, ok := d.segments[id]
	if !ok {
		panic(fmt.Sprintf("gpu: FreePhysical of unknown segment %d", id))
	}
	delete(d.segments, id)
	d.used -= size
}

// SegmentSize returns the size of a live segment.
func (d *Device) SegmentSize(id SegmentID) (int64, bool) {
	size, ok := d.segments[id]
	return size, ok
}

// ReserveVA reserves size bytes of device virtual address space and returns
// the base address.
func (d *Device) ReserveVA(size int64) (uint64, error) {
	off, err := d.va.Alloc(size)
	if err != nil {
		return 0, err
	}
	return uint64(off), nil
}

// ReleaseVA returns a reservation obtained from ReserveVA.
func (d *Device) ReleaseVA(addr uint64, size int64) {
	d.va.FreeRange(int64(addr), size)
}

// VAFragments reports the number of disjoint free VA ranges (diagnostics).
func (d *Device) VAFragments() int { return d.va.FragmentCount() }

// ResetPeak restarts peak tracking from the current usage; harnesses call it
// between warm-up and measured iterations.
func (d *Device) ResetPeak() { d.peakUsed = d.used }
