package cuda

import "fmt"

// CheckInvariants validates the page tables against the handles they
// reference, the handle table against its free list, and the driver's
// reservation index: every mapped granule names a live handle of its size,
// reservations do not overlap, and each handle's map count is the number of
// mappings naming it. It returns the first violation found.
func (d *Driver) CheckInvariants() error {
	spare := make(map[int]bool)
	for _, i := range d.freeSlots {
		if i < 0 || i >= len(d.handles) || spare[i] {
			return fmt.Errorf("free list holds slot %d twice or out of a %d-slot table", i, len(d.handles))
		}
		spare[i] = true
	}
	// held reports whether ref names a live slot's record.
	held := func(ref uint32) bool {
		i := int(ref&^accessBit) - 1
		return i >= 0 && i < len(d.handles) && !spare[i]
	}
	refs := make(map[int]int) // first granules naming each slot
	lastMemoLive := d.last == nil
	var prevEnd DevicePtr
	for n := d.resByAddr.Min(); n != nil; n = d.resByAddr.Next(n) {
		r, base := n.Value, DevicePtr(n.Key.Hi)
		if r.base != base || &r.node != n || len(r.slots) != int(r.size/ChunkGranularity) || r.base < prevEnd {
			return fmt.Errorf("reservation %#x: base %#x, %d slots for %d bytes, or overlapping the one below", uint64(base), uint64(r.base), len(r.slots), r.size)
		}
		prevEnd = r.base + DevicePtr(r.size)
		lastMemoLive = lastMemoLive || d.last == r
		live := 0
		for i := 0; i < len(r.slots); {
			s := r.slots[i]
			if s.span == 0 {
				if s != (slot{}) {
					return fmt.Errorf("reservation %#x: unmapped slot %d holds state", uint64(base), i)
				}
				i++
				continue
			}
			k := int(s.span)
			if k < 0 || i+k > len(r.slots) || !held(s.ref) || d.record(s).size != int64(k)*ChunkGranularity {
				return fmt.Errorf("reservation %#x: slot %d does not start a %d-granule mapping of a live handle", uint64(base), i, k)
			}
			for j := 1; j < k; j++ {
				if t := r.slots[i+j]; t != (slot{span: int32(-j)}) {
					return fmt.Errorf("reservation %#x: slot %d is not granule %d of the mapping at slot %d", uint64(base), i+j, j, i)
				}
			}
			live++
			refs[int(s.ref&^accessBit)-1]++
			i += k
		}
		if live != r.live {
			return fmt.Errorf("reservation %#x: live = %d, page table holds %d mappings", uint64(base), r.live, live)
		}
	}
	for i, p := range d.handles {
		if spare[i] {
			if !p.released || p.mapCount != 0 {
				return fmt.Errorf("slot %d is free but handle %d is held", i, p.id)
			}
		} else if int(uint32(p.id))-1 != i || p.mapCount != refs[i] || p.released && p.mapCount == 0 {
			return fmt.Errorf("slot %d: handle %d (released %v) has mapCount %d, %d mappings name it, or was not reclaimed",
				i, p.id, p.released, p.mapCount, refs[i])
		}
	}
	if !lastMemoLive {
		return fmt.Errorf("last-reservation memo points at freed reservation %#x", uint64(d.last.base))
	}
	return nil
}
