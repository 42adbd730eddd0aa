// Package gpu simulates the GPU device that both allocators run against: a
// fixed-capacity physical memory (page-mapped, so physical contiguity is
// never a client-visible constraint — exactly as on real CUDA devices) and a
// process-wide virtual address space from which cudaMalloc results and
// cuMemAddressReserve reservations are carved.
//
// A refusal is cheap to repeat: the device returns the same read-only
// *OutOfMemoryError for a request that fails exactly as the previous one
// did, and the address space recycles its free-range records.
package gpu

import (
	"errors"
	"fmt"

	"repro/internal/container"
)

// ErrSpaceExhausted is returned by RangeAllocator when no free range can
// satisfy a request.
var ErrSpaceExhausted = errors.New("gpu: address space exhausted")

// RangeAllocator hands out non-overlapping [offset, offset+size) ranges from
// a fixed span, with best-fit placement and free-range coalescing. It backs
// the simulated virtual address space.
//
// Two ordered indexes are kept over the free ranges: one by offset (for
// neighbour coalescing on free) and one by size (for best-fit allocation).
// A free range is one record linked into both through the nodes it embeds;
// a record merged away or consumed goes to a spare list the next split or
// free takes it from, so a warm Alloc/FreeRange cycle allocates nothing.
type RangeAllocator struct {
	span    int64
	free    int64
	byAddr  container.Tree[*freeRange] // keyed by offset
	bySize  container.Tree[*freeRange] // keyed by (size, offset)
	granule int64

	spare container.Spares[freeRange]
}

type freeRange struct {
	offset, size       int64
	addrNode, sizeNode container.Node[*freeRange]
}

// NewRangeAllocator creates an allocator over [0, span) handing out ranges
// aligned to granule. Span must be a positive multiple of granule.
func NewRangeAllocator(span, granule int64) *RangeAllocator {
	if granule <= 0 || span <= 0 || span%granule != 0 {
		panic(fmt.Sprintf("gpu: bad range allocator span=%d granule=%d", span, granule))
	}
	a := &RangeAllocator{span: span, free: span, granule: granule}
	a.insertFree(0, span)
	return a
}

// Span reports the total span managed by the allocator.
func (a *RangeAllocator) Span() int64 { return a.span }

// Free reports the total free bytes (possibly non-contiguous).
func (a *RangeAllocator) Free() int64 { return a.free }

// Alloc reserves size bytes (rounded up to the granule) and returns the
// range's offset. Placement is best-fit: the smallest free range that can
// hold the request, lowest address on ties.
func (a *RangeAllocator) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gpu: Alloc size %d", size)
	}
	size = roundUp(size, a.granule)
	n := a.bySize.Ceil(container.Key{Hi: size})
	if n == nil {
		return 0, ErrSpaceExhausted
	}
	fr := n.Value
	offset, rest := fr.offset, fr.size-size
	a.removeFree(fr)
	if rest > 0 {
		a.insertFree(offset+size, rest)
	}
	a.free -= size
	return offset, nil
}

// FreeRange returns [offset, offset+size) to the allocator, coalescing with
// adjacent free ranges. Size is rounded up to the granule exactly as Alloc
// rounded it. Freeing an overlapping or unallocated range corrupts no state
// silently: overlaps with existing free ranges panic.
func (a *RangeAllocator) FreeRange(offset, size int64) {
	if size <= 0 || offset < 0 || offset+size > a.span {
		panic(fmt.Sprintf("gpu: FreeRange(%d, %d) out of span %d", offset, size, a.span))
	}
	size = roundUp(size, a.granule)

	// Find potential neighbours: greatest free range starting at or before
	// offset, and the successor after it.
	var prev, next *freeRange
	if fn := a.byAddr.Floor(container.Key{Hi: offset}); fn != nil {
		prev = fn.Value
		if nn := a.byAddr.Next(fn); nn != nil {
			next = nn.Value
		}
	} else if fn := a.byAddr.Min(); fn != nil {
		next = fn.Value
	}
	if prev != nil && prev.offset+prev.size > offset {
		panic(fmt.Sprintf("gpu: double free / overlap at [%d,%d)", offset, offset+size))
	}
	if next != nil && offset+size > next.offset {
		panic(fmt.Sprintf("gpu: double free / overlap at [%d,%d)", offset, offset+size))
	}
	lo, hi := offset, offset+size
	if prev != nil && prev.offset+prev.size == lo {
		a.removeFree(prev)
		lo = prev.offset
	}
	if next != nil && hi == next.offset {
		a.removeFree(next)
		hi += next.size
	}
	a.insertFree(lo, hi-lo)
	a.free += size
}

// FragmentCount reports the number of disjoint free ranges; used by tests to
// validate coalescing.
func (a *RangeAllocator) FragmentCount() int { return a.byAddr.Len() }

// LargestFree reports the size of the largest contiguous free range.
func (a *RangeAllocator) LargestFree() int64 {
	n := a.bySize.Max()
	if n == nil {
		return 0
	}
	return n.Value.size
}

// insertFree indexes [offset, offset+size) as free in a spare record.
func (a *RangeAllocator) insertFree(offset, size int64) {
	fr := a.spare.Get()
	*fr = freeRange{offset: offset, size: size}
	fr.addrNode.Value, fr.sizeNode.Value = fr, fr
	fr.addrNode.Key = container.Key{Hi: offset}
	fr.sizeNode.Key = container.Key{Hi: size, Lo: offset}
	a.byAddr.InsertNode(&fr.addrNode)
	a.bySize.InsertNode(&fr.sizeNode)
}

// removeFree unindexes fr and keeps its record for the next insertFree,
// which overwrites it: the caller reads fr's fields before that.
func (a *RangeAllocator) removeFree(fr *freeRange) {
	a.byAddr.Delete(&fr.addrNode)
	a.bySize.Delete(&fr.sizeNode)
	a.spare.Put(fr)
}

func roundUp(n, g int64) int64 {
	if rem := n % g; rem != 0 {
		return n + g - rem
	}
	return n
}
