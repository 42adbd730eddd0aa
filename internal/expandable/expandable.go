// Package expandable implements the two single-arena allocators the paper's
// §6 sets GMLake's stitching against, over one shared arena:
//
//   - New: PyTorch's "expandable segments" allocator, the VMM-based
//     alternative PyTorch later shipped
//     (PYTORCH_CUDA_ALLOC_CONF=expandable_segments:True) — growing.
//   - NewCompact: a compaction-based defragmenter, the classic alternative —
//     copying. It is the same arena with one extra step in Alloc: when
//     fragmentation blocks a request the free bytes could serve, live blocks
//     are copied downward until all free space is one contiguous tail.
//
// With the splitting baseline and GMLake that makes the evaluation a
// four-way comparison in which the two arena rows differ in nothing but the
// compaction pass.
//
// The arena, mirroring the PyTorch implementation:
//
//   - One huge virtual address reservation (the expandable segment) per
//     device, sized at device capacity. Nothing is mapped up front.
//   - Physical memory is committed in 2 MiB chunks by extending a frontier:
//     when no cached free block fits, the segment grows at its tail with
//     cuMemCreate + cuMemMap + cuMemSetAccess, and the new space merges with
//     a trailing free block.
//   - Inside the mapped prefix, blocks are managed exactly like the caching
//     allocator: best fit, split, and coalesce on free.
//   - Requests below the small threshold use a conventional caching small
//     pool, as in PyTorch.
//
// Because every size class draws from one contiguous arena, the cross-class
// segment fragmentation that dooms the caching allocator disappears; unlike
// GMLake, interior holes can still pin the frontier (no stitching), so the
// growing allocator's reserved memory sits between the two.
//
// Compaction reaches the same zero-fragmentation steady state as stitching
// but pays for it with data movement: every pass copies the moved bytes
// through HBM and requires a device synchronization (tensors move, so every
// in-flight kernel must drain and every pointer be rewritten — which is also
// why real frameworks cannot adopt it transparently; it exists here as the
// quantitative comparison point).
package expandable

import (
	"fmt"
	"time"

	"repro/internal/caching"
	"repro/internal/container"
	"repro/internal/cuda"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// ChunkSize is the physical mapping granularity (2 MiB, as for GMLake).
const ChunkSize = cuda.ChunkGranularity

// SmallThreshold routes sub-2 MiB requests to the embedded small pool.
const SmallThreshold = 2 * sim.MiB

// copyBandwidth prices compaction's data movement: an on-device copy reads
// and writes HBM (A100: ~2 TB/s raw, ~1.3 TB/s effective for a memcpy).
const copyBandwidth = 1.3e12

// SyncStall is the device synchronization each compaction requires before
// tensors may move.
const SyncStall = 5 * time.Millisecond

// Allocator is the single-arena allocator, growing only (New) or growing
// and compacting (NewCompact).
type Allocator struct {
	driver   *cuda.Driver
	acct     memalloc.Accounting
	handles  memalloc.Handles
	compacts bool

	va       cuda.DevicePtr // segment base (reserved once, lazily)
	vaSize   int64          // reservation size (device capacity)
	frontier int64          // mapped prefix length
	chunks   []cuda.MemHandle

	blocks *block                 // address-ordered chain over [0, frontier)
	free   container.Tree[*block] // free blocks by (size, off)

	small *caching.Allocator

	compactions int64
	movedBytes  int64
}

type block struct {
	off  int64
	size int64
	buf  *memalloc.Buffer // the live buffer, whose Ptr compaction rewrites; nil = free
	prev *block
	next *block
	node container.Node[*block] // linked into free while the block is free
}

// New returns an expandable-segments allocator over driver.
func New(driver *cuda.Driver) *Allocator {
	return &Allocator{driver: driver, small: caching.New(driver)}
}

// NewCompact returns a compaction allocator over driver.
func NewCompact(driver *cuda.Driver) *Allocator {
	a := New(driver)
	a.compacts = true
	return a
}

// Name implements memalloc.Allocator.
func (a *Allocator) Name() string {
	if a.compacts {
		return "compact"
	}
	return "expandable"
}

// errorf prefixes an error with the allocator's name.
func (a *Allocator) errorf(format string, args ...any) error {
	return fmt.Errorf(a.Name()+": "+format, args...)
}

// Stats implements memalloc.Allocator.
func (a *Allocator) Stats() memalloc.Stats {
	return a.acct.Stats().Add(a.small.Stats())
}

// ResetPeaks restarts peak tracking.
func (a *Allocator) ResetPeaks() {
	a.acct.ResetPeaks()
	a.small.ResetPeaks()
}

// Compactions reports how many compaction passes have run.
func (a *Allocator) Compactions() int64 { return a.compactions }

// MovedBytes reports the total bytes copied by compaction.
func (a *Allocator) MovedBytes() int64 { return a.movedBytes }

// ensureSegment lazily reserves the segment VA at first use.
func (a *Allocator) ensureSegment() error {
	if a.vaSize != 0 {
		return nil
	}
	_, total := a.driver.MemGetInfo()
	size := sim.RoundUp(total, ChunkSize)
	va, err := a.driver.MemAddressReserve(size)
	if err != nil {
		return err
	}
	a.va = va
	a.vaSize = size
	return nil
}

// Alloc implements memalloc.Allocator: best fit, then (when compacting and
// the arena's free bytes suffice) compact, then grow.
func (a *Allocator) Alloc(size int64) (*memalloc.Buffer, error) {
	if size <= 0 {
		return nil, a.errorf("Alloc(%d)", size)
	}
	if size > memalloc.MaxAllocSize {
		return nil, &memalloc.TooLargeError{Allocator: a.Name(), Size: size}
	}
	if size < SmallThreshold {
		return a.small.Alloc(size)
	}
	a.driver.Clock().Advance(a.driver.Cost().HostOp())
	if err := a.ensureSegment(); err != nil {
		return nil, err
	}
	rounded := caching.RoundSize(size)

	blk := a.findBestFit(rounded)
	if st := a.acct.Stats(); blk == nil && a.compacts && st.Reserved-st.Active >= rounded {
		a.compact()
		blk = a.findBestFit(rounded)
	}
	if blk == nil {
		var err error
		blk, err = a.extend(rounded)
		if err != nil {
			return nil, err
		}
	}
	blk = a.maybeSplit(blk, rounded)
	a.acct.OnAlloc(blk.size)
	blk.buf = a.handles.New(a.va+cuda.DevicePtr(blk.off), blk.size, blk)
	return blk.buf, nil
}

func (a *Allocator) findBestFit(size int64) *block {
	n := a.free.Ceil(container.Key{Hi: size})
	if n == nil {
		return nil
	}
	blk := n.Value
	a.free.Delete(n)
	return blk
}

// freeKey is a free block's place in the index: best fit by size, lowest
// offset on ties.
func (b *block) freeKey() container.Key { return container.Key{Hi: b.size, Lo: b.off} }

// insertFree indexes the free block blk through its own tree node.
func (a *Allocator) insertFree(blk *block) {
	blk.node.Value, blk.node.Key = blk, blk.freeKey()
	a.free.InsertNode(&blk.node)
}

// compact slides every allocated block downward so all free space becomes
// one contiguous tail, charging the copy and synchronization costs.
func (a *Allocator) compact() {
	a.compactions++
	a.driver.Clock().Advance(SyncStall)

	var moved, off int64
	var last *block
	for blk := a.blocks; blk != nil; blk = blk.next {
		if blk.buf == nil {
			a.free.Delete(&blk.node)
			continue
		}
		if blk.off != off {
			moved += blk.size
			blk.off = off
			blk.buf.Ptr = a.va + cuda.DevicePtr(off)
		}
		a.link(last, blk)
		last = blk
		off += blk.size
	}
	var tail *block
	if off < a.frontier {
		tail = &block{off: off, size: a.frontier - off}
		a.insertFree(tail)
	}
	a.link(last, tail)
	a.movedBytes += moved
	a.driver.Clock().Advance(time.Duration(float64(moved) / copyBandwidth * float64(time.Second)))
}

// link makes next (nil = end of chain) follow prev (nil = head of chain).
func (a *Allocator) link(prev, next *block) {
	if prev != nil {
		prev.next = next
	} else {
		a.blocks = next
	}
	if next != nil {
		next.prev = prev
	}
}

// frontierError is extend's refusal when the arena's reservation has no
// room left to map, formatted only when read.
type frontierError struct {
	name             string
	frontier, vaSize int64
}

func (e *frontierError) Error() string {
	return fmt.Sprintf("%s: %v: segment frontier at %d of %d", e.name, cuda.ErrOutOfMemory, e.frontier, e.vaSize)
}

// Unwrap makes errors.Is(err, cuda.ErrOutOfMemory) hold.
func (e *frontierError) Unwrap() error { return cuda.ErrOutOfMemory }

// extend grows the mapped frontier so a block of size bytes fits at the
// tail, merging with a trailing free block if one exists. Returns the
// ready-to-split free block covering the request.
func (a *Allocator) extend(size int64) (*block, error) {
	tail := a.tail()
	tailFree := int64(0)
	if tail != nil && tail.buf == nil {
		tailFree = tail.size
	}
	need := sim.RoundUp(size-tailFree, ChunkSize)
	if a.frontier+need > a.vaSize {
		return nil, &frontierError{name: a.Name(), frontier: a.frontier, vaSize: a.vaSize}
	}
	// Commit physical chunks; roll back on device OOM.
	var created []cuda.MemHandle
	for off := int64(0); off < need; off += ChunkSize {
		h, err := a.driver.MemCreate(ChunkSize)
		if err != nil {
			for i, hh := range created {
				base := a.va + cuda.DevicePtr(a.frontier+int64(i)*ChunkSize)
				if e := a.driver.MemUnmap(base, ChunkSize); e != nil {
					panic("expandable: rollback unmap: " + e.Error())
				}
				if e := a.driver.MemRelease(hh); e != nil {
					panic("expandable: rollback release: " + e.Error())
				}
			}
			return nil, err
		}
		if err := a.driver.MemMap(a.va+cuda.DevicePtr(a.frontier+off), h); err != nil {
			panic("expandable: MemMap: " + err.Error())
		}
		created = append(created, h)
	}
	if err := a.driver.MemSetAccess(a.va+cuda.DevicePtr(a.frontier), need); err != nil {
		panic("expandable: MemSetAccess: " + err.Error())
	}
	a.chunks = append(a.chunks, created...)
	a.acct.OnReserve(need)

	a.frontier += need
	if tail != nil && tail.buf == nil {
		// Merge into the free tail block.
		a.free.Delete(&tail.node)
		tail.size += need
		return tail, nil
	}
	grown := &block{off: a.frontier - need, size: need}
	a.link(tail, grown)
	return grown, nil
}

func (a *Allocator) tail() *block {
	if a.blocks == nil {
		return nil
	}
	b := a.blocks
	for b.next != nil {
		b = b.next
	}
	return b
}

func (a *Allocator) maybeSplit(blk *block, size int64) *block {
	remaining := blk.size - size
	if remaining < caching.MinBlockSize {
		return blk
	}
	rest := &block{off: blk.off + size, size: remaining}
	a.link(rest, blk.next)
	a.link(blk, rest)
	blk.size = size
	a.insertFree(rest)
	return blk
}

// Free implements memalloc.Allocator: coalescing free, no driver calls.
func (a *Allocator) Free(buf *memalloc.Buffer) {
	var blk *block
	switch b := buf.Impl().(type) {
	case nil:
		panic(a.Name() + ": double Free")
	case *block:
		blk = b
	default:
		// Small-pool buffer.
		a.small.Free(buf)
		return
	}
	if blk.buf != buf {
		panic(a.Name() + ": double Free")
	}
	a.driver.Clock().Advance(a.driver.Cost().HostOp())
	a.acct.OnFree(blk.size)
	blk.buf = nil
	buf.SetImpl(nil)

	if nb := blk.next; nb != nil && nb.buf == nil {
		a.free.Delete(&nb.node)
		blk.size += nb.size
		a.link(blk, nb.next)
	}
	if pb := blk.prev; pb != nil && pb.buf == nil {
		a.free.Delete(&pb.node)
		pb.size += blk.size
		a.link(pb, blk.next)
		blk = pb
	}
	a.insertFree(blk)
}

// EmptyCache implements memalloc.Allocator: unmap the free tail of the
// segment, returning its physical chunks to the device (PyTorch trims
// expandable segments the same way).
func (a *Allocator) EmptyCache() {
	a.small.EmptyCache()
	tail := a.tail()
	if tail == nil || tail.buf != nil {
		return
	}
	// Unmap whole chunks contained in the free tail.
	releaseFrom := sim.RoundUp(tail.off, ChunkSize)
	releaseBytes := a.frontier - releaseFrom
	if releaseBytes <= 0 {
		return
	}
	if err := a.driver.MemUnmap(a.va+cuda.DevicePtr(releaseFrom), releaseBytes); err != nil {
		panic("expandable: trim unmap: " + err.Error())
	}
	keep := int64(len(a.chunks)) - releaseBytes/ChunkSize
	for _, h := range a.chunks[keep:] {
		if err := a.driver.MemRelease(h); err != nil {
			panic("expandable: trim release: " + err.Error())
		}
	}
	a.chunks = a.chunks[:keep]
	a.acct.OnRelease(releaseBytes)
	a.frontier = releaseFrom

	// Shrink or drop the tail block.
	a.free.Delete(&tail.node)
	if tail.off == releaseFrom {
		a.link(tail.prev, nil)
		return
	}
	tail.size = releaseFrom - tail.off
	a.insertFree(tail)
}

// Frontier reports the mapped prefix length (diagnostics).
func (a *Allocator) Frontier() int64 { return a.frontier }

// CheckInvariants validates the block chain: it must tile [0, frontier)
// exactly, with free blocks coalesced and indexed under their current size
// and offset, and every live buffer must point at its block.
func (a *Allocator) CheckInvariants() error {
	var off int64
	prevFree := false
	for blk := a.blocks; blk != nil; blk = blk.next {
		if blk.off != off {
			return a.errorf("gap at offset %d", off)
		}
		if blk.next != nil && blk.next.prev != blk {
			return a.errorf("broken chain links")
		}
		if blk.buf == nil {
			if prevFree {
				return a.errorf("adjacent free blocks not merged")
			}
			if !blk.node.Linked() {
				return a.errorf("free block missing from index")
			}
			if blk.node.Key != blk.freeKey() {
				return a.errorf("free block at %d changed under its index key", off)
			}
		} else if blk.buf.Ptr != a.va+cuda.DevicePtr(off) {
			return a.errorf("buffer at %#x, its block at offset %d", blk.buf.Ptr, off)
		}
		prevFree = blk.buf == nil
		off += blk.size
	}
	if off != a.frontier {
		return a.errorf("blocks tile %d of frontier %d", off, a.frontier)
	}
	if got := int64(len(a.chunks)) * ChunkSize; got != a.frontier {
		return a.errorf("%d chunk bytes vs frontier %d", got, a.frontier)
	}
	return nil
}
