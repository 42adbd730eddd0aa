// Package core implements GMLake, the paper's contribution: a GPU memory
// allocator that defragments transparently by stitching non-contiguous
// physical memory into contiguous virtual address ranges with the CUDA
// low-level virtual memory management (VMM) API.
//
// The building blocks mirror the paper's §3:
//
//   - PBlock ("primitive block"): one contiguous VA reservation fully mapped
//     to physical chunks that the pBlock owns. pBlocks are the only objects
//     that own physical memory.
//   - SBlock ("stitched block"): a second VA reservation mapped onto the
//     chunks of one or more pBlocks. sBlocks never own physical memory; they
//     give tensors one contiguous view over scattered pBlocks.
//   - pPool / sPool: pools of the blocks, searched for inactive ones by the
//     BestFit algorithm (paper Algorithm 1). Both index their blocks by size
//     class: per size, every live block in ascending VA order, each
//     recording its slot, with a bitmap beside the slots (index.go). The
//     pPool reads its classes in ascending size, so it answers in (size, VA)
//     order; the sPool is only ever asked for an exact size.
//
// The allocator (see allocator.go) wires these into the multi-state
// allocation strategy of paper Figure 9.
//
// # State propagation
//
// A tensor activates its pBlock, or every member of its sBlock. A state flip
// writes the pBlock and nothing else; the paper's rule "if even one pBlock is
// active, all corresponding sBlocks are labeled as active" is validated by
// the reader, when a pool is searched, and never propagated by the writer:
//
//   - PBlock.activeRefs counts the tensors using the pBlock (directly, or
//     through an assigned sBlock). Alloc raises it, Free lowers it; an sBlock
//     is active when a member is, computed from the members when asked.
//   - A pBlock's bit means "inactive" and is kept eagerly: its 0→1 edge
//     clears the bit and its 1→0 edge sets it, one word written either way.
//     ceil, floor, next and prev walk classes and set bits, so they see
//     exactly the inactive set in (size, VA) order and prune nothing.
//   - An sBlock's bit means "may be available". An unassigned sBlock has its
//     bit set or sits on the intrusive watcher list of one active member,
//     members[hint] (the two-watched-literals idea: one active member proves
//     it unavailable, so one is all it follows). A set bit may mark an
//     sBlock with an active member. findExact takes the lowest set bit,
//     scans that sBlock's members from the hint, and either returns it or
//     clears the bit, moves it to the watcher list of the active member
//     found and looks on from the next slot. A pBlock's 1→0 edge wakes its
//     watchers lazily: it empties its watcher list and sets each one's bit,
//     reading no member. A woken watcher has lost its proof; whether another
//     member is still active is for the lookup that next meets it to find
//     out (deferred processing). So an sBlock whose members are all
//     inactive always has its bit set. An assigned sBlock has neither.
//   - PBlock.owners lists the sBlocks stitched over the pBlock, once each, in
//     stitch order. No state flip reads it: it serves split rebinding,
//     teardown (both sort a copy by VA before issuing driver calls) and the
//     fewest-owners tie-break.
//
// CheckInvariants recomputes every one of these from scratch, and the
// property tests compare every reader against a brute-force scan after each
// operation.
//
// Host cost per Figure 9 state, with P pBlocks, C pBlock sizes, k the blocks
// of one size, m the members of the sBlock handed out or freed (1 for a
// pBlock), "stale" the set sBlock bits S1 clears before its answer (set by
// a stitch, or by a wake on a view with another member still active),
// "words" the bitmap words it scans, and "watchers" the sBlocks waiting on
// the m pBlocks:
//
//	S1 exact match   O(stale·m + m + words), no allocation (the Buffer is
//	                 the next entry of a handle slab); a pBlock match adds
//	                 O(log C) to find its class
//	S2 split         S1 + O(owners) rebinding + O(k) slot shifts for the
//	                 split block and its halves + the driver's remap
//	S3 stitch        O(taken · log C) candidate walk + S1 + O(k) to file the
//	                 new sBlock + the driver's maps, one call per member
//	S4 new memory    S3 + chunk creation; on OOM a GC pass over every pBlock
//	Free             O(m + watchers); no allocation
//
// S2–S4 and teardown reuse records: every pBlock, sBlock, size class and
// LRU node comes from a free list its owner keeps (container.Spares), which
// split, dropSBlock and gcInactive refill with the records' list capacity
// kept, and the driver reuses reservation records and page tables the same
// way. What still allocates is a list that outgrows the capacity its record
// brought: a stitch's member list (sized with room for one split) and page
// table, and its members' owner lists. A split's halves share their pBlock's
// chunk list. A warm stitch → free → EmptyCache cycle allocates nothing
// (TestStitchCycleAllocationBudget).
//
// Neither S1 nor Free depends on how many views are stitched over the
// pBlocks that flip, and a flip costs O(1) whatever the pool holds. A stale
// bit costs one scan of its sBlock's members, by the lookup that clears it,
// and is set again only through a later 1→0 edge of the member its sBlock
// then watches: S1 makes no more of these scans than stitches and wakes set
// bits, and a woken view never looked up again costs one bit. On
// Trainer-LRO (steps 60–122) an allocation call averages 29.8 member
// reads, where scanning every watcher at its wake made 94.0: the wakes set
// 11.3 bits instead of re-filing 20.2 views, 17.1 of which found another
// active member and were parked again at once. The
// driver's maps, remaps and unmaps are O(1) per chunk and allocate nothing
// (package cuda's page table), so they add no term of their own to S2–S4.
// The S3 walk takes every block it lands on: where the next block in
// (size, VA) order is larger than the remaining need, it jumps to
// pPool.floor of the need, so "taken" counts the candidates the stitch
// uses (about 3 per call on Trainer-LRO).
//
// # Convergence
//
// The paper's claim (§5.4) is that training converges to exact matches. On
// Trainer-LRO (OPT-13B, LoRA + recompute + offload, world 4, batch 24, shape
// seed 7, default Config) it does: over steps 60–123 the allocator serves
// 32 644 requests from S1, 3 from S2, 365 from S3 and none from S4 — 98.9%
// exact, no new physical memory. The 368 others are requests that found no
// inactive block of their exact size, not hits S1 overlooked: the reader
// oracle in property_test.go holds findExact to a brute-force search. The
// benchmark's core.exact_hit_ratio of 0.944 on train-lro is cumulative since
// Setup, so it keeps the 60 converging steps in its denominator.
// TestSteadyStateExactRatio pins the steady-state figure.
package core

import (
	"fmt"
	"slices"

	"repro/internal/container"
	"repro/internal/cuda"
)

// ChunkSize is the uniform physical chunk size GMLake uses for every pBlock
// (paper §3.1: "we apply a uniform chunk size of 2 MB across all chunks").
const ChunkSize = cuda.ChunkGranularity

// PBlock is a primitive block: a VA range backed by physical chunks it owns.
type PBlock struct {
	va     cuda.DevicePtr
	size   int64
	chunks []cuda.MemHandle

	// activeRefs counts reasons this pBlock is in use: 1 for a tensor
	// assigned directly to it plus 1 per assigned sBlock that contains it.
	// The paper's "active" flag is activeRefs > 0.
	activeRefs int32

	// assigned reports a tensor living directly in this pBlock.
	assigned bool

	// owners are the sBlocks stitched over this pBlock, each exactly once.
	owners []*SBlock

	// watchers heads the list, linked through SBlock.watchNext, of the
	// unassigned owners that follow this pBlock as their proof of being
	// unavailable. It is empty while the pBlock is inactive.
	watchers *SBlock

	// class is the pPool size class holding the pBlock and slot its place
	// there; the class's bit at slot is set exactly while it is inactive.
	// It names sizeClass[*PBlock], not the pClass alias, which crashes the
	// go 1.24 compiler here (internal compiler error: types2.Invalid).
	class *sizeClass[*PBlock]
	slot  int32
}

// VA returns the block's base virtual address.
func (p *PBlock) VA() cuda.DevicePtr { return p.va }

// Size returns the block's size in bytes.
func (p *PBlock) Size() int64 { return p.size }

// Active reports whether the block backs any live tensor.
func (p *PBlock) Active() bool { return p.activeRefs > 0 }

func (p *PBlock) slotRef() *int32 { return &p.slot }

// SBlock is a stitched block: a contiguous VA view over several pBlocks'
// physical chunks.
type SBlock struct {
	va      cuda.DevicePtr
	size    int64
	members []*PBlock

	// class is the sPool size class holding the sBlock and slot its place
	// there. The bit at slot is clear while it is assigned or watching.
	class *sizeClass[*SBlock]
	slot  int32

	// hint is where the next scan for an active member starts. While the
	// sBlock is unassigned with its bit clear, members[hint] is the active
	// member it watches and watchNext its link in that member's watchers.
	hint      int32
	watchNext *SBlock

	// lru is the sBlock's position in the StitchFree LRU queue.
	lru *container.QueueNode[*SBlock]

	// assigned reports a tensor living in this sBlock.
	assigned bool
}

// VA returns the stitched range's base virtual address.
func (s *SBlock) VA() cuda.DevicePtr { return s.va }

// Size returns the stitched range's size in bytes.
func (s *SBlock) Size() int64 { return s.size }

// Members returns the pBlocks this sBlock stitches, in address order of the
// stitched view.
func (s *SBlock) Members() []*PBlock { return s.members }

// Active reports whether any member pBlock is active (paper §3.2: "if even
// one pBlock is active, all corresponding sBlocks are labeled as active").
func (s *SBlock) Active() bool { return s.activeMember() >= 0 }

func (s *SBlock) slotRef() *int32 { return &s.slot }

// newPBlock allocates a fresh pBlock of size bytes (a multiple of ChunkSize):
// one AddrReserve, then Create+Map per 2 MiB chunk, then SetAccess — the
// paper's Figure 8 "Alloc" primitive. This is the only operation in GMLake
// that allocates new physical memory.
func (a *Allocator) newPBlock(size int64) (*PBlock, error) {
	if size <= 0 || size%ChunkSize != 0 {
		return nil, fmt.Errorf("core: pBlock size %d not a positive multiple of %d", size, ChunkSize)
	}
	drv := a.driver
	va, err := drv.MemAddressReserve(size)
	if err != nil {
		return nil, err
	}
	p := a.pBlock(va, size)
	n := size / ChunkSize
	p.chunks = slices.Grow(p.chunks, int(n))
	for i := int64(0); i < n; i++ {
		h, err := drv.MemCreate(ChunkSize)
		if err != nil {
			// Roll back everything created so far.
			unmapAndReleaseChunks(drv, va, p.chunks)
			if e := drv.MemAddressFree(va, size); e != nil {
				panic("core: rollback MemAddressFree: " + e.Error())
			}
			a.retirePBlock(p)
			return nil, err
		}
		if err := drv.MemMap(va+cuda.DevicePtr(i*ChunkSize), h); err != nil {
			panic("core: MemMap into fresh reservation: " + err.Error())
		}
		p.chunks = append(p.chunks, h)
	}
	if err := drv.MemSetAccess(va, size); err != nil {
		panic("core: MemSetAccess on fresh pBlock: " + err.Error())
	}
	return p, nil
}

// pBlock returns a record for the pBlock at va of size bytes: a retired one
// from the allocator's spares, with the capacity of its chunk and owner
// lists, or a zero one from a slab.
func (a *Allocator) pBlock(va cuda.DevicePtr, size int64) *PBlock {
	p := a.pspare.Get()
	p.va, p.size = va, size
	return p
}

// retirePBlock puts back the record of a pBlock that left the pool. Its
// lists keep their capacity, and it keeps no pointer.
func (a *Allocator) retirePBlock(p *PBlock) {
	clear(p.owners[:cap(p.owners)])
	*p = PBlock{chunks: p.chunks[:0], owners: p.owners[:0]}
	a.pspare.Put(p)
}

// mapChunksAt maps chunks consecutively starting at va, in one MemMap
// call, and enables access.
func mapChunksAt(drv *cuda.Driver, va cuda.DevicePtr, chunks []cuda.MemHandle) {
	if err := drv.MemMap(va, chunks...); err != nil {
		panic("core: MemMap: " + err.Error())
	}
	size := int64(len(chunks)) * ChunkSize
	if err := drv.MemSetAccess(va, size); err != nil {
		panic("core: MemSetAccess: " + err.Error())
	}
}

// unmapAndReleaseChunks unmaps the first len(chunks) chunk slots at va.
func unmapAndReleaseChunks(drv *cuda.Driver, va cuda.DevicePtr, chunks []cuda.MemHandle) {
	if len(chunks) == 0 {
		return
	}
	size := int64(len(chunks)) * ChunkSize
	if err := drv.MemUnmap(va, size); err != nil {
		panic("core: MemUnmap: " + err.Error())
	}
	for _, h := range chunks {
		if err := drv.MemRelease(h); err != nil {
			panic("core: MemRelease: " + err.Error())
		}
	}
}

// splitPBlock splits p into two fresh pBlocks of size bytes and p.size-size
// bytes (paper's Split: "two new pBlocks with corresponding virtual memory
// addresses and remapped physical chunks; the previous pBlock structure is
// subsequently removed"). The physical chunks are reused — no cuMemCreate —
// so splitting costs only remapping, which is the VMM advantage over copying
// defragmenters. The halves share p's chunk list, each capped at its own
// part, so p's record is retired without it.
//
// The caller must have destroyed or rebound every sBlock referencing p and
// must remove p from the pools.
func (a *Allocator) splitPBlock(p *PBlock, size int64) (front, back *PBlock) {
	if size <= 0 || size%ChunkSize != 0 || size >= p.size {
		panic(fmt.Sprintf("core: splitPBlock(%d) of pBlock size %d", size, p.size))
	}
	if len(p.owners) != 0 {
		panic("core: splitPBlock with live sBlock owners")
	}
	// Tear down the old view.
	if err := a.driver.MemUnmap(p.va, p.size); err != nil {
		panic("core: splitPBlock unmap: " + err.Error())
	}
	if err := a.driver.MemAddressFree(p.va, p.size); err != nil {
		panic("core: splitPBlock address free: " + err.Error())
	}
	k := size / ChunkSize
	front = a.remapAsPBlock(size, p.chunks[:k:k])
	back = a.remapAsPBlock(p.size-size, p.chunks[k:])
	p.chunks = nil
	return front, back
}

func (a *Allocator) remapAsPBlock(size int64, chunks []cuda.MemHandle) *PBlock {
	va, err := a.driver.MemAddressReserve(size)
	if err != nil {
		panic("core: remapAsPBlock reserve: " + err.Error())
	}
	mapChunksAt(a.driver, va, chunks)
	p := a.pBlock(va, size)
	p.chunks = chunks
	return p
}

// stitchSBlock builds an sBlock over members: one VA reservation of the
// combined size with every member's chunks mapped consecutively (paper's
// Stitch). sBlocks never create physical chunks — the same physical memory
// is now reachable through both the pBlock VAs and the stitched VA. The
// sBlock keeps its own copy of members, so callers may pass scratch.
func (a *Allocator) stitchSBlock(members []*PBlock) *SBlock {
	if len(members) == 0 {
		panic("core: stitchSBlock with no members")
	}
	var total int64
	for _, p := range members {
		total += p.size
	}
	va, err := a.driver.MemAddressReserve(total)
	if err != nil {
		panic("core: stitchSBlock reserve: " + err.Error())
	}
	off := cuda.DevicePtr(0)
	for _, p := range members {
		mapChunksAt(a.driver, va+off, p.chunks)
		off += cuda.DevicePtr(p.size)
	}
	// A record from the spares is zero but for its members' capacity. The
	// list keeps room for one more: a member's split inserts a member.
	s := a.sspare.Get()
	s.va, s.size = va, total
	s.members = append(slices.Grow(s.members, len(members)+1), members...)
	for _, p := range members {
		p.owners = append(p.owners, s)
	}
	return s
}

// replaceMember substitutes pBlock old with its two split halves in s's
// member list, in place, keeping the stitched order. No driver work is
// needed: s maps physical chunks, and the split reused them untouched.
func replaceMember(s *SBlock, old, front, back *PBlock) {
	i := slices.Index(s.members, old)
	if i < 0 {
		panic("core: replaceMember: old pBlock not a member")
	}
	s.members[i] = front
	s.members = slices.Insert(s.members, i+1, back)
	if int(s.hint) > i {
		s.hint++ // still the same member, one slot further on
	}
}

// dropSBlock removes s from the pool, tears down its VA view and retires
// its record, which keeps the capacity of its member list and no pointer.
// Member pBlocks and their physical chunks are untouched.
func (a *Allocator) dropSBlock(s *SBlock) {
	if s.assigned {
		panic("core: unstitch of assigned sBlock")
	}
	a.sblocks.remove(s)
	if err := a.driver.MemUnmap(s.va, s.size); err != nil {
		panic("core: unstitch unmap: " + err.Error())
	}
	if err := a.driver.MemAddressFree(s.va, s.size); err != nil {
		panic("core: unstitch address free: " + err.Error())
	}
	for _, p := range s.members {
		i := slices.Index(p.owners, s)
		if i < 0 {
			panic("core: unstitch: sBlock missing from member's owners")
		}
		p.owners = slices.Delete(p.owners, i, i+1)
	}
	clear(s.members[:cap(s.members)])
	*s = SBlock{members: s.members[:0]}
	a.sspare.Put(s)
}

// destroyPBlock releases a pBlock's physical chunks and VA and retires its
// record. The caller must have destroyed its owner sBlocks first and
// removed it from the pools.
func (a *Allocator) destroyPBlock(p *PBlock) {
	if p.Active() {
		panic("core: destroy of active pBlock")
	}
	if len(p.owners) != 0 {
		panic("core: destroy of pBlock with live sBlock owners")
	}
	unmapAndReleaseChunks(a.driver, p.va, p.chunks)
	if err := a.driver.MemAddressFree(p.va, p.size); err != nil {
		panic("core: destroyPBlock address free: " + err.Error())
	}
	a.retirePBlock(p)
}
