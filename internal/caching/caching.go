// Package caching implements the baseline allocator GMLake is compared
// against: the best-fit-with-coalescing (BFC) caching allocator used by
// PyTorch and TensorFlow (paper §2.2, Figure 2b).
//
// The implementation mirrors PyTorch's CUDACachingAllocator:
//
//  1. Requests are rounded to 512-byte multiples and served from a small
//     pool (requests ≤ 1 MiB, backed by 2 MiB segments) or a large pool.
//  2. Best fit: the smallest cached inactive block that fits is chosen,
//     the lowest address among equal sizes. Each pool files its inactive
//     blocks in size bins, four per power of two of the 512-byte unit, each
//     bin a list in (size, address) order, with a bitmap of the non-empty
//     bins (TensorFlow's BFC allocator bins its free chunks the same way).
//     A lookup walks the request's own bin to the first block that fits,
//     else takes the head of the next non-empty bin from the bitmap; a
//     free walks one bin to its slot. A walk is O(blocks in one bin), where
//     a tree is O(log n): its worst case is many inactive blocks of one
//     size under a request just above it (BenchmarkCachingEqualSizes).
//  3. Split: if the chosen block leaves a usable remainder, it is split;
//     the two halves stay linked so they can re-merge.
//  4. Free does not call the driver — the block is marked inactive and
//     coalesced with inactive neighbours inside its segment.
//
// When no cached block fits, a new segment is requested with cudaMalloc;
// on device OOM all completely-free cached segments are released and the
// allocation retried, as PyTorch does. Under a tight pool that refusal is
// the common case, so it is cheap on the host: each pool counts its wholly
// free segments, the flush returns at once when there are none, and the
// error is formatted only when read.
//
// Splitting is exactly the mechanism the paper blames for fragmentation:
// split remainders scattered across segments cannot serve later large
// requests, so reserved memory keeps growing — the behaviour the Figure 10,
// 11 and 13 baselines exhibit.
package caching

import (
	"fmt"
	"math/bits"

	"repro/internal/container"
	"repro/internal/cuda"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// PyTorch CUDACachingAllocator sizing constants.
const (
	// MinBlockSize is the rounding granularity for every request.
	MinBlockSize = 512
	// SmallSize is the largest request served by the small pool.
	SmallSize = 1 * sim.MiB
	// SmallBuffer is the segment size backing the small pool.
	SmallBuffer = 2 * sim.MiB
	// LargeBuffer is the segment size for medium requests (≤ MinLargeAlloc).
	LargeBuffer = 20 * sim.MiB
	// MinLargeAlloc is the threshold above which a request gets its own
	// rounded segment.
	MinLargeAlloc = 10 * sim.MiB
	// RoundLarge is the rounding granularity for large segments.
	RoundLarge = 2 * sim.MiB
)

// Config mirrors the PYTORCH_CUDA_ALLOC_CONF tuning knobs practitioners used
// against fragmentation before VMM-based allocators existed.
type Config struct {
	// MaxSplitSize forbids splitting cached blocks larger than this
	// (max_split_size_mb): big blocks stay intact for big requests instead
	// of being nibbled into pinned remainders. Oversize blocks may still
	// serve a request within OversizeSlack of their size. Zero disables
	// the limit (PyTorch's default).
	MaxSplitSize int64

	// GCThreshold triggers a cache flush when reserved memory exceeds this
	// fraction of device capacity before a new segment is allocated
	// (garbage_collection_threshold). Zero disables.
	GCThreshold float64
}

// OversizeSlack is how much larger than the request an unsplittable block
// may be and still serve it (PyTorch's kLargeBuffer-based rule).
const OversizeSlack = 20 * sim.MiB

// Allocator is the caching allocator.
type Allocator struct {
	driver  *cuda.Driver
	cfg     Config
	acct    memalloc.Accounting
	handles memalloc.Handles

	small, large pool

	// segs lists every live segment, newest first; nsegs counts them.
	segs  *segment
	nsegs int

	// spare holds block records merged away or released with their
	// segment; a split remainder or a new segment's block comes from it.
	spare container.Spares[block]
}

type pool struct {
	// bins[j] heads the list of inactive blocks in bin base+j (binOf), in
	// (size, ptr) order; bit j of nonEmpty is set exactly when it is
	// non-empty. base is the bin of the pool's smallest possible block, and
	// bins reaches the bin of its largest segment.
	bins     []*block
	nonEmpty [binWords]uint64
	base     int
	// free counts the inactive blocks in bins; whole counts those that span
	// their segment alone: the segments a flush would release.
	free, whole int
}

// binWords is the bitmap's length: the large pool's bins, from 1 MiB up to
// memalloc.MaxAllocSize, the largest segment an allocator makes.
const binWords = 2

// binOf returns the bin of an inactive block of size bytes (a positive
// multiple of MinBlockSize): four bins per power of two of the unit, so it
// rises with size and a bin's sizes lie within 25% of its lowest.
func binOf(size int64) int {
	units := uint64(size / MinBlockSize)
	log := bits.Len64(units) - 1
	return 4*log + int(units<<2>>log&3)
}

type segment struct {
	size  int64
	pool  *pool
	first *block // at the segment's base address
	next  *segment
}

type block struct {
	seg  *segment
	ptr  cuda.DevicePtr
	size int64
	prev *block // address-order neighbours inside the segment
	next *block
	// binPrev and binNext link an inactive block into its pool's bin.
	binPrev, binNext *block
	allocated        bool
}

// New returns a caching allocator over driver with PyTorch's default
// configuration (unlimited splitting, no GC threshold).
func New(driver *cuda.Driver) *Allocator { return NewWithConfig(driver, Config{}) }

// NewWithConfig returns a caching allocator with tuning knobs set.
func NewWithConfig(driver *cuda.Driver, cfg Config) *Allocator {
	a := &Allocator{driver: driver, cfg: cfg}
	// A large-pool block is a request above SmallSize or a split remainder
	// of at least SmallSize.
	a.large.base = binOf(SmallSize)
	return a
}

// ceil returns the smallest inactive block of at least size bytes, the
// lowest address among equals, or nil: the first fit in the request's own
// bin, else the head of the next non-empty bin.
func (p *pool) ceil(size int64) *block {
	i := binOf(size) - p.base
	if i >= len(p.bins) {
		return nil
	}
	for blk := p.bins[i]; blk != nil; blk = blk.binNext {
		if blk.size >= size {
			return blk
		}
	}
	i++
	for w := i >> 6; w < binWords; w++ {
		word := p.nonEmpty[w]
		if w == i>>6 {
			word &^= 1<<(i&63) - 1
		}
		if word != 0 {
			return p.bins[w<<6+bits.TrailingZeros64(word)]
		}
	}
	return nil
}

// insertFree files the inactive block blk in its bin, after every block
// that precedes it in (size, ptr) order.
func (p *pool) insertFree(blk *block) {
	i := binOf(blk.size) - p.base
	var prev *block
	next := p.bins[i]
	for next != nil && (next.size < blk.size || next.size == blk.size && next.ptr < blk.ptr) {
		prev, next = next, next.binNext
	}
	blk.binPrev, blk.binNext = prev, next
	if prev == nil {
		p.bins[i] = blk
		p.nonEmpty[i>>6] |= 1 << (i & 63)
	} else {
		prev.binNext = blk
	}
	if next != nil {
		next.binPrev = blk
	}
	p.free++
	if blk.whole() {
		p.whole++
	}
}

// removeFree unlinks blk from its bin; the caller relinks it after.
func (p *pool) removeFree(blk *block) {
	if prev := blk.binPrev; prev != nil {
		prev.binNext = blk.binNext
	} else {
		i := binOf(blk.size) - p.base
		p.bins[i] = blk.binNext
		if blk.binNext == nil {
			p.nonEmpty[i>>6] &^= 1 << (i & 63)
		}
	}
	if next := blk.binNext; next != nil {
		next.binPrev = blk.binPrev
	}
	p.free--
	if blk.whole() {
		p.whole--
	}
}

// whole reports whether blk is the only block of its segment.
func (b *block) whole() bool { return b.prev == nil && b.next == nil }

// Name implements memalloc.Allocator.
func (a *Allocator) Name() string { return "caching" }

// Stats implements memalloc.Allocator.
func (a *Allocator) Stats() memalloc.Stats { return a.acct.Stats() }

// ResetPeaks restarts peak tracking from current levels.
func (a *Allocator) ResetPeaks() { a.acct.ResetPeaks() }

// RoundSize returns the block size a request of size bytes occupies.
func RoundSize(size int64) int64 {
	if size < MinBlockSize {
		return MinBlockSize
	}
	return sim.RoundUp(size, MinBlockSize)
}

// allocationSize returns the segment size cudaMalloc'd for a request that
// missed the cache.
func allocationSize(size int64) int64 {
	switch {
	case size <= SmallSize:
		return SmallBuffer
	case size < MinLargeAlloc:
		return LargeBuffer
	default:
		return sim.RoundUp(size, RoundLarge)
	}
}

func (a *Allocator) poolFor(size int64) *pool {
	if size <= SmallSize {
		return &a.small
	}
	return &a.large
}

// Alloc implements memalloc.Allocator: best fit, then split (paper Figure 2b
// steps 1 and 2).
func (a *Allocator) Alloc(size int64) (*memalloc.Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("caching: Alloc(%d)", size)
	}
	if size > memalloc.MaxAllocSize {
		return nil, &memalloc.TooLargeError{Allocator: "caching", Size: size}
	}
	a.driver.Clock().Advance(a.driver.Cost().HostOp())

	rounded := RoundSize(size)
	p := a.poolFor(rounded)

	blk := a.findBestFit(p, rounded)
	if blk == nil {
		var err error
		blk, err = a.allocSegment(p, rounded)
		if err != nil {
			return nil, err
		}
	}
	blk = a.maybeSplit(p, blk, rounded)
	blk.allocated = true
	a.acct.OnAlloc(blk.size)

	return a.handles.New(blk.ptr, blk.size, blk), nil
}

// findBestFit removes and returns the smallest inactive block that fits, or
// nil. With MaxSplitSize set, an unsplittable (oversize) block is usable
// only when it exceeds the request by at most OversizeSlack; larger
// candidates would be wasted whole, so the search reports a miss instead
// (PyTorch's rule).
func (a *Allocator) findBestFit(p *pool, size int64) *block {
	blk := p.ceil(size)
	if blk == nil {
		return nil
	}
	if a.cfg.MaxSplitSize > 0 && p == &a.large &&
		blk.size > a.cfg.MaxSplitSize && blk.size-size > OversizeSlack {
		return nil
	}
	p.removeFree(blk)
	return blk
}

// allocSegment cudaMallocs a fresh segment sized for the request; on device
// OOM it releases all cached free segments and retries once. With a GC
// threshold configured, the cache is flushed proactively once reserved
// memory crosses the threshold fraction of device capacity.
func (a *Allocator) allocSegment(p *pool, size int64) (*block, error) {
	segSize := allocationSize(size)
	if a.cfg.GCThreshold > 0 {
		_, total := a.driver.MemGetInfo()
		if float64(a.acct.Stats().Reserved+segSize) > a.cfg.GCThreshold*float64(total) {
			a.releaseCachedSegments()
		}
	}
	ptr, err := a.driver.Malloc(segSize)
	if err != nil && a.releaseCachedSegments() > 0 {
		ptr, err = a.driver.Malloc(segSize)
	}
	if oom, ok := err.(*cuda.OutOfMemoryError); ok {
		return nil, mallocError{oom}
	}
	if err != nil {
		return nil, fmt.Errorf("caching: %w", err)
	}
	// The bins reach the largest segment: a pool never used costs nothing,
	// and the small pool's first segment sizes its bins for good.
	if n := binOf(segSize) - p.base + 1; n > len(p.bins) {
		p.bins = append(p.bins, make([]*block, n-len(p.bins))...)
	}
	seg := &segment{size: segSize, pool: p, next: a.segs}
	blk := a.spare.Get()
	*blk = block{seg: seg, ptr: ptr, size: segSize}
	seg.first = blk
	a.segs = seg
	a.nsegs++
	a.acct.OnReserve(segSize)
	return blk, nil
}

// mallocError is allocSegment's refusal: the driver's, under the
// allocator's name. It holds one pointer, so returning it as an error
// allocates nothing, and it is formatted only when read.
type mallocError struct{ err *cuda.OutOfMemoryError }

func (e mallocError) Error() string { return "caching: " + e.err.Error() }

// Unwrap exposes the driver's refusal, so errors.Is finds ErrOutOfMemory.
func (e mallocError) Unwrap() error { return e.err }

// splitRemainder is the smallest usable split remainder per pool: 512 B for
// the small pool, 1 MiB for the large pool (PyTorch's should_split rule).
func (a *Allocator) splitRemainder(p *pool) int64 {
	if p == &a.small {
		return MinBlockSize
	}
	return SmallSize
}

// maybeSplit splits blk if the remainder after carving size bytes is usable,
// returning the block to hand out (paper Figure 2b step 2). Blocks above
// MaxSplitSize are handed out whole.
func (a *Allocator) maybeSplit(p *pool, blk *block, size int64) *block {
	remaining := blk.size - size
	if remaining < a.splitRemainder(p) {
		return blk
	}
	if a.cfg.MaxSplitSize > 0 && p == &a.large && blk.size > a.cfg.MaxSplitSize {
		return blk
	}
	rest := a.spare.Get()
	*rest = block{
		seg:  blk.seg,
		ptr:  blk.ptr + cuda.DevicePtr(size),
		size: remaining,
		prev: blk,
		next: blk.next,
	}
	if blk.next != nil {
		blk.next.prev = rest
	}
	blk.next = rest
	blk.size = size
	p.insertFree(rest)
	return blk
}

// Free implements memalloc.Allocator: mark inactive and merge with inactive
// neighbours (paper Figure 2b steps 3 and 4). The driver is never called.
// A block merged away goes to the spare list; the freed buffer forgets its
// block first, so a stale handle cannot reach the recycled record.
func (a *Allocator) Free(buf *memalloc.Buffer) {
	var blk *block
	switch b := buf.Impl().(type) {
	case nil:
		panic("caching: double Free")
	case *block:
		blk = b
	default:
		panic("caching: Free of buffer not owned by this allocator")
	}
	if !blk.allocated {
		panic("caching: double Free")
	}
	a.driver.Clock().Advance(a.driver.Cost().HostOp())
	a.acct.OnFree(blk.size)
	blk.allocated = false
	buf.SetImpl(nil)

	p := blk.seg.pool
	// Merge right then left; the merged block keeps the leftmost identity.
	if nb := blk.next; nb != nil && !nb.allocated {
		p.removeFree(nb)
		blk.size += nb.size
		blk.next = nb.next
		if nb.next != nil {
			nb.next.prev = blk
		}
		a.spare.Put(nb)
	}
	if pb := blk.prev; pb != nil && !pb.allocated {
		p.removeFree(pb)
		pb.size += blk.size
		pb.next = blk.next
		if blk.next != nil {
			blk.next.prev = pb
		}
		a.spare.Put(blk)
		blk = pb
	}
	p.insertFree(blk)
}

// EmptyCache implements memalloc.Allocator.
func (a *Allocator) EmptyCache() { a.releaseCachedSegments() }

// releaseCachedSegments cudaFrees every segment whose whole span is a single
// inactive block, newest segment first, returning the number released. The
// pools' whole counts make it O(1) when there is nothing to release, and
// stop the scan at the last one when there is.
func (a *Allocator) releaseCachedSegments() int {
	released := 0
	for link := &a.segs; *link != nil && a.flushable() > 0; {
		seg := *link
		blk := seg.first
		if blk.allocated || blk.next != nil {
			link = &seg.next
			continue
		}
		seg.pool.removeFree(blk)
		if err := a.driver.Free(blk.ptr); err != nil {
			panic("caching: releasing cached segment: " + err.Error())
		}
		a.acct.OnRelease(seg.size)
		*link = seg.next
		a.nsegs--
		a.spare.Put(blk)
		released++
	}
	return released
}

// flushable returns the number of segments a flush would release.
func (a *Allocator) flushable() int { return a.small.whole + a.large.whole }

// SegmentCount reports live segments (diagnostics).
func (a *Allocator) SegmentCount() int { return a.nsegs }

// FreeBlockCount reports cached inactive blocks across both pools
// (diagnostics; a growing count under an irregular workload is the
// fragmentation the paper describes).
func (a *Allocator) FreeBlockCount() int { return a.small.free + a.large.free }

// FreeBlockSizes returns the size of every cached inactive block, ascending
// per pool; fragstat consumes it for fragmentation indices.
func (a *Allocator) FreeBlockSizes() []int64 {
	out := make([]int64, 0, a.FreeBlockCount())
	for _, p := range []*pool{&a.small, &a.large} {
		for _, head := range p.bins {
			for blk := head; blk != nil; blk = blk.binNext {
				out = append(out, blk.size)
			}
		}
	}
	return out
}

// checkBins verifies p's index: every block in bin binOf(size), inactive
// and of this pool, every bin in (size, ptr) order with intact back links,
// a bitmap bit set exactly when its bin is non-empty, and the free count
// equal to the blocks filed. It adds each filed block to binned.
func (p *pool) checkBins(binned map[*block]bool) error {
	n := 0
	for j := 0; j < binWords*64; j++ {
		bin := p.base + j
		var head *block
		if j < len(p.bins) {
			head = p.bins[j]
		}
		if (p.nonEmpty[j>>6]>>(j&63)&1 == 1) != (head != nil) {
			return fmt.Errorf("caching: bin %d's bitmap bit disagrees with its list", bin)
		}
		var prev *block
		for blk := head; blk != nil; prev, blk = blk, blk.binNext {
			switch {
			case blk.allocated || blk.seg.pool != p:
				return fmt.Errorf("caching: bin %d holds a block at %#x that is not inactive in its pool", bin, uint64(blk.ptr))
			case binOf(blk.size) != bin:
				return fmt.Errorf("caching: a %d-byte block sits in bin %d, not %d", blk.size, bin, binOf(blk.size))
			case blk.binPrev != prev:
				return fmt.Errorf("caching: broken bin %d links", bin)
			case prev != nil && (prev.size > blk.size || prev.size == blk.size && prev.ptr >= blk.ptr):
				return fmt.Errorf("caching: bin %d is out of (size, ptr) order at %#x", bin, uint64(blk.ptr))
			}
			binned[blk] = true
			n++
		}
	}
	if n != p.free {
		return fmt.Errorf("caching: pool counts %d inactive blocks, its bins hold %d", p.free, n)
	}
	return nil
}

// CheckInvariants validates internal consistency; tests call it after
// workloads. It verifies that every segment's block chain tiles the segment
// exactly, that no two inactive neighbours remain unmerged, that each
// pool's bins hold exactly its inactive blocks, each in bin binOf(size) and
// every bin in (size, ptr) order with its bitmap bit set exactly when it is
// non-empty, and that the segment and wholly-free-segment counts are right.
func (a *Allocator) CheckInvariants() error {
	binned := map[*block]bool{}
	for _, p := range []*pool{&a.small, &a.large} {
		if err := p.checkBins(binned); err != nil {
			return err
		}
	}
	whole := map[*pool]int{}
	segs, inactive := 0, 0
	for seg := a.segs; seg != nil; seg = seg.next {
		segs++
		if blk := seg.first; !blk.allocated && blk.whole() {
			whole[seg.pool]++
		}
		var total int64
		prevInactive := false
		for blk := seg.first; blk != nil; blk = blk.next {
			if blk.seg != seg {
				return fmt.Errorf("caching: block segment pointer mismatch")
			}
			if blk.ptr != seg.first.ptr+cuda.DevicePtr(total) {
				return fmt.Errorf("caching: block chain has a gap at %#x", uint64(blk.ptr))
			}
			if blk.next != nil && blk.next.prev != blk {
				return fmt.Errorf("caching: broken block chain links")
			}
			if !blk.allocated {
				if prevInactive {
					return fmt.Errorf("caching: adjacent inactive blocks not merged")
				}
				if !binned[blk] {
					return fmt.Errorf("caching: inactive block at %#x missing from its bin", uint64(blk.ptr))
				}
				inactive++
			}
			prevInactive = !blk.allocated
			total += blk.size
		}
		if total != seg.size {
			return fmt.Errorf("caching: segment tiles %d of %d bytes", total, seg.size)
		}
	}
	if segs != a.nsegs {
		return fmt.Errorf("caching: counts %d segments, lists %d", a.nsegs, segs)
	}
	if inactive != len(binned) {
		return fmt.Errorf("caching: bins hold %d blocks, segments %d inactive ones", len(binned), inactive)
	}
	for _, p := range []*pool{&a.small, &a.large} {
		if p.whole != whole[p] {
			return fmt.Errorf("caching: pool counts %d wholly free segments, has %d", p.whole, whole[p])
		}
	}
	return nil
}
