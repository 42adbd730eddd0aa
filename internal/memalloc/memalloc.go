// Package memalloc defines the allocator interface shared by the baseline
// caching allocator and GMLake, plus the trivial native (cudaMalloc-only)
// allocator and the statistics all of them report.
//
// The interface mirrors what a DL framework's tensor allocator needs:
// allocate, free, query statistics, and drop caches under memory pressure.
package memalloc

import (
	"fmt"

	"repro/internal/cuda"
)

// MaxAllocSize is the largest request a pool allocator takes: 1 PiB, far
// above any modelled device and far below where rounding a request up to
// 2 MiB would wrap past MaxInt64.
const MaxAllocSize = 1 << 50

// TooLargeError is a pool allocator's refusal of a request above
// MaxAllocSize, made before any rounding and changing no state. No device
// could hold the request, so it wraps cuda.ErrOutOfMemory.
type TooLargeError struct {
	Allocator string
	Size      int64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("%s: Alloc(%d) is above the %d-byte request limit: %v", e.Allocator, e.Size, int64(MaxAllocSize), cuda.ErrOutOfMemory)
}

// Unwrap makes errors.Is(err, cuda.ErrOutOfMemory) hold.
func (e *TooLargeError) Unwrap() error { return cuda.ErrOutOfMemory }

// Buffer is one live tensor allocation. BlockSize is the (possibly rounded
// or split) block actually assigned, which is what "active memory" accounts
// in the paper's utilization metric; the tensor's own byte size is its
// caller's to keep. The handle is 32 bytes. Every allocator call returns a
// fresh one from the allocator's Handles slab, and no handle is ever
// reissued: a freed one stays detached from every block record.
type Buffer struct {
	Ptr       cuda.DevicePtr
	BlockSize int64

	// impl is allocator-private block state.
	impl any
}

// Impl returns the allocator-private state attached to the buffer; only the
// owning allocator should interpret it.
func (b *Buffer) Impl() any { return b.impl }

// SetImpl attaches allocator-private state; for allocator implementations.
func (b *Buffer) SetImpl(v any) { b.impl = v }

// handleSlab caps a Handles slab at 255 handles. Slabs hold 2^k − 1 of
// them — 15, 31, 63, 127, 255 — because a pointer-bearing Go object above
// 512 B carries an 8-byte malloc header, so 32·n + 8 fills the 480 B, 1, 2,
// 4 and 8 KiB size classes exactly.
const handleSlab = 255

// Handles issues an allocator's buffers from slabs it owns, so the common
// Alloc makes no heap object of its own. Each handle is issued once; a live
// one keeps its slab reachable, a freed one (impl detached) no block record.
type Handles struct {
	slab []Buffer
}

// New returns a fresh handle for the block at ptr, starting a new slab when
// the current one is used up.
func (h *Handles) New(ptr cuda.DevicePtr, blockSize int64, impl any) *Buffer {
	if len(h.slab) == cap(h.slab) {
		h.slab = make([]Buffer, 0, min(max(2*cap(h.slab)+1, 15), handleSlab))
	}
	h.slab = append(h.slab, Buffer{Ptr: ptr, BlockSize: blockSize, impl: impl})
	return &h.slab[len(h.slab)-1]
}

// Allocator is the tensor-facing memory allocator interface.
type Allocator interface {
	// Name identifies the allocator in reports ("caching", "gmlake", ...).
	Name() string

	// Alloc returns a buffer of at least size bytes, or an out-of-memory
	// error once every fallback (cache flush, defragmentation) failed.
	//
	// A refusal's error wraps cuda.ErrOutOfMemory (errors.Is finds it).
	// The allocator's state changes only by what a fallback flushed from
	// its cache back to the device; the driver calls the attempt made are
	// counted and their simulated time charged as on success. The error is
	// formatted only when read: a serving loop retries a blocked admission
	// every step and drops the error, so a refusal keeps its numbers in a
	// typed error and formats them in Error().
	Alloc(size int64) (*Buffer, error)

	// Free returns a buffer. Buffers must be freed exactly once.
	Free(b *Buffer)

	// Stats returns a snapshot of the allocator's accounting.
	Stats() Stats

	// EmptyCache releases every cached, currently-unused byte back to the
	// device, like torch.cuda.empty_cache().
	EmptyCache()
}

// Stats is the paper's measurement vocabulary (§5.1): active memory is the
// total of blocks currently assigned to tensors, reserved memory is the
// total set aside from the device. Utilization = peak active / peak
// reserved; fragmentation = 1 - utilization.
type Stats struct {
	Active       int64 // block bytes currently assigned to tensors
	Reserved     int64 // bytes currently reserved from the device
	PeakActive   int64
	PeakReserved int64

	AllocCount int64 // tensor allocations served
	FreeCount  int64 // tensor frees served
}

// Add returns the field-wise sum of s and other: the statistics of an
// allocator made of two pools that take disjoint requests. The peaks add
// too — an upper bound, exact when both pools peak together.
func (s Stats) Add(other Stats) Stats {
	s.Active += other.Active
	s.Reserved += other.Reserved
	s.PeakActive += other.PeakActive
	s.PeakReserved += other.PeakReserved
	s.AllocCount += other.AllocCount
	s.FreeCount += other.FreeCount
	return s
}

// Utilization returns peak active / peak reserved, the paper's utilization
// ratio. A fresh allocator with no traffic reports 1 (no waste).
func (s Stats) Utilization() float64 {
	if s.PeakReserved == 0 {
		return 1
	}
	return float64(s.PeakActive) / float64(s.PeakReserved)
}

// Fragmentation returns 1 - Utilization, the paper's fragmentation ratio.
func (s Stats) Fragmentation() float64 { return 1 - s.Utilization() }

// Accounting tracks the running statistics; embed it in allocators.
type Accounting struct {
	stats Stats
}

// OnAlloc records a block of blockSize bytes becoming active.
func (a *Accounting) OnAlloc(blockSize int64) {
	a.stats.Active += blockSize
	a.stats.AllocCount++
	if a.stats.Active > a.stats.PeakActive {
		a.stats.PeakActive = a.stats.Active
	}
}

// OnFree records a block of blockSize bytes becoming inactive.
func (a *Accounting) OnFree(blockSize int64) {
	a.stats.Active -= blockSize
	a.stats.FreeCount++
}

// OnReserve records bytes reserved from the device.
func (a *Accounting) OnReserve(bytes int64) {
	a.stats.Reserved += bytes
	if a.stats.Reserved > a.stats.PeakReserved {
		a.stats.PeakReserved = a.stats.Reserved
	}
}

// OnRelease records bytes released back to the device.
func (a *Accounting) OnRelease(bytes int64) { a.stats.Reserved -= bytes }

// Stats returns the current snapshot.
func (a *Accounting) Stats() Stats { return a.stats }

// ResetPeaks restarts peak tracking from current levels; harnesses call this
// after warm-up iterations.
func (a *Accounting) ResetPeaks() {
	a.stats.PeakActive = a.stats.Active
	a.stats.PeakReserved = a.stats.Reserved
}
