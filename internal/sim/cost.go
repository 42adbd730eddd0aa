package sim

import (
	"math"
	"time"
)

// CostModel prices every simulated CUDA driver call in virtual time.
//
// The model is calibrated to the GMLake paper's own measurements:
//
//   - Table 1 gives the latency breakdown of allocating 2 GB through the VMM
//     API (cuMemAddressReserve / cuMemCreate / cuMemMap / cuMemSetAccess) for
//     physical chunk sizes of 2 MB, 128 MB and 1024 MB, normalized to a
//     cudaMalloc of the same total size.
//   - Figure 6 shows the resulting allocation-latency curve, with the 2 MB
//     chunking 115x slower than the native allocator.
//
// We pin cudaMalloc(2 GB) at 1.0 ms (the paper's Figure 6 places the native
// allocator around 1 ms on a log axis) and derive per-chunk costs for the
// three VMM anchor chunk sizes directly from Table 1. Chunk sizes between
// anchors are interpolated log-log, which reproduces the smooth Figure 6
// sweep across 2 MB .. 1 GB chunkings.
type CostModel struct {
	// MallocBase and MallocPerGiB price cudaMalloc(size) =
	// MallocBase + size * MallocPerGiB. The defaults pin
	// cudaMalloc(2 GiB) = 1.0 ms.
	MallocBase   time.Duration
	MallocPerGiB time.Duration

	// FreeBase and FreePerGiB price cudaFree's driver work, and FreeSync
	// the implicit device synchronization: cudaFree must wait for every
	// in-flight kernel that may touch the freed memory, so under training
	// traffic each call stalls the compute pipeline for milliseconds. This
	// stall is what makes the native allocator ~10x slower end to end
	// (paper §2.2), not the driver bookkeeping itself.
	FreeBase   time.Duration
	FreePerGiB time.Duration
	FreeSync   time.Duration

	// Reserve prices one cuMemAddressReserve call. Table 1 reports it as
	// effectively constant (~0.003x of cuMalloc) regardless of size.
	Reserve time.Duration

	// Host prices one host-side bookkeeping operation (pool search, split,
	// list surgery) inside a caching allocator. PyTorch's caching allocator
	// serves cache hits in about a microsecond, ~10x faster end-to-end than
	// the native path per the paper's 9.7x observation.
	Host time.Duration

	// anchors holds per-chunk costs for create/map/setAccess at the three
	// calibrated chunk sizes.
	anchors []costAnchor
}

type costAnchor struct {
	size    int64      // chunk size in bytes: 2 MiB, 128 MiB, 1 GiB
	log2MiB float64    // log2 of size in MiB: 1, 7, 10
	ms      [3]float64 // ms per chunk, indexed by chunkOp
}

// chunkOp selects the per-chunk cost an anchor holds.
type chunkOp int

const (
	opCreate chunkOp = iota
	opMap
	opSetAccess
)

// DefaultCostModel returns the model calibrated to the paper (see type docs).
func DefaultCostModel() *CostModel {
	// Table 1, normalized units where cuMalloc(2 GiB) == 1.0 (== 1.0 ms
	// in our pinning). Chunk counts for a 2 GiB allocation: 1024 chunks of
	// 2 MiB, 16 of 128 MiB, 2 of 1024 MiB.
	return &CostModel{
		MallocBase:   300 * time.Microsecond,
		MallocPerGiB: 350 * time.Microsecond,
		FreeBase:     350 * time.Microsecond,
		FreePerGiB:   50 * time.Microsecond,
		FreeSync:     5 * time.Millisecond,
		Reserve:      3 * time.Microsecond,
		Host:         time.Microsecond,
		anchors: []costAnchor{
			// ms: create, map, setAccess.
			{size: 2 * MiB, log2MiB: 1, ms: [3]float64{18.1 / 1024, 0.70 / 1024, 96.8 / 1024}},
			{size: 128 * MiB, log2MiB: 7, ms: [3]float64{0.89 / 16, 0.01 / 16, 8.2 / 16}},
			{size: GiB, log2MiB: 10, ms: [3]float64{0.79 / 2, 0.002 / 2, 0.7 / 2}},
		},
	}
}

// CudaMalloc returns the cost of one native cudaMalloc of size bytes.
func (m *CostModel) CudaMalloc(size int64) time.Duration {
	return m.MallocBase + scalePerGiB(m.MallocPerGiB, size)
}

// CudaFree returns the cost of one native cudaFree of size bytes, including
// the implicit device synchronization (see FreeSync).
func (m *CostModel) CudaFree(size int64) time.Duration {
	return m.FreeBase + m.FreeSync + scalePerGiB(m.FreePerGiB, size)
}

// MemAddressReserve returns the cost of one cuMemAddressReserve call.
// Per Table 1 the cost is size-independent.
func (m *CostModel) MemAddressReserve(size int64) time.Duration { return m.Reserve }

// MemAddressFree returns the cost of one cuMemAddressFree call.
func (m *CostModel) MemAddressFree(size int64) time.Duration { return m.Reserve }

// MemCreate returns the cost of one cuMemCreate of one physical chunk of
// chunkSize bytes.
func (m *CostModel) MemCreate(chunkSize int64) time.Duration {
	return m.perChunk(chunkSize, opCreate)
}

// MemMap returns the cost of one cuMemMap of one chunk of chunkSize bytes.
func (m *CostModel) MemMap(chunkSize int64) time.Duration {
	return m.perChunk(chunkSize, opMap)
}

// MemSetAccess returns the cost of one cuMemSetAccess covering one chunk of
// chunkSize bytes.
func (m *CostModel) MemSetAccess(chunkSize int64) time.Duration {
	return m.perChunk(chunkSize, opSetAccess)
}

// MemUnmap returns the cost of one cuMemUnmap of one chunk. Unmapping prices
// like mapping.
func (m *CostModel) MemUnmap(chunkSize int64) time.Duration {
	return m.MemMap(chunkSize)
}

// MemRelease returns the cost of one cuMemRelease of one chunk. Releasing
// physical memory is cheaper than creating it; we price it at 20% of create.
func (m *CostModel) MemRelease(chunkSize int64) time.Duration {
	return m.MemCreate(chunkSize) / 5
}

// HostOp returns the cost of one host-side allocator bookkeeping operation.
func (m *CostModel) HostOp() time.Duration { return m.Host }

// perChunk interpolates a per-chunk cost (in calibrated milliseconds) across
// the anchor table, log-log in chunk size, and converts to a duration. A
// size at or outside the outer anchors takes that anchor's cost without a
// logarithm: GMLake maps 2 MiB chunks, so that is the hot case.
func (m *CostModel) perChunk(chunkSize int64, op chunkOp) time.Duration {
	if chunkSize <= 0 {
		return 0
	}
	a := m.anchors
	var ms float64
	switch first, last := &a[0], &a[len(a)-1]; {
	case chunkSize <= first.size:
		ms = first.ms[op]
	case chunkSize >= last.size:
		ms = last.ms[op]
	default:
		x := math.Log2(float64(chunkSize) / float64(MiB))
		for i := 0; i+1 < len(a); i++ {
			lo, hi := &a[i], &a[i+1]
			if x > hi.log2MiB {
				continue
			}
			t := (x - lo.log2MiB) / (hi.log2MiB - lo.log2MiB)
			// Interpolate in log(cost) so the Figure 6 curve is smooth
			// on its log axis.
			ms = math.Exp(float64(math.Log(lo.ms[op])*(1-t)) + float64(math.Log(hi.ms[op])*t))
			break
		}
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func scalePerGiB(perGiB time.Duration, size int64) time.Duration {
	return time.Duration(float64(perGiB) * float64(size) / float64(GiB))
}
