package caching

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// TestBinOf: four bins per power of two of the 512-byte unit, rising with
// size, and every large-pool size up to memalloc.MaxAllocSize has a bitmap
// bit.
func TestBinOf(t *testing.T) {
	for _, tc := range []struct {
		size int64
		bin  int
	}{
		{512, 0}, {1024, 4}, {1536, 6}, {2048, 8}, {2560, 9}, {3072, 10}, {3584, 11},
		{4096, 12}, {SmallBuffer, 48}, {SmallBuffer + 512, 48}, {SmallBuffer * 5 / 4, 49},
	} {
		if got := binOf(tc.size); got != tc.bin {
			t.Errorf("binOf(%d) = %d, want %d", tc.size, got, tc.bin)
		}
	}
	for size, prev := int64(512), 0; size < 64*sim.MiB; size += 512 {
		if b := binOf(size); b < prev {
			t.Fatalf("binOf(%d) = %d falls below binOf(%d) = %d", size, b, size-512, prev)
		} else {
			prev = b
		}
	}
	if b := binOf(memalloc.MaxAllocSize) - binOf(SmallSize); b >= binWords*64 {
		t.Fatalf("the large pool's last bin is %d past its first, beyond the bitmap's %d bits", b, binWords*64)
	}
}

// TestFreeIndexMatchesReference drives a pool's index with seeded random
// inserts, removes and lookups — sizes at bin edges and one unit either
// side, each pool's extremes, requests above every free block — and
// compares every lookup with a naive scan for the smallest (size, ptr) ≥
// (size, 0), checking the index's own invariants after every call.
func TestFreeIndexMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name        string
		least, most int64 // the pool's block sizes
	}{
		{"small", MinBlockSize, SmallBuffer},
		{"large/4GiB", SmallSize, 4 * sim.GiB},
		{"large/80GiB", SmallSize, 80 * sim.GiB},
		{"large/MaxAllocSize", SmallSize, memalloc.MaxAllocSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &pool{base: binOf(tc.least)}
			p.bins = make([]*block, binOf(tc.most)-p.base+1)
			seg := &segment{pool: p}
			var sizes []int64 // the sizes blocks and requests draw from
			for edge := tc.least; edge <= tc.most; edge *= 2 {
				for _, s := range []int64{edge - 512, edge, edge + 512, edge + edge/4, edge + edge/2} {
					if s >= tc.least && s <= tc.most {
						sizes = append(sizes, s)
					}
				}
			}
			sizes = append(sizes, tc.least, tc.most)
			if SmallBuffer >= tc.least && SmallBuffer <= tc.most {
				sizes = append(sizes, SmallBuffer)
			}
			rng := sim.NewRNG(51)
			size := func() int64 {
				if rng.Intn(4) == 0 {
					return RoundSize(tc.least + rng.Int63n(tc.most-tc.least+1))
				}
				return sizes[rng.Intn(len(sizes))]
			}
			var live []*block
			var nextPtr cuda.DevicePtr
			ref := func(want int64) *block {
				var best *block
				for _, b := range live {
					if b.size >= want && (best == nil || b.size < best.size || b.size == best.size && b.ptr < best.ptr) {
						best = b
					}
				}
				return best
			}
			for op := 0; op < 6000; op++ {
				var req int64
				switch r := rng.Intn(10); {
				case r < 4 && len(live) < 300:
					nextPtr += 512 * cuda.DevicePtr(1+rng.Intn(7))
					// Equal sizes at random addresses, not only rising ones.
					ptr := nextPtr
					if rng.Intn(2) == 0 {
						ptr = ^nextPtr &^ 511
					}
					blk := &block{seg: seg, ptr: ptr, size: size()}
					p.insertFree(blk)
					live = append(live, blk)
				case r < 7 && len(live) > 0:
					i := rng.Intn(len(live))
					p.removeFree(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case r < 8:
					// Above every free block.
					req = tc.least
					for _, b := range live {
						req = max(req, b.size+MinBlockSize)
					}
				default:
					req = size()
				}
				if req > 0 {
					if got, want := p.ceil(req), ref(req); got != want {
						t.Fatalf("op %d: ceil(%d) = %v, reference %v (%d free blocks)", op, req, got, want, len(live))
					}
				}
				if err := p.checkBins(map[*block]bool{}); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if p.free != len(live) {
					t.Fatalf("op %d: index counts %d blocks, holds %d", op, p.free, len(live))
				}
			}
		})
	}
}
