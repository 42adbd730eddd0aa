package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// runOpSeq drives a compact encoding of an alloc/free sequence: non-negative
// values allocate (the value scales the size), negative values free a live
// buffer picked by the value. CheckInvariants runs after every operation, so
// an index that drifts is caught at the operation that broke it, not at the
// end of the run, and checkReaders after every oracleEvery-th: the readers
// prune as they go, so 1 compares them at every state and a longer stride
// lets stale entries pile up across operations before they are read.
func runOpSeq(t *testing.T, a *Allocator, ops []int16, oracleEvery int) (live []*memalloc.Buffer, ok bool) {
	for i, op := range ops {
		if op >= 0 {
			size := (int64(op)%1024 + 1) * sim.MiB
			if b, err := a.Alloc(size); err == nil {
				live = append(live, b)
			}
		} else if len(live) > 0 {
			j := int(-(op + 1)) % len(live)
			a.Free(live[j])
			live = append(live[:j], live[j+1:]...)
		}
		err := a.CheckInvariants()
		if err == nil && i%oracleEvery == 0 {
			err = checkReaders(a)
		}
		if err != nil {
			t.Logf("after op %d (%d): %v", i, op, err)
			return live, false
		}
	}
	return live, true
}

// checkReaders is the eager oracle for the lazy indexes: what the pools'
// readers return must equal a from-scratch recomputation over every block.
// For each live sBlock size, sPool.findExact must return the lowest-addressed
// unassigned sBlock whose members are all inactive; pPool.ceil+next, and
// max+prev backwards, must enumerate exactly the inactive pBlocks in
// (size, VA) order.
func checkReaders(a *Allocator) error {
	want := make(map[int64]*SBlock)
	for s := range a.sblocks.all {
		if _, seen := want[s.size]; !seen {
			want[s.size] = nil
		}
		active := slices.ContainsFunc(s.members, (*PBlock).Active)
		if s.Active() != active {
			return fmt.Errorf("sBlock.Active() = %v with active members = %v", s.Active(), active)
		}
		if s.assigned || active {
			continue
		}
		if best := want[s.size]; best == nil || s.va < best.va {
			want[s.size] = s
		}
	}
	for size, s := range want {
		if got := a.sblocks.findExact(size); got != s {
			return fmt.Errorf("sPool.findExact(%d) = %v, brute force finds %v", size, got, s)
		}
	}

	var inactive []*PBlock
	for p := range a.pblocks.all {
		if !p.Active() {
			inactive = append(inactive, p)
		}
	}
	slices.SortFunc(inactive, func(x, y *PBlock) int {
		return cmp.Or(cmp.Compare(x.size, y.size), cmp.Compare(x.va, y.va))
	})
	var up, down []*PBlock
	for n := a.pblocks.ceil(0); n != nil; n = a.pblocks.next(n) {
		up = append(up, n.Value)
	}
	for n := a.pblocks.max(); n != nil; n = a.pblocks.prev(n) {
		down = append(down, n.Value)
	}
	slices.Reverse(down)
	if !slices.Equal(up, inactive) || !slices.Equal(down, inactive) {
		return fmt.Errorf("pPool walks return %d ascending and %d descending, brute force finds %d inactive pBlocks (or in another order)",
			len(up), len(down), len(inactive))
	}
	return nil
}

// quickInvariants drives arbitrary alloc/free sequences over a fresh
// allocator each and checks the §4.2.1 structural invariants throughout,
// device-accounting agreement, and a leak-free teardown. It returns the
// allocators' summed GC runs and StitchFree evictions and the most stitched
// views any pBlock carried, so callers can assert the sequences reached the
// paths they are meant to cover. Alternate sequences run the reader oracle
// after every operation and after every fifth.
func quickInvariants(t *testing.T, capacity int64, cfg Config, count int) (gcRuns, stitchFrees int64, maxOwners int) {
	seqs := 0
	f := func(ops []int16) bool {
		dev := gpu.NewDevice("q", capacity)
		drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
		a := New(drv, cfg)
		oracleEvery := 1
		if seqs++; seqs%2 == 0 {
			oracleEvery = 5
		}
		live, ok := runOpSeq(t, a, ops, oracleEvery)
		if !ok {
			return false
		}
		for p := range a.pblocks.all {
			maxOwners = max(maxOwners, len(p.owners))
		}
		// Reserved must equal what the device has handed out.
		if a.Stats().Reserved != dev.Used() {
			t.Logf("reserved %d != device used %d", a.Stats().Reserved, dev.Used())
			return false
		}
		for _, b := range live {
			a.Free(b)
		}
		if err := checkReaders(a); err != nil {
			t.Logf("with everything freed: %v", err)
			return false
		}
		gcRuns += a.GCRuns()
		stitchFrees += a.StitchFreeCount()
		a.EmptyCache()
		if dev.Used() != 0 {
			t.Logf("device leak: %d", dev.Used())
			return false
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
	return gcRuns, stitchFrees, maxOwners
}

// TestQuickInvariants checks the structural invariants after every operation
// of arbitrary sequences under the default configuration.
func TestQuickInvariants(t *testing.T) {
	quickInvariants(t, 8*sim.GiB, DefaultConfig(), 60)
}

// TestQuickInvariantsDestroyOnSplit re-runs the structural property test
// under the ablation configuration.
func TestQuickInvariantsDestroyOnSplit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RebindOnSplit = false
	quickInvariants(t, 8*sim.GiB, cfg, 40)
}

// TestQuickInvariantsUnderEviction shrinks the device and the stitched pool
// until the sequences run the GC fallback and StitchFree while sBlocks share
// member pBlocks — the teardown paths that must keep owners, watcher lists
// and the size-class heaps in step — under both split semantics.
func TestQuickInvariantsUnderEviction(t *testing.T) {
	for _, rebind := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.MaxSBlocks = 6
		cfg.RebindOnSplit = rebind
		gcRuns, stitchFrees, maxOwners := quickInvariants(t, 2*sim.GiB, cfg, 60)
		if gcRuns == 0 || stitchFrees == 0 || maxOwners < 2 {
			t.Fatalf("rebind=%v: %d GC runs, %d StitchFree evictions, at most %d views over one pBlock: sequences missed the paths under test",
				rebind, gcRuns, stitchFrees, maxOwners)
		}
	}
}

// TestQuickActiveNeverExceedsReserved holds by construction but is the
// paper's core accounting identity; check it across random sequences.
func TestQuickActiveNeverExceedsReserved(t *testing.T) {
	f := func(ops []int16) bool {
		dev := gpu.NewDevice("q", 4*sim.GiB)
		drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
		a := NewDefault(drv)
		var live []*memalloc.Buffer
		for _, op := range ops {
			if op >= 0 {
				size := (int64(op)%512 + 1) * sim.MiB
				if b, err := a.Alloc(size); err == nil {
					live = append(live, b)
				}
			} else if len(live) > 0 {
				a.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
			st := a.Stats()
			if st.Active > st.Reserved {
				return false
			}
		}
		for _, b := range live {
			a.Free(b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRebindOnSplitPreservesSBlocks verifies the rebind extension directly:
// splitting a pBlock that cached sBlocks reference must keep those sBlocks
// alive and exactly-matchable.
func TestRebindOnSplitPreservesSBlocks(t *testing.T) {
	dev := gpu.NewDevice("t", 4*sim.GiB)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	a := NewDefault(drv)

	// Build a 600 MiB stitched block over two pBlocks.
	b1 := mustAlloc(t, a, 200*sim.MiB)
	b2 := mustAlloc(t, a, 400*sim.MiB)
	a.Free(b1)
	a.Free(b2)
	big := mustAlloc(t, a, 600*sim.MiB)
	a.Free(big)
	sBefore := a.SBlockCount()

	// Split the 400 MiB member via a smaller request (S2).
	small := mustAlloc(t, a, 300*sim.MiB)
	if a.SBlockCount() < sBefore {
		t.Fatalf("split destroyed cached sBlocks: %d -> %d", sBefore, a.SBlockCount())
	}
	a.Free(small)
	checkInv(t, a)

	// The 600 MiB view must still exact-match (S1), with no new stitch.
	_, _, s3Before, _ := a.StrategyCounts()
	again := mustAlloc(t, a, 600*sim.MiB)
	_, _, s3After, _ := a.StrategyCounts()
	if s3After != s3Before {
		t.Fatal("600 MiB request re-stitched; rebind failed to preserve the cached view")
	}
	a.Free(again)
	checkInv(t, a)
}

// TestDestroyOnSplitAblation runs the same scenario with the paper's literal
// semantics: the cached view dies with the split and the request re-stitches.
func TestDestroyOnSplitAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RebindOnSplit = false
	dev := gpu.NewDevice("t", 4*sim.GiB)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	a := New(drv, cfg)

	b1 := mustAlloc(t, a, 200*sim.MiB)
	b2 := mustAlloc(t, a, 400*sim.MiB)
	a.Free(b1)
	a.Free(b2)
	big := mustAlloc(t, a, 600*sim.MiB)
	a.Free(big)

	small := mustAlloc(t, a, 300*sim.MiB)
	a.Free(small)
	checkInv(t, a)

	_, _, s3Before, _ := a.StrategyCounts()
	again := mustAlloc(t, a, 600*sim.MiB)
	_, _, s3After, _ := a.StrategyCounts()
	if s3After == s3Before {
		t.Fatal("expected a re-stitch under destroy-on-split semantics")
	}
	a.Free(again)
	checkInv(t, a)
}

// TestVASpaceReleasedOnEmptyCache confirms no virtual address space leaks
// across heavy stitch/split churn followed by a full GC.
func TestVASpaceReleasedOnEmptyCache(t *testing.T) {
	dev := gpu.NewDevice("t", 8*sim.GiB)
	drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
	a := NewDefault(drv)
	rng := sim.NewRNG(11)
	var live []*memalloc.Buffer
	for i := 0; i < 600; i++ {
		if rng.Float64() < 0.55 {
			if b, err := a.Alloc((rng.Int63n(512) + 1) * sim.MiB); err == nil {
				live = append(live, b)
			}
		} else if len(live) > 0 {
			j := rng.Intn(len(live))
			a.Free(live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
	for _, b := range live {
		a.Free(b)
	}
	a.EmptyCache()
	if got := dev.VAFragments(); got != 1 {
		t.Fatalf("virtual address space fragmented into %d pieces after full GC, want 1", got)
	}
}

// TestSizeClassHeapOrder drives one size class's heap with random
// pushes and removals from the middle and checks, after each, the heap order
// (so the top is the minimum) and every recorded position against the slot
// holding it.
func TestSizeClassHeapOrder(t *testing.T) {
	rng := sim.NewRNG(3)
	var c sClass
	var in []*SBlock
	for op := 0; op < 5000; op++ {
		if len(in) == 0 || rng.Float64() < 0.55 {
			s := &SBlock{va: cuda.DevicePtr(rng.Int63n(1 << 40)), heapPos: -1}
			c.push(s)
			in = append(in, s)
		} else {
			j := rng.Intn(len(in))
			c.remove(in[j])
			if in[j].heapPos != -1 {
				t.Fatalf("op %d: removed sBlock keeps position %d", op, in[j].heapPos)
			}
			in = append(in[:j], in[j+1:]...)
		}
		if len(c.avail) != len(in) {
			t.Fatalf("op %d: heap holds %d, want %d", op, len(c.avail), len(in))
		}
		for i, s := range c.avail {
			if int(s.heapPos) != i {
				t.Fatalf("op %d: slot %d holds an sBlock recording position %d", op, i, s.heapPos)
			}
			if i > 0 && c.avail[(i-1)/2].va > s.va {
				t.Fatalf("op %d: slot %d (va %d) sits under a higher parent (va %d)", op, i, s.va, c.avail[(i-1)/2].va)
			}
		}
	}
}

// TestBlockSizeClasses keeps the watcher links, heap position and scan hint
// from pushing either block into a larger allocation size class than the one
// it had with eager propagation (80 and 128 bytes): blocks are allocated on
// every stitch and split.
func TestBlockSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(SBlock{}); got > 80 {
		t.Errorf("SBlock is %d bytes, want <= 80", got)
	}
	if got := unsafe.Sizeof(PBlock{}); got > 128 {
		t.Errorf("PBlock is %d bytes, want <= 128", got)
	}
}
