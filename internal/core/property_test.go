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
// end of the run, and checkReaders after every oracleEvery-th: the sPool's
// lookup clears stale bits as it goes, so 1 compares the readers at every
// state and a longer stride lets stale bits pile up across operations
// before they are read.
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

// pBlocks returns every pBlock the pPool's classes hold.
func pBlocks(a *Allocator) []*PBlock {
	var out []*PBlock
	for _, c := range a.pblocks.classes {
		out = append(out, c.slots...)
	}
	return out
}

// sBlocks returns every sBlock the sPool's classes hold.
func sBlocks(a *Allocator) []*SBlock {
	var out []*SBlock
	for _, c := range a.sblocks.classes {
		out = append(out, c.slots...)
	}
	return out
}

// checkReaders is the brute-force oracle for the pools' readers: what they
// return must equal a from-scratch recomputation over every block.
// For each live sBlock size, sPool.findExact must return the lowest-addressed
// unassigned sBlock whose members are all inactive; pPool.ceil+next, and
// max+prev backwards, must enumerate exactly the inactive pBlocks in
// (size, VA) order. The choices BestFit makes from them are named too: for
// each live pBlock size s, pPool.ceil(s) and ceil(s+ChunkSize) must return
// the first inactive pBlock at or above the argument in that order, and
// pPool.findExact(s) the first among the lowest-addressed nine inactive
// pBlocks of size s with strictly the fewest owners, looking no further once
// one has none.
func checkReaders(a *Allocator) error {
	want := make(map[int64]*SBlock)
	for _, s := range sBlocks(a) {
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
	for _, p := range pBlocks(a) {
		if !p.Active() {
			inactive = append(inactive, p)
		}
	}
	slices.SortFunc(inactive, func(x, y *PBlock) int {
		return cmp.Or(cmp.Compare(x.size, y.size), cmp.Compare(x.va, y.va))
	})
	var up, down []*PBlock
	for p := a.pblocks.ceil(0); p != nil; p = a.pblocks.next(p) {
		up = append(up, p)
	}
	for p := a.pblocks.max(); p != nil; p = a.pblocks.prev(p) {
		down = append(down, p)
	}
	slices.Reverse(down)
	if !slices.Equal(up, inactive) || !slices.Equal(down, inactive) {
		return fmt.Errorf("pPool walks return %d ascending and %d descending, brute force finds %d inactive pBlocks (or in another order)",
			len(up), len(down), len(inactive))
	}
	for _, p := range pBlocks(a) {
		s := p.size
		for _, at := range []int64{s, s + ChunkSize} {
			var want *PBlock
			if i := slices.IndexFunc(inactive, func(q *PBlock) bool { return q.size >= at }); i >= 0 {
				want = inactive[i]
			}
			if got := a.pblocks.ceil(at); got != want {
				return fmt.Errorf("pPool.ceil(%d) = %v, brute force finds %v", at, got, want)
			}
		}
		var want *PBlock
		scanned := 0
		for _, q := range inactive {
			if q.size != s || scanned == 9 || (want != nil && len(want.owners) == 0) {
				continue
			}
			scanned++
			if want == nil || len(q.owners) < len(want.owners) {
				want = q
			}
		}
		if got := a.pblocks.findExact(s); got != want {
			return fmt.Errorf("pPool.findExact(%d) = %v, brute force finds %v", s, got, want)
		}
	}
	return nil
}

// TestFindExactTieBreak builds ten inactive pBlocks of one size with chosen
// owner counts, in VA order, and checks the block an exact-size request gets
// and the reader oracle's verdict: the first with strictly the fewest owners
// among the lowest-addressed nine, looking no further once one has none.
func TestFindExactTieBreak(t *testing.T) {
	const size = 64 * sim.MiB
	for _, tc := range []struct {
		owners []int
		want   int
	}{
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 0, 0}, 8}, // the ninth is the last looked at
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 0}, 0}, // ties keep the lowest address
		{[]int{2, 1, 0, 1, 0, 0, 0, 0, 0, 0}, 2}, // none ends the scan
	} {
		a, _ := newTestAllocator(4 * sim.GiB)
		blocks := make([]*memalloc.Buffer, len(tc.owners))
		for i := range blocks {
			blocks[i] = mustAlloc(t, a, size)
		}
		slices.SortFunc(blocks, func(x, y *memalloc.Buffer) int { return cmp.Compare(x.Ptr, y.Ptr) })
		var partners []*memalloc.Buffer
		for _, n := range tc.owners {
			for range n {
				partners = append(partners, mustAlloc(t, a, ChunkSize))
			}
		}
		// Only blocks[i] and one partner are free while a view is stitched
		// over the two; taking the partner back leaves the view cached.
		for i, n := range tc.owners {
			a.Free(blocks[i])
			for range n {
				a.Free(partners[0])
				a.Free(mustAlloc(t, a, size+ChunkSize))
				mustAlloc(t, a, ChunkSize)
				partners = partners[1:]
			}
			blocks[i] = mustAlloc(t, a, size)
		}
		for i, b := range blocks {
			if got := len(b.Impl().(*PBlock).owners); got != tc.owners[i] {
				t.Fatalf("owners %v: block %d carries %d views", tc.owners, i, got)
			}
			a.Free(b)
		}
		if err := checkReaders(a); err != nil {
			t.Fatalf("owners %v: %v", tc.owners, err)
		}
		if got := mustAlloc(t, a, size); got.Ptr != blocks[tc.want].Ptr {
			t.Errorf("owners %v: got the block at %#x, want block %d at %#x", tc.owners, got.Ptr, tc.want, blocks[tc.want].Ptr)
		}
		checkInv(t, a)
	}
}

// TestLazyWake pins what a pBlock's 1→0 edge does to the views watching it:
// it sets their bits and looks at no other member. View V over {A, B} watches
// B while A is held too, and view W over {C, D} of the same size is available
// at a higher address. Freeing B leaves V's bit set although A is active;
// the exact-size lookup then meets V first, parks it on A and returns W.
func TestLazyWake(t *testing.T) {
	const sa, sb, sc, sd = 200 * sim.MiB, 300 * sim.MiB, 150 * sim.MiB, 350 * sim.MiB
	a, _ := newTestAllocator(2 * sim.GiB)
	step := func(what string) {
		t.Helper()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if err := checkReaders(a); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	bufA, bufB, bufC, bufD := mustAlloc(t, a, sa), mustAlloc(t, a, sb), mustAlloc(t, a, sc), mustAlloc(t, a, sd)
	pa, pb := bufA.Impl().(*PBlock), bufB.Impl().(*PBlock)
	// stitch frees x and y, stitches a view over the two, caches it and
	// takes x and y back, so the view has both members active.
	stitch := func(x, y **memalloc.Buffer) *SBlock {
		sx, sy := (*x).BlockSize, (*y).BlockSize
		a.Free(*x)
		a.Free(*y)
		view := mustAlloc(t, a, sx+sy)
		v, ok := view.Impl().(*SBlock)
		if !ok {
			t.Fatalf("Alloc(%d) over two free pBlocks returned a pBlock", sx+sy)
		}
		a.Free(view)
		*x, *y = mustAlloc(t, a, sx), mustAlloc(t, a, sy)
		step("stitching a view")
		return v
	}
	v := stitch(&bufA, &bufB)
	w := stitch(&bufC, &bufD)
	if v.va >= w.va || v.members[v.hint] != pb || pb.watchers != v || v.class.has(v.slot) {
		t.Fatalf("set-up: want V below W and watching B with its bit clear")
	}
	a.Free(bufC)
	a.Free(bufD)
	step("freeing C and D")

	a.Free(bufB)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !v.class.has(v.slot) || pb.watchers != nil || v.watchNext != nil || pa.watchers != nil {
		t.Fatalf("freeing B: V's bit is %v, B watched %v, A watched %v; want V under its bit and on no list",
			v.class.has(v.slot), pb.watchers != nil, pa.watchers != nil)
	}
	if got := a.sblocks.findExact(sa + sb); got != w {
		t.Fatalf("findExact(%d) = %v, want W %v", sa+sb, got, w)
	}
	if v.class.has(v.slot) || v.members[v.hint] != pa || pa.watchers != v {
		t.Fatalf("findExact left V's bit %v, watching A %v; want it parked on A", v.class.has(v.slot), v.members[v.hint] == pa)
	}
	step("freeing B")

	got := mustAlloc(t, a, sa+sb)
	if got.Ptr != w.va {
		t.Fatalf("Alloc(%d) at %#x, want W at %#x", sa+sb, got.Ptr, w.va)
	}
	step("allocating W")
	a.Free(got)
	a.Free(bufA)
	step("freeing W and A")
	if !v.class.has(v.slot) || pa.watchers != nil {
		t.Fatal("freeing A left V off its bit")
	}
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
		for _, p := range pBlocks(a) {
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
// and the size-class bitmaps in step — under both split semantics.
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

// TestSizeClassIndex drives one size class against a brute-force model, a
// VA-sorted list of (block, bit) pairs: inserts at arbitrary addresses,
// removals from anywhere, and bit flips, growing the class past three
// bitmap words and shrinking it again. After each operation the slots must
// be the model's blocks in its order, each recording its slot, every bit
// must match, and next and prev from every slot must name the model's
// nearest set slot.
func TestSizeClassIndex(t *testing.T) {
	type entry struct {
		s   *SBlock
		bit bool
	}
	rng := sim.NewRNG(3)
	var c sClass
	var model []entry
	grow, peaks := true, 0
	for op := 0; op < 6000; op++ {
		switch n := len(model); {
		case n >= 200 && grow:
			grow = false
			peaks++
		case n <= 20:
			grow = true
		}
		switch r := rng.Float64(); {
		case len(model) == 0 || r < 0.3 && grow || r < 0.15:
			s := &SBlock{va: cuda.DevicePtr(rng.Int63n(1 << 40))}
			c.insert(s)
			i, _ := slices.BinarySearchFunc(model, s.va, func(e entry, va cuda.DevicePtr) int { return cmp.Compare(e.s.va, va) })
			model = slices.Insert(model, i, entry{s, true})
		case r < 0.45:
			i := rng.Intn(len(model))
			c.remove(model[i].s.slot)
			model = slices.Delete(model, i, i+1)
		default:
			i := rng.Intn(len(model))
			if model[i].bit = !model[i].bit; model[i].bit {
				c.set(model[i].s.slot)
			} else {
				c.clear(model[i].s.slot)
			}
		}
		if err := c.check(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if len(c.slots) != len(model) {
			t.Fatalf("op %d: class holds %d blocks, model %d", op, len(c.slots), len(model))
		}
		// nextSet[i] and prevSet[i] are the model's nearest set slots at
		// or after, and at or before, slot i.
		n := len(model)
		nextSet, prevSet := make([]int32, n+1), make([]int32, n)
		nextSet[n] = -1
		for i := n - 1; i >= 0; i-- {
			if nextSet[i] = nextSet[i+1]; model[i].bit {
				nextSet[i] = int32(i)
			}
		}
		for i := range model {
			if prevSet[i] = -1; i > 0 {
				prevSet[i] = prevSet[i-1]
			}
			if model[i].bit {
				prevSet[i] = int32(i)
			}
		}
		for i, e := range model {
			switch {
			case c.slots[i] != e.s || e.s.slot != int32(i):
				t.Fatalf("op %d: slot %d holds the wrong block or it records another slot", op, i)
			case c.has(int32(i)) != e.bit:
				t.Fatalf("op %d: bit %d is %v, model %v", op, i, c.has(int32(i)), e.bit)
			case c.next(int32(i)) != nextSet[i] || c.prev(int32(i)) != prevSet[i]:
				t.Fatalf("op %d: from slot %d next/prev = %d/%d, model %d/%d",
					op, i, c.next(int32(i)), c.prev(int32(i)), nextSet[i], prevSet[i])
			}
		}
		if got := c.next(int32(n)); got != -1 || c.next(0) != nextSet[0] || c.prev(-1) != -1 {
			t.Fatalf("op %d: next past the end = %d, first = %d (model %d)", op, got, c.next(0), nextSet[0])
		}
	}
	if peaks < 2 {
		t.Fatalf("the class grew to 200 blocks %d times, want at least 2", peaks)
	}
}

// TestBlockSizeClasses keeps the watcher links, size-class slots and scan
// hint from pushing either block into a larger allocation size class (80
// and 96 bytes): blocks are allocated on every stitch and split.
func TestBlockSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(SBlock{}); got > 80 {
		t.Errorf("SBlock is %d bytes, want <= 80", got)
	}
	if got := unsafe.Sizeof(PBlock{}); got > 96 {
		t.Errorf("PBlock is %d bytes, want <= 96", got)
	}
}
