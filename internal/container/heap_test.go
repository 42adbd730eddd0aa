package container

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// cmpKey is Key's order as a three-way comparison, for the slices package.
func cmpKey(a, b Key) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// heapMatchesSorted pushes n random keys, drawn from few Hi values so that
// Lo decides often, popping one after about every fourth push when
// interleave is set, as the spine does between pushes, and then drains the
// heap. Every Peek and Pop must return the reference's minimum — a sorted
// slice of the keys held — with the value pushed under it.
func heapMatchesSorted(t *testing.T, rng *sim.RNG, n int, interleave bool) {
	t.Helper()
	var h Heap[int]
	var ref []Key
	pop := func() {
		pk, pv := h.Peek()
		k, v := h.Pop()
		if pk != k || pv != v {
			t.Fatalf("n=%d: Peek (%v, %d) but Pop (%v, %d)", n, pk, pv, k, v)
		}
		// The value encodes the key it was pushed under.
		if k != ref[0] || int64(v) != k.Hi<<8|k.Lo {
			t.Fatalf("n=%d: pop (%v, %d), want key %v", n, k, v, ref[0])
		}
		ref = ref[1:]
	}
	for i := 0; i < n; i++ {
		k := Key{Hi: int64(rng.Intn(64)), Lo: int64(rng.Intn(256))}
		h.Push(k, int(k.Hi<<8|k.Lo))
		at, _ := slices.BinarySearchFunc(ref, k, cmpKey)
		ref = slices.Insert(ref, at, k)
		if interleave && rng.Intn(4) == 0 {
			pop()
		}
	}
	if h.Len() != len(ref) {
		t.Fatalf("n=%d: Len %d, want %d", n, h.Len(), len(ref))
	}
	for h.Len() > 0 {
		pop()
	}
}

// TestHeapSortsArbitraryStreams: pushed all at once, random streams drain
// in sorted Key order.
func TestHeapSortsArbitraryStreams(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, n := range []int{0, 1, 2, 7, 100, 4096} {
		heapMatchesSorted(t, rng, n, false)
	}
}

// TestHeapInterleavedPushPop: with pops between the pushes, every pop is
// the minimum of what the heap holds at that moment.
func TestHeapInterleavedPushPop(t *testing.T) {
	rng := sim.NewRNG(43)
	for _, n := range []int{1, 2, 7, 100, 4096} {
		heapMatchesSorted(t, rng, n, true)
	}
}

// TestHeapReplaceTopMatchesPopPush: seeded random sequences of Push, Pop
// and ReplaceTop pop the same (key, value) order as the same sequences with
// each ReplaceTop done as a Pop followed by a Push. Keys repeat their Hi
// often, and their Lo, a draw counter, makes each unique, so the order is
// fully determined; the value encodes the key.
func TestHeapReplaceTopMatchesPopPush(t *testing.T) {
	rng := sim.NewRNG(44)
	for round := 0; round < 200; round++ {
		var h, ref Heap[int64]
		var drawn int64
		ops := 1 + rng.Intn(600)
		for i := 0; i < ops; i++ {
			drawn++
			k := Key{Hi: int64(rng.Intn(32)), Lo: drawn}
			v := k.Hi<<32 | k.Lo
			switch op := rng.Intn(3); {
			case h.Len() == 0 || op == 0:
				h.Push(k, v)
				ref.Push(k, v)
			case op == 1:
				hk, hv := h.Pop()
				rk, rv := ref.Pop()
				if hk != rk || hv != rv {
					t.Fatalf("round %d op %d: Pop (%v, %d), reference (%v, %d)", round, i, hk, hv, rk, rv)
				}
			default:
				h.ReplaceTop(k, v)
				ref.Pop()
				ref.Push(k, v)
			}
			if h.Len() != ref.Len() {
				t.Fatalf("round %d op %d: Len %d, reference %d", round, i, h.Len(), ref.Len())
			}
		}
		for h.Len() > 0 {
			hk, hv := h.Pop()
			rk, rv := ref.Pop()
			if hk != rk || hv != rv || hv != hk.Hi<<32|hk.Lo {
				t.Fatalf("round %d drain: Pop (%v, %d), reference (%v, %d)", round, hk, hv, rk, rv)
			}
		}
	}
}

// TestHeapTieOrdering: among equal Hi the smaller Lo pops first, with both
// halves signed and at their extremes — the (instant, replica) and
// (arrival, session<<32 | turn) orders the simulator keys on.
func TestHeapTieOrdering(t *testing.T) {
	keys := []Key{
		{Hi: 10, Lo: 3}, {Hi: 10, Lo: 1}, {Hi: 5, Lo: 9}, {Hi: 10, Lo: 2},
		{Hi: math.MaxInt64, Lo: math.MinInt64}, {Hi: math.MaxInt64, Lo: 1 << 32}, {Hi: math.MaxInt64, Lo: 0},
		{Hi: -1, Lo: math.MaxInt64}, {Hi: 10, Lo: -7},
	}
	var h Heap[int]
	for i, k := range keys {
		h.Push(k, i)
	}
	want := []int{7, 2, 8, 1, 3, 0, 4, 6, 5}
	for _, w := range want {
		if k, v := h.Pop(); v != w || k != keys[w] {
			t.Fatalf("pop (%v, %d), want (%v, %d)", k, v, keys[w], w)
		}
	}
}

// TestHeapZeroValue: a zero Heap, never constructed, takes pushes and pops,
// and Pop clears the slot it vacates so the heap pins nothing it gave back.
func TestHeapZeroValue(t *testing.T) {
	var h Heap[*int]
	if h.Len() != 0 {
		t.Fatal("zero Heap is not empty")
	}
	a, b := new(int), new(int)
	h.Push(Key{Hi: 2}, b)
	h.Push(Key{Hi: 1}, a)
	if _, v := h.Pop(); v != a {
		t.Fatal("zero Heap popped out of order")
	}
	if h.items[:2][1].v != nil {
		t.Fatal("Pop left a reference in the vacated slot")
	}
	if _, v := h.Pop(); v != b || h.Len() != 0 {
		t.Fatal("zero Heap did not drain")
	}
	if h.items[:1][0].v != nil {
		t.Fatal("the last Pop left a reference in its slot")
	}
}

// TestHeapSteadyStateAllocatesNothing: once its slice has grown, a heap
// pushes, pops and replaces its top without allocating.
func TestHeapSteadyStateAllocatesNothing(t *testing.T) {
	var h Heap[[5]int]
	for i := 0; i < 64; i++ {
		h.Push(Key{Hi: int64(i * 7 % 64)}, [5]int{i})
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		h.Push(Key{Hi: i * 31 % 97, Lo: i}, [5]int{int(i)})
		h.Pop()
		h.ReplaceTop(Key{Hi: i * 17 % 89, Lo: i}, [5]int{int(i)})
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push+Pop+ReplaceTop allocated %v times per run", allocs)
	}
}
