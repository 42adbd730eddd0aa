package container

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// insert links a fresh node holding v, keyed by v alone, into t and
// returns it.
func insert(t *Tree[int], v int) *Node[int] {
	n := &Node[int]{Value: v, Key: Key{Hi: int64(v)}}
	t.InsertNode(n)
	return n
}

func treeContents(t *Tree[int]) []int {
	var out []int
	t.Ascend(func(n *Node[int]) bool {
		out = append(out, n.Value)
		return true
	})
	return out
}

func TestTreeInsertAscend(t *testing.T) {
	var tr Tree[int]
	in := []int{5, 3, 8, 1, 9, 7, 2, 6, 4, 0}
	for _, v := range in {
		insert(&tr, v)
	}
	got := treeContents(&tr)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ascend order %v, want %v", got, want)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeKeyOrder pins the key order: Hi first, Lo only between equal His,
// both signed, and equal keys in insertion order.
func TestTreeKeyOrder(t *testing.T) {
	var tr Tree[int]
	keys := []Key{
		{Hi: 1, Lo: math.MinInt64}, {Hi: 0, Lo: math.MaxInt64}, {Hi: -1, Lo: 5},
		{Hi: 1, Lo: -1}, {Hi: math.MinInt64, Lo: 0}, {Hi: 1, Lo: -1}, {Hi: math.MaxInt64, Lo: math.MinInt64},
	}
	for i, k := range keys {
		tr.InsertNode(&Node[int]{Value: i, Key: k})
	}
	want := []int{4, 2, 1, 0, 3, 5, 6}
	if got := treeContents(&tr); !slices.Equal(got, want) {
		t.Fatalf("ascend order %v, want %v", got, want)
	}
}

func TestTreeDuplicates(t *testing.T) {
	var tr Tree[int]
	for i := 0; i < 5; i++ {
		insert(&tr, 7)
	}
	insert(&tr, 3)
	insert(&tr, 9)
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	got := treeContents(&tr)
	want := []int{3, 7, 7, 7, 7, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents %v, want %v", got, want)
		}
	}
}

func TestTreeDeleteByHandle(t *testing.T) {
	var tr Tree[int]
	nodes := make([]*Node[int], 0, 100)
	for i := 0; i < 100; i++ {
		nodes = append(nodes, insert(&tr, i%10))
	}
	// Delete every third node; handles must remain valid for the others.
	for i := 0; i < 100; i += 3 {
		tr.Delete(nodes[i])
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	wantLen := 100 - 34
	if tr.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", tr.Len(), wantLen)
	}
	// Remaining handles still deletable.
	for i := 1; i < 100; i += 3 {
		tr.Delete(nodes[i])
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDeleteStaleHandlePanics(t *testing.T) {
	var tr Tree[int]
	n := insert(&tr, 1)
	tr.Delete(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double Delete did not panic")
		}
	}()
	tr.Delete(n)
}

func TestTreeCeilFloor(t *testing.T) {
	var tr Tree[int]
	for _, v := range []int{10, 20, 30, 40} {
		insert(&tr, v)
	}
	tests := []struct {
		v           int
		ceil, floor int // -1 means nil
	}{
		{5, 10, -1},
		{10, 10, 10},
		{15, 20, 10},
		{40, 40, 40},
		{45, -1, 40},
	}
	for _, tt := range tests {
		c := tr.Ceil(Key{Hi: int64(tt.v)})
		f := tr.Floor(Key{Hi: int64(tt.v)})
		if tt.ceil == -1 && c != nil {
			t.Errorf("Ceil(%d) = %d, want nil", tt.v, c.Value)
		} else if tt.ceil != -1 && (c == nil || c.Value != tt.ceil) {
			t.Errorf("Ceil(%d) = %v, want %d", tt.v, c, tt.ceil)
		}
		if tt.floor == -1 && f != nil {
			t.Errorf("Floor(%d) = %d, want nil", tt.v, f.Value)
		} else if tt.floor != -1 && (f == nil || f.Value != tt.floor) {
			t.Errorf("Floor(%d) = %v, want %d", tt.v, f, tt.floor)
		}
	}
	// A key between two Hi values' Lo ranges: the Lo of the search key
	// decides, not only the Hi.
	if c := tr.Ceil(Key{Hi: 20, Lo: 1}); c == nil || c.Value != 30 {
		t.Errorf("Ceil({20 1}) = %v, want 30", c)
	}
	if f := tr.Floor(Key{Hi: 20, Lo: -1}); f == nil || f.Value != 10 {
		t.Errorf("Floor({20 -1}) = %v, want 10", f)
	}
}

func TestTreeMinMaxEmpty(t *testing.T) {
	var tr Tree[int]
	if tr.Min() != nil || tr.Max() != nil {
		t.Fatal("Min/Max of empty tree should be nil")
	}
	insert(&tr, 1)
	tr.Clear()
	if tr.Len() != 0 || tr.Min() != nil {
		t.Fatal("Clear did not empty the tree")
	}
}

// TestTreeMatchesSortedSlice runs random InsertNode, Delete, Ceil and Floor
// against a reference: a slice of the linked nodes sorted by key, a new
// node going after every equal key. Keys are drawn from few values, so
// duplicates are common, and Lo reaches its extremes. Ceil and Floor must
// return the very node the reference finds, Min and Max its ends, and the
// traversal the whole slice in order.
func TestTreeMatchesSortedSlice(t *testing.T) {
	rng := sim.NewRNG(2024)
	his := []int64{math.MinInt64, -3, 0, 1, 2, math.MaxInt64}
	los := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	randKey := func() Key {
		return Key{Hi: his[rng.Intn(len(his))], Lo: los[rng.Intn(len(los))]}
	}
	var tr Tree[int]
	var ref []*Node[int]
	firstNotBelow := func(k Key) int { // index of the first key >= k
		return sort.Search(len(ref), func(i int) bool { return !ref[i].Key.less(k) })
	}
	firstAbove := func(k Key) int { // index of the first key > k
		return sort.Search(len(ref), func(i int) bool { return k.less(ref[i].Key) })
	}
	at := func(i int) *Node[int] {
		if i < 0 || i >= len(ref) {
			return nil
		}
		return ref[i]
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(ref) == 0:
			n := &Node[int]{Value: step, Key: randKey()}
			tr.InsertNode(n)
			ref = slices.Insert(ref, firstAbove(n.Key), n)
		case op == 1:
			i := rng.Intn(len(ref))
			tr.Delete(ref[i])
			ref = slices.Delete(ref, i, i+1)
		default:
			k := randKey()
			if got, want := tr.Ceil(k), at(firstNotBelow(k)); got != want {
				t.Fatalf("step %d: Ceil(%v) = %v, want %v", step, k, got, want)
			}
			if got, want := tr.Floor(k), at(firstAbove(k)-1); got != want {
				t.Fatalf("step %d: Floor(%v) = %v, want %v", step, k, got, want)
			}
		}
		if tr.Len() != len(ref) || tr.Min() != at(0) || tr.Max() != at(len(ref)-1) {
			t.Fatalf("step %d: Len/Min/Max disagree with the reference", step)
		}
		if step%500 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			i := 0
			tr.Ascend(func(n *Node[int]) bool {
				if n != ref[i] {
					t.Fatalf("step %d: traversal position %d holds %v, want %v", step, i, n, ref[i])
				}
				i++
				return true
			})
		}
	}
}

// TestTreeRandomOps is a randomized property test: after arbitrary insert and
// delete sequences, the tree matches a reference sorted multiset and keeps
// red-black invariants.
func TestTreeRandomOps(t *testing.T) {
	rng := sim.NewRNG(12345)
	var tr Tree[int]
	var ref []int
	handles := map[int][]*Node[int]{}
	for step := 0; step < 5000; step++ {
		if rng.Float64() < 0.6 || len(ref) == 0 {
			v := rng.Intn(200)
			handles[v] = append(handles[v], insert(&tr, v))
			ref = append(ref, v)
		} else {
			v := ref[rng.Intn(len(ref))]
			hs := handles[v]
			h := hs[len(hs)-1]
			handles[v] = hs[:len(hs)-1]
			tr.Delete(h)
			for i, rv := range ref {
				if rv == v {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
		}
		if step%250 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	sort.Ints(ref)
	got := treeContents(&tr)
	if len(got) != len(ref) {
		t.Fatalf("len = %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], ref[i])
		}
	}
}

// TestTreeInsertNodeRelinks flips caller-owned nodes in and out of a tree the
// way a pool block flips between active and inactive: the same node must be
// relinkable any number of times, keep the tree a valid sorted multiset, and
// refuse a double link.
func TestTreeInsertNodeRelinks(t *testing.T) {
	rng := sim.NewRNG(99)
	var tr Tree[int]
	nodes := make([]Node[int], 64)
	for i := range nodes {
		nodes[i].Value = rng.Intn(40)
		nodes[i].Key = Key{Hi: int64(nodes[i].Value)}
	}
	want := map[int]int{}
	for step := 0; step < 4000; step++ {
		n := &nodes[rng.Intn(len(nodes))]
		if n.Linked() {
			tr.Delete(n)
			want[n.Value]--
		} else {
			tr.InsertNode(n)
			want[n.Value]++
		}
		if step%200 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	prev := -1
	for _, v := range treeContents(&tr) {
		if v < prev {
			t.Fatalf("traversal not sorted: %d after %d", v, prev)
		}
		prev = v
		got[v]++
	}
	for v, c := range want {
		if got[v] != c {
			t.Fatalf("value %d linked %d times, tree holds %d", v, c, got[v])
		}
	}

	linked := &Node[int]{Value: 1, Key: Key{Hi: 1}}
	tr.InsertNode(linked)
	defer func() {
		if recover() == nil {
			t.Fatal("InsertNode of a linked node did not panic")
		}
	}()
	tr.InsertNode(linked)
}

// TestTreeQuickSorted uses testing/quick: inserting any slice yields a sorted
// traversal of the same multiset.
func TestTreeQuickSorted(t *testing.T) {
	f := func(vals []int16) bool {
		var tr Tree[int]
		for _, v := range vals {
			insert(&tr, int(v))
		}
		if err := tr.checkInvariants(); err != nil {
			return false
		}
		got := treeContents(&tr)
		want := make([]int, len(vals))
		for i, v := range vals {
			want[i] = int(v)
		}
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// push links a fresh node holding v at the back of q.
func push[T any](q *Queue[T], v T) *QueueNode[T] {
	n := &QueueNode[T]{Value: v}
	q.PushNode(n)
	return n
}

func TestQueueBasic(t *testing.T) {
	var q Queue[string]
	a := push(&q, "a")
	b := push(&q, "b")
	c := push(&q, "c")
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.Front() != a {
		t.Fatal("Front should be a")
	}
	q.MoveToBack(a) // order: b c a
	if q.Front() != b {
		t.Fatal("Front should be b after MoveToBack(a)")
	}
	q.Remove(c) // order: b a
	var got []string
	q.Each(func(v string) bool { got = append(got, v); return true })
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Each order %v, want [b a]", got)
	}
	q.Remove(b)
	q.Remove(a)
	if q.Len() != 0 || q.Front() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestQueueRemoveStalePanics(t *testing.T) {
	var q Queue[int]
	n := push(&q, 1)
	q.Remove(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double Remove did not panic")
		}
	}()
	q.Remove(n)
}

// TestQueueNodeReuse pins that a node Remove unlinked can be pushed again,
// and that pushing a node still in a queue panics.
func TestQueueNodeReuse(t *testing.T) {
	var q Queue[int]
	a, b := push(&q, 1), push(&q, 2)
	q.Remove(a)
	a.Value = 3
	q.PushNode(a)
	var got []int
	q.Each(func(v int) bool { got = append(got, v); return true })
	if len(got) != 2 || got[0] != 2 || got[1] != 3 || q.Front() != b {
		t.Fatalf("after reusing a node the queue reads %v, want [2 3]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PushNode of a linked node did not panic")
		}
	}()
	q.PushNode(b)
}

func TestQueueMoveToBackSingle(t *testing.T) {
	var q Queue[int]
	n := push(&q, 1)
	q.MoveToBack(n) // no-op, must not corrupt
	if q.Front() != n || q.Len() != 1 {
		t.Fatal("MoveToBack on singleton corrupted the queue")
	}
}

func TestQueueLRUPattern(t *testing.T) {
	var q Queue[int]
	nodes := make([]*QueueNode[int], 10)
	for i := range nodes {
		nodes[i] = push(&q, i)
	}
	// Touch evens; odds should be evicted first.
	for i := 0; i < 10; i += 2 {
		q.MoveToBack(nodes[i])
	}
	var order []int
	q.Each(func(v int) bool { order = append(order, v); return true })
	want := []int{1, 3, 5, 7, 9, 0, 2, 4, 6, 8}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LRU order %v, want %v", order, want)
		}
	}
}

// TestSparesReuse pins the free list's contract: Get hands back the most
// recently kept record as it was, and takes a slab entry only when none is
// kept.
func TestSparesReuse(t *testing.T) {
	var s Spares[[2]int]
	a, b := s.Get(), s.Get()
	if a == b {
		t.Fatal("two Gets from an empty list returned the same record")
	}
	a[0], b[0] = 1, 2
	s.Put(a)
	s.Put(b)
	if got := s.Get(); got != b || got[0] != 2 {
		t.Fatalf("Get = %v, want the last record kept, unchanged", got)
	}
	if got := s.Get(); got != a {
		t.Fatal("Get did not return the earlier record")
	}
	if n := testing.AllocsPerRun(100, func() { s.Put(s.Get()) }); n != 0 {
		t.Fatalf("a warm Get/Put pair allocates %v times, want 0", n)
	}
	// With none kept, Gets take zero records from slabs of 1, 3, …, 127
	// and then 255: 1 000 of them allocate ten slabs.
	fresh := func() {
		var f Spares[[2]int]
		for range 1000 {
			if r := f.Get(); *r != [2]int{} {
				t.Fatalf("a slab record holds %v, want zero", *r)
			}
		}
	}
	if n := testing.AllocsPerRun(1, fresh); n != 10 {
		t.Fatalf("1 000 Gets from a fresh list allocate %v times, want 10", n)
	}
}
