// Package container provides the ordered data structures shared by the
// simulator. Two are ordered by the same Key, a pair of integers compared
// inline: a red-black tree ordered multiset (the expandable allocator's
// free list, the driver's and device's address maps, a server's ready
// queue) and a binary min-heap (the cluster's event spine
// and re-dispatch pool, a session class's pending turns). Beside them are a
// small FIFO/LRU queue (GMLake's StitchFree order) and a free list of
// spare records. The caching allocator's free lists are its own size bins,
// not a Tree: under its traffic a few list links beat the tree's pointer
// chasing.
//
// Every tree element embeds its own Node, so the tree never allocates: an
// owner that recycles a dead record reuses the record's node with it. A
// heap holds its entries by value in one reused slice, so a small value
// keeps its sifts cheap.
package container

// Tree is an ordered multiset implemented as a red-black tree. Elements are
// ordered by the Key stored in their node; duplicates (equal keys) are
// allowed and kept in insertion order on the right spine. The zero Tree is
// empty and ready to use.
//
// Every element embeds its own Node, sets its Key, links it with InsertNode
// and keeps it as the handle for O(log n) deletion: that is how the
// allocators remove a specific block or range from an index. The key is a
// snapshot taken by the caller: changing the element's own fields while it
// is linked does not reorder the tree.
type Tree[T any] struct {
	root *Node[T]
	size int
}

// Key is a tree node's or heap entry's sort key, ordered by Hi and then by
// Lo. Every index in the simulator orders by at most two integers — (size,
// address), an address alone (Lo left zero), (reversed rank, ticket),
// (instant, replica) — so a key is compared inline, with no comparator call
// and no search key to build.
type Key struct{ Hi, Lo int64 }

// less orders keys lexicographically.
func (k Key) less(o Key) bool { return k.Hi < o.Hi || k.Hi == o.Hi && k.Lo < o.Lo }

// Node is an element handle inside a Tree.
type Node[T any] struct {
	Value               T
	Key                 Key
	left, right, parent *Node[T]
	red                 bool
	tree                *Tree[T] // owner; nil after removal
}

// Len reports the number of elements in the tree.
func (t *Tree[T]) Len() int { return t.size }

// Linked reports whether n is currently in a tree.
func (n *Node[T]) Linked() bool { return n.tree != nil }

// InsertNode links the caller's node n into the tree under n.Key. n must be
// detached: fresh (a zero Node with Value and Key set, possibly embedded in the
// element itself) or removed by Delete. An element that leaves and re-enters
// a tree many times, like a pool block flipping between active and inactive,
// keeps one node for life instead of allocating one per entry.
func (t *Tree[T]) InsertNode(n *Node[T]) {
	if n.tree != nil {
		panic("container: InsertNode of node already in a tree")
	}
	k := n.Key
	n.red, n.tree = true, t
	var parent *Node[T]
	cur := t.root
	for cur != nil {
		parent = cur
		if k.less(cur.Key) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	n.parent = parent
	switch {
	case parent == nil:
		t.root = n
	case k.less(parent.Key):
		parent.left = n
	default:
		parent.right = n
	}
	t.size++
	t.insertFixup(n)
}

// Delete removes the node n from the tree. It panics if n does not belong to
// this tree (including if it was already deleted), because silently ignoring
// a stale handle would mask pool-accounting bugs in the allocators.
func (t *Tree[T]) Delete(n *Node[T]) {
	if n == nil || n.tree != t {
		panic("container: Delete of node not in tree")
	}
	t.remove(n)
	n.tree = nil
	n.left, n.right, n.parent = nil, nil, nil
	t.size--
}

// Min returns the smallest element's node, or nil if the tree is empty.
func (t *Tree[T]) Min() *Node[T] {
	if t.root == nil {
		return nil
	}
	return t.root.min()
}

// Max returns the largest element's node, or nil if the tree is empty.
func (t *Tree[T]) Max() *Node[T] {
	if t.root == nil {
		return nil
	}
	return t.root.max()
}

// Next returns the in-order successor of n, or nil.
func (t *Tree[T]) Next(n *Node[T]) *Node[T] { return n.next() }

// Ceil returns the first node whose key is >= k, or nil if all keys are
// smaller.
func (t *Tree[T]) Ceil(k Key) *Node[T] {
	var best *Node[T]
	cur := t.root
	for cur != nil {
		if cur.Key.less(k) {
			cur = cur.right
		} else {
			best = cur
			cur = cur.left
		}
	}
	return best
}

// Floor returns the last node whose key is <= k, or nil if all keys are
// greater.
func (t *Tree[T]) Floor(k Key) *Node[T] {
	var best *Node[T]
	cur := t.root
	for cur != nil {
		if k.less(cur.Key) {
			cur = cur.left
		} else {
			best = cur
			cur = cur.right
		}
	}
	return best
}

// Ascend calls fn for each element in ascending order until fn returns false.
func (t *Tree[T]) Ascend(fn func(n *Node[T]) bool) {
	for n := t.Min(); n != nil; n = n.next() {
		if !fn(n) {
			return
		}
	}
}

// Clear removes all elements.
func (t *Tree[T]) Clear() {
	t.root = nil
	t.size = 0
}

func (n *Node[T]) min() *Node[T] {
	for n.left != nil {
		n = n.left
	}
	return n
}

func (n *Node[T]) max() *Node[T] {
	for n.right != nil {
		n = n.right
	}
	return n
}

func (n *Node[T]) next() *Node[T] {
	if n.right != nil {
		return n.right.min()
	}
	p := n.parent
	for p != nil && n == p.right {
		n, p = p, p.parent
	}
	return p
}

func isRed[T any](n *Node[T]) bool { return n != nil && n.red }

func (t *Tree[T]) rotateLeft(x *Node[T]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[T]) rotateRight(x *Node[T]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[T]) insertFixup(z *Node[T]) {
	for isRed(z.parent) {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if isRed(u) {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.red = false
				gp.red = true
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if isRed(u) {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.red = false
				gp.red = true
				t.rotateLeft(gp)
			}
		}
	}
	t.root.red = false
}

// remove implements CLRS delete with a transplant that swaps node identity so
// external handles stay valid: when the node to delete has two children we
// splice out its successor and move the successor's links, not its value.
func (t *Tree[T]) remove(z *Node[T]) {
	var x, xParent *Node[T]
	y := z
	yWasRed := y.red
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right.min()
		yWasRed = y.red
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.red = z.red
	}
	if !yWasRed {
		t.deleteFixup(x, xParent)
	}
}

func (t *Tree[T]) transplant(u, v *Node[T]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree[T]) deleteFixup(x, parent *Node[T]) {
	for x != t.root && !isRed(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if isRed(w) {
				w.red = false
				parent.red = true
				t.rotateLeft(parent)
				w = parent.right
			}
			if !isRed(w.left) && !isRed(w.right) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if !isRed(w.right) {
					w.left.red = false
					w.red = true
					t.rotateRight(w)
					w = parent.right
				}
				w.red = parent.red
				parent.red = false
				w.right.red = false
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if isRed(w) {
				w.red = false
				parent.red = true
				t.rotateRight(parent)
				w = parent.left
			}
			if !isRed(w.left) && !isRed(w.right) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if !isRed(w.left) {
					w.right.red = false
					w.red = true
					t.rotateLeft(w)
					w = parent.left
				}
				w.red = parent.red
				parent.red = false
				w.left.red = false
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.red = false
	}
}

// checkInvariants validates red-black properties; used by tests.
func (t *Tree[T]) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	if t.root.red {
		return errRootRed
	}
	_, err := t.check(t.root)
	return err
}

type rbError string

func (e rbError) Error() string { return string(e) }

const (
	errRootRed   = rbError("container: root is red")
	errRedRed    = rbError("container: red node with red child")
	errBlackH    = rbError("container: unequal black heights")
	errOrder     = rbError("container: ordering violated")
	errParentPtr = rbError("container: bad parent pointer")
)

func (t *Tree[T]) check(n *Node[T]) (blackHeight int, err error) {
	if n == nil {
		return 1, nil
	}
	if n.left != nil {
		if n.left.parent != n {
			return 0, errParentPtr
		}
		if n.Key.less(n.left.Key) {
			return 0, errOrder
		}
		if n.red && n.left.red {
			return 0, errRedRed
		}
	}
	if n.right != nil {
		if n.right.parent != n {
			return 0, errParentPtr
		}
		if n.right.Key.less(n.Key) {
			return 0, errOrder
		}
		if n.red && n.right.red {
			return 0, errRedRed
		}
	}
	lh, err := t.check(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := t.check(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackH
	}
	if !n.red {
		lh++
	}
	return lh, nil
}
