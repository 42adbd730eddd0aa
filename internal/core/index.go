package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cuda"
)

// classMember is what a size class needs of its blocks: the address that
// orders them, and the slot each records.
type classMember interface {
	VA() cuda.DevicePtr
	slotRef() *int32
}

// sizeClass is one size of the index both pools keep: every live block of
// that size in ascending VA order, each recording its slot, and beside the
// slots a bitmap whose meaning the pool defines. Flipping a bit is O(1);
// inserting or removing a block shifts the slots and bits above it, O(k) for
// a class of k blocks. Bits past the last slot are always clear.
type sizeClass[B classMember] struct {
	size  int64
	slots []B
	bits  []uint64
}

func (c *sizeClass[B]) set(i int32)      { c.bits[i>>6] |= 1 << (i & 63) }
func (c *sizeClass[B]) clear(i int32)    { c.bits[i>>6] &^= 1 << (i & 63) }
func (c *sizeClass[B]) has(i int32) bool { return c.bits[i>>6]&(1<<(i&63)) != 0 }

// insert files b at its VA's place, its bit set.
func (c *sizeClass[B]) insert(b B) {
	i, _ := slices.BinarySearchFunc(c.slots, b.VA(), func(x B, va cuda.DevicePtr) int {
		return cmp.Compare(x.VA(), va)
	})
	c.slots = slices.Insert(c.slots, i, b)
	if len(c.slots) > len(c.bits)*64 {
		c.bits = append(c.bits, 0)
	}
	// Every bit at or above i moves up one: word by word from the top, each
	// taking the high bit of the word below, then the split word itself,
	// which sets b's bit at i.
	w := i >> 6
	for j := len(c.bits) - 1; j > w; j-- {
		c.bits[j] = c.bits[j]<<1 | c.bits[j-1]>>63
	}
	below := uint64(1)<<(i&63) - 1
	c.bits[w] = c.bits[w]&below | (c.bits[w]&^below)<<1 | (below + 1)
	c.renumber(i)
}

// remove takes the block at slot i out of the class.
func (c *sizeClass[B]) remove(i int32) {
	c.slots = slices.Delete(c.slots, int(i), int(i)+1)
	w := int(i >> 6)
	below := uint64(1)<<(i&63) - 1
	c.bits[w] = c.bits[w]&below | (c.bits[w]>>1)&^below
	for j := w + 1; j < len(c.bits); j++ {
		c.bits[j-1] |= c.bits[j] << 63
		c.bits[j] >>= 1
	}
	if len(c.slots) <= (len(c.bits)-1)*64 {
		c.bits = c.bits[:len(c.bits)-1]
	}
	c.renumber(int(i))
}

// renumber records their slots in the blocks from slot i on.
func (c *sizeClass[B]) renumber(i int) {
	for ; i < len(c.slots); i++ {
		*c.slots[i].slotRef() = int32(i)
	}
}

// next returns the first set slot at or after i, or -1.
func (c *sizeClass[B]) next(i int32) int32 {
	w := int(i >> 6)
	if w >= len(c.bits) {
		return -1
	}
	if x := c.bits[w] >> (i & 63); x != 0 {
		return i + int32(bits.TrailingZeros64(x))
	}
	for w++; w < len(c.bits); w++ {
		if x := c.bits[w]; x != 0 {
			return int32(w<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// prev returns the last set slot at or before i, or -1.
func (c *sizeClass[B]) prev(i int32) int32 {
	if i < 0 {
		return -1
	}
	w := int(i >> 6)
	if x := c.bits[w] << (63 - (i & 63)); x != 0 {
		return i - int32(bits.LeadingZeros64(x))
	}
	for w--; w >= 0; w-- {
		if x := c.bits[w]; x != 0 {
			return int32(w<<6 + 63 - bits.LeadingZeros64(x))
		}
	}
	return -1
}

// check verifies that the slots are in strictly ascending VA order, each
// recording its own, and that no bit is set past the last.
func (c *sizeClass[B]) check() error {
	n := len(c.slots)
	if len(c.bits) != (n+63)/64 || n%64 != 0 && c.bits[n/64]>>(n%64) != 0 {
		return fmt.Errorf("core: size class %d has %d bitmap words for %d slots, or bits past them", c.size, len(c.bits), n)
	}
	for i, b := range c.slots {
		if *b.slotRef() != int32(i) || i > 0 && c.slots[i-1].VA() >= b.VA() {
			return fmt.Errorf("core: size class %d slot %d misplaced or out of VA order", c.size, i)
		}
	}
	return nil
}
