// Package quantile provides a mergeable streaming quantile sketch with a
// guaranteed relative rank-error bound and fully deterministic behaviour.
//
// The sketch is DDSketch-shaped: positive values are counted into buckets
// whose boundaries grow geometrically by γ = (1+α)/(1−α), so every value in
// a bucket is within relative error α of the bucket's representative. Unlike
// sampling-based summaries (GK, KLL, t-digest with stochastic merging) there
// is no randomized compaction anywhere: Add is a counter increment, Merge is
// a bucket-wise addition, and the same inputs produce byte-identical
// quantiles on every run and on every merge order — Merge is exactly
// associative and commutative. That determinism is what lets the serving
// harness diff reports across scheduler refactors.
//
// Memory is fixed: one int64 counter per bucket (2 067 buckets, ≈ 16.5 KB,
// at the default α = 1%, covering (0, MaxInt64] nanoseconds), independent
// of how many values are added.
//
// Add finds a value's bucket without a search: a sub-octave index, built
// once per α (once at package initialization for the default), maps the
// value's bit length and the 7 bits below its leading one to the first
// bucket that can hold it, and Add steps forward from there past the bounds
// below the value — at most once at α = 1% or 5%, at most four times at
// α = 0.1%. The index is 32 KB of int32, shared by every sketch of its α.
//
// # Error bound
//
// For a sketch over n values, Rank(k) returns a value r with
//
//	|r − x(k)| ≤ α·x(k) + 1
//
// where x(k) is the exact k-th smallest value (1-based), provided x(k) ≥ 0
// and values stay below 2⁵³ (beyond that the +1 rounding term grows to one
// float64 ulp; durations under ~104 days are exact). Quantile(p) is Rank at
// the nearest-rank index ceil(p·n), so percentiles carry the same bound
// against the exact nearest-rank oracle.
package quantile

import (
	"fmt"
	"math"
	"math/bits"
)

// DefaultAlpha is the default relative-accuracy target: quantiles are within
// 1% of the exact order statistic (plus 1 unit of integer rounding).
const DefaultAlpha = 0.01

// table holds the precomputed bucket geometry for one α. Bucket i covers
// the half-open integer range (bound[i−1], bound[i]] with bound[−1] = 0, and
// rep[i] is its representative value (the harmonic mean of the bucket edges,
// which minimizes the worst-case relative error over the bucket).
type table struct {
	alpha float64
	bound []int64
	rep   []int64
	// sub is the sub-octave index: sub[b][j] is the first bucket whose
	// bound reaches the lowest value of slot j of octave b, the values of
	// bit length b whose next subBits bits after the leading one are j (see
	// slot). A value's bucket is that entry or a few past it.
	sub [64][1 << subBits]int32
}

// subBits is the number of bits below a value's leading one that pick its
// slot: 2^7 slots per octave, each spanning 1/128 of its octave's low end.
// A bucket at α = 1% spans about 2% of its lower bound, so a slot holds at
// most one bound and bucket steps at most once past the index; at α = 0.1%
// it steps at most four times (TestBucketWalkBound).
const subBits = 7

// slot returns the octave b of v > 0, its bit length, and v's slot j in it.
// Below bit length subBits+1 an octave has fewer values than slots, and a
// value takes the slot its bits reach when shifted up.
func slot(v int64) (b, j int) {
	b = bits.Len64(uint64(v))
	if b > subBits+1 {
		return b, int(v>>uint(b-subBits-1)) & (1<<subBits - 1)
	}
	return b, int(v<<uint(subBits+1-b)) & (1<<subBits - 1)
}

// defaultTable is the shared bucket geometry for DefaultAlpha, built once
// at package initialization. Every sketch in practice uses the default α,
// so the hot path never touches shared mutable state — the previous
// mutex-guarded map cache here was a package-level write reachable from
// every parallel serving job (flagged by the parcapture analyzer: the
// insert was idempotent and race-free, but a shared lock under the pool is
// both a scalability and an auditability cost the init-time build avoids).
var defaultTable = buildTable(DefaultAlpha)

// geometry returns the bucket table for alpha: the precomputed shared
// table at DefaultAlpha, a freshly built one otherwise (non-default α is
// a cold path — tables are built per sketch constructor, never per Add).
func geometry(alpha float64) *table {
	if alpha == DefaultAlpha {
		return defaultTable
	}
	return buildTable(alpha)
}

// buildTable constructs the bucket geometry for one α. Boundaries are built
// by repeated multiplication with γ, forced to advance by at least 1, so the
// low range (0, ⌈1/(γ−1)⌉] degenerates into width-1 buckets that are exact.
func buildTable(alpha float64) *table {
	gamma := (1 + alpha) / (1 - alpha)
	t := &table{alpha: alpha}
	lo, b := int64(0), int64(1)
	for {
		t.bound = append(t.bound, b)
		if b-lo <= 1 {
			// A single-integer bucket represents itself exactly.
			t.rep = append(t.rep, b)
		} else {
			h := 2 * float64(lo) * float64(b) / (float64(lo) + float64(b))
			t.rep = append(t.rep, int64(math.Round(h)))
		}
		if b == math.MaxInt64 {
			break
		}
		lo = b
		next := float64(b) * gamma
		if next >= float64(math.MaxInt64) {
			b = math.MaxInt64
		} else if nb := int64(next); nb > b {
			b = nb
		} else {
			b = b + 1
		}
	}
	// Fill the index in one pass over the slots in value order: the lowest
	// value of slot j of octave b is (2^subBits + j)·2^(b−1−subBits). Below
	// bit length subBits+1 the shift goes right, exact for the slots a value
	// takes and rounded down for the others, which no lookup reads.
	i := 0
	for b := 1; b < 64; b++ {
		for j := range t.sub[b] {
			var low int64
			if b > subBits+1 {
				low = int64(1<<subBits+j) << (b - subBits - 1)
			} else {
				low = int64(1<<subBits+j) >> (subBits + 1 - b)
			}
			for t.bound[i] < low {
				i++
			}
			t.sub[b][j] = int32(i)
		}
	}
	return t
}

// bucket returns the index of the bucket that counts v > 0, the first bound
// ≥ v: the sub-octave index's entry for v's slot, then a short walk forward.
func (t *table) bucket(v int64) int {
	b, j := slot(v)
	i := int(t.sub[b][j])
	for t.bound[i] < v {
		i++
	}
	return i
}

// Sketch is a mergeable streaming quantile sketch. The zero value is not
// usable; construct with New or NewAlpha.
type Sketch struct {
	geo    *table
	counts []int64
	low    int64 // values ≤ 0 (durations are non-negative in practice)
	n      int64
	min    int64
	max    int64
}

// New returns an empty sketch at DefaultAlpha.
func New() *Sketch {
	s, _ := NewAlpha(DefaultAlpha)
	return s
}

// NewAlpha returns an empty sketch with relative-accuracy target alpha,
// 0 < alpha < 1.
func NewAlpha(alpha float64) (*Sketch, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("quantile: alpha %v outside (0, 1)", alpha)
	}
	geo := geometry(alpha)
	return &Sketch{
		geo:    geo,
		counts: make([]int64, len(geo.bound)),
		min:    math.MaxInt64,
		max:    math.MinInt64,
	}, nil
}

// Count returns the number of values added.
func (s *Sketch) Count() int64 { return s.n }

// Min and Max return the exact extremes of the added values (0 when empty).
func (s *Sketch) Min() int64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

func (s *Sketch) Max() int64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Add counts one value into the sketch.
func (s *Sketch) Add(v int64) {
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= 0 {
		s.low++
		return
	}
	s.counts[s.geo.bucket(v)]++
}

// Rank returns an approximation of the k-th smallest added value (1-based),
// within the package-level error bound. k is clamped to [1, Count]; an empty
// sketch returns 0.
func (s *Sketch) Rank(k int64) int64 {
	if s.n == 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k > s.n {
		k = s.n
	}
	// The extremes are tracked exactly; the first and last order statistics
	// ARE the extremes, so return them with zero error.
	if k == 1 {
		return s.min
	}
	if k == s.n {
		return s.max
	}
	cum := s.low
	v := int64(0) // the ≤0 bucket's representative, clamped below
	if cum < k {
		for i, c := range s.counts {
			cum += c
			if cum >= k {
				v = s.geo.rep[i]
				break
			}
		}
	}
	// The exact extremes tighten the representative at the tails; clamping
	// never moves v away from any value in its bucket.
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// Quantile returns the nearest-rank p-quantile (0 ≤ p ≤ 1): Rank at index
// ceil(p·n).
func (s *Sketch) Quantile(p float64) int64 {
	return s.Rank(int64(math.Ceil(p * float64(s.n))))
}

// Merge folds o into s. Both sketches must share the same alpha. Merging is
// exactly associative and commutative: any merge tree over the same streams
// yields byte-identical bucket counts, and merge(A, B) equals adding both
// streams into one sketch. o is not modified.
func (s *Sketch) Merge(o *Sketch) error {
	if s.geo != o.geo {
		return fmt.Errorf("quantile: merging sketches with alpha %v and %v", s.geo.alpha, o.geo.alpha)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.low += o.low
	s.n += o.n
	if o.n > 0 {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	return nil
}
