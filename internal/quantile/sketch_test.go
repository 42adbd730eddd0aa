package quantile

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// xorshift is a tiny deterministic generator so the oracle streams are
// reproducible without seeding the global rand state.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func (x *xorshift) intn(n int64) int64 { return int64(x.next() % uint64(n)) }

// exactRank is the oracle: the k-th smallest of vals, 1-based, the same
// nearest-rank rule internal/serve's summarize uses.
func exactRank(vals []int64, k int64) int64 {
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if k < 1 {
		k = 1
	}
	if k > int64(len(sorted)) {
		k = int64(len(sorted))
	}
	return sorted[k-1]
}

// checkBound asserts the documented error bound at p50/p95/p99 against the
// exact nearest-rank oracle.
func checkBound(t *testing.T, name string, s *Sketch, vals []int64) {
	t.Helper()
	n := int64(len(vals))
	for _, pct := range []int64{50, 95, 99} {
		k := (n*pct + 99) / 100
		got := s.Rank(k)
		want := exactRank(vals, k)
		bound := int64(math.Ceil(DefaultAlpha*float64(want))) + 1
		if diff := got - want; diff < -bound || diff > bound {
			t.Errorf("%s: p%d (rank %d/%d): sketch %d, exact %d, |err| %d > bound %d",
				name, pct, k, n, got, want, diff, bound)
		}
	}
}

func addAll(s *Sketch, vals []int64) {
	for _, v := range vals {
		s.Add(v)
	}
}

// TestSketchVsExactOracle drives the sketch over several stream shapes and
// sizes and checks every percentile against the exact order statistic.
func TestSketchVsExactOracle(t *testing.T) {
	rng := xorshift(7)
	streams := map[string][]int64{}

	uniform := make([]int64, 5000)
	for i := range uniform {
		uniform[i] = 1 + rng.intn(1_000_000_000)
	}
	streams["uniform"] = uniform

	// Latency-shaped: lognormal-ish via the product of uniforms, heavy tail.
	heavy := make([]int64, 3000)
	for i := range heavy {
		v := int64(1)
		for j := 0; j < 4; j++ {
			v *= 1 + rng.intn(200)
		}
		heavy[i] = v
	}
	streams["heavy-tail"] = heavy

	small := []int64{3}
	streams["single"] = small
	streams["tiny"] = []int64{5, 1, 4, 1, 5, 9, 2, 6}

	for name, vals := range streams {
		s := New()
		addAll(s, vals)
		if s.Count() != int64(len(vals)) {
			t.Fatalf("%s: count %d, want %d", name, s.Count(), len(vals))
		}
		checkBound(t, name, s, vals)
	}
}

// TestSketchAdversarialOrders feeds the same multiset in sorted, reversed,
// all-ties and two-point bimodal orders: the resulting sketches must be
// identical (Add is order-free) and within the bound.
func TestSketchAdversarialOrders(t *testing.T) {
	base := make([]int64, 2000)
	for i := range base {
		base[i] = int64(i + 1)
	}
	sorted := append([]int64(nil), base...)
	reversed := make([]int64, len(base))
	for i, v := range base {
		reversed[len(base)-1-i] = v
	}

	a, b := New(), New()
	addAll(a, sorted)
	addAll(b, reversed)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sorted and reversed insertion orders produced different sketches")
	}
	checkBound(t, "sorted", a, base)

	ties := make([]int64, 1000)
	for i := range ties {
		ties[i] = 42
	}
	s := New()
	addAll(s, ties)
	for _, pct := range []float64{0.5, 0.95, 0.99} {
		if got := s.Quantile(pct); got != 42 {
			t.Fatalf("all-ties quantile(%v) = %d, want 42", pct, got)
		}
	}

	bimodal := make([]int64, 1000)
	for i := range bimodal {
		if i%10 == 0 {
			bimodal[i] = 1_000_000_000 // 10% slow mode
		} else {
			bimodal[i] = 1_000
		}
	}
	bi := New()
	addAll(bi, bimodal)
	checkBound(t, "bimodal", bi, bimodal)
	// The p50 must land on the fast mode, the p99 on the slow mode — a
	// sketch that smears the modes together fails outright.
	if got := bi.Quantile(0.50); got > 1_100 {
		t.Fatalf("bimodal p50 = %d, want fast mode ~1000", got)
	}
	if got := bi.Quantile(0.99); got < 900_000_000 {
		t.Fatalf("bimodal p99 = %d, want slow mode ~1e9", got)
	}
}

// TestSketchMergeLaws pins merge associativity and commutativity — and that
// any merge equals the single-stream sketch — at the level of the full
// sketch state, not just the quantile outputs.
func TestSketchMergeLaws(t *testing.T) {
	rng := xorshift(11)
	mk := func(n int) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = 1 + rng.intn(5_000_000)
		}
		return vals
	}
	va, vb, vc := mk(700), mk(1300), mk(400)

	sketch := func(streams ...[]int64) *Sketch {
		s := New()
		for _, vs := range streams {
			addAll(s, vs)
		}
		return s
	}
	merge := func(dst *Sketch, srcs ...*Sketch) *Sketch {
		for _, src := range srcs {
			if err := dst.Merge(src); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}

	single := sketch(va, vb, vc)
	ab := merge(sketch(va), sketch(vb))                         // (A+B)
	abTHENc := merge(merge(sketch(va), sketch(vb)), sketch(vc)) // (A+B)+C
	aTHENbc := merge(sketch(va), merge(sketch(vb), sketch(vc))) // A+(B+C)
	ba := merge(sketch(vb), sketch(va))                         // (B+A)

	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("merge(A,B) != merge(B,A)")
	}
	if !reflect.DeepEqual(abTHENc, aTHENbc) {
		t.Fatal("(A+B)+C != A+(B+C)")
	}
	if !reflect.DeepEqual(abTHENc, single) {
		t.Fatal("merged sketch != single-stream sketch")
	}

	all := append(append(append([]int64(nil), va...), vb...), vc...)
	checkBound(t, "merged", abTHENc, all)

	other, err := NewAlpha(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Merge(other); err == nil {
		t.Fatal("merging sketches with different alphas must fail")
	}
}

// TestSketchEdgeCases covers empties, zeros and extreme magnitudes.
func TestSketchEdgeCases(t *testing.T) {
	s := New()
	if s.Rank(1) != 0 || s.Quantile(0.5) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sketch must report zeros")
	}

	s.Add(0)
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("all-zero stream p99 = %d", got)
	}

	big := New()
	big.Add(math.MaxInt64)
	big.Add(1)
	if got := big.Quantile(1.0); got != math.MaxInt64 {
		t.Fatalf("max clamp lost: %d", got)
	}
	if got := big.Quantile(0.01); got != 1 {
		t.Fatalf("min clamp lost: %d", got)
	}

	if _, err := NewAlpha(0); err == nil {
		t.Fatal("alpha 0 must be rejected")
	}
	if _, err := NewAlpha(1); err == nil {
		t.Fatal("alpha 1 must be rejected")
	}
}

// TestBucketIndexMatchesSearch: the per-octave bucket index picks the same
// bucket as a binary search over the whole bound table for every value
// below 2^20, every bound and its two neighbours, and MaxInt64, at the
// default α and at a coarser and a finer one.
func TestBucketIndexMatchesSearch(t *testing.T) {
	for _, alpha := range []float64{DefaultAlpha, 0.05, 0.001} {
		geo := geometry(alpha)
		check := func(v int64) {
			if v <= 0 {
				return
			}
			want := sort.Search(len(geo.bound), func(i int) bool { return geo.bound[i] >= v })
			if got := geo.bucket(v); got != want {
				t.Fatalf("α %v: bucket(%d) = %d, want %d", alpha, v, got, want)
			}
		}
		for v := int64(1); v < 1<<20; v++ {
			check(v)
		}
		for _, b := range geo.bound {
			check(b - 1)
			check(b)
			if b < math.MaxInt64 {
				check(b + 1)
			}
		}
		check(math.MaxInt64)
	}
}

// TestBucketWalkBound: from the sub-octave index's entry, bucket steps at
// most once past it at α = 1% and 5%, and at most four times at 0.1%, for
// the highest value of every slot — the farthest any value of the slot
// walks.
func TestBucketWalkBound(t *testing.T) {
	for _, c := range []struct {
		alpha float64
		walk  int
	}{{DefaultAlpha, 1}, {0.05, 1}, {0.001, 4}} {
		geo := geometry(c.alpha)
		worst := 0
		for b := 1; b < 64; b++ {
			for j := range geo.sub[b] {
				// The slot's highest value: one below the next slot's
				// lowest, or its only value in an octave of at most 2^7.
				var hi int64
				if b > subBits+1 {
					hi = int64(uint64(1<<subBits+j+1)<<(b-subBits-1) - 1)
				} else {
					hi = int64(1<<subBits+j) >> (subBits + 1 - b)
				}
				if _, vj := slot(hi); vj != j {
					continue // a slot no value takes
				}
				want := sort.Search(len(geo.bound), func(i int) bool { return geo.bound[i] >= hi })
				worst = max(worst, want-int(geo.sub[b][j]))
			}
		}
		if worst != c.walk {
			t.Errorf("α %v: bucket walks at most %d steps past the index, want %d", c.alpha, worst, c.walk)
		}
	}
}

// BenchmarkSketchAdd is Add on latency-shaped values, log-uniform over
// 1 µs–100 s in nanoseconds (27 octaves), the bucket lookup a sketched
// latency digest makes per sample.
func BenchmarkSketchAdd(b *testing.B) {
	rng := xorshift(9)
	vals := make([]int64, 4096)
	for i := range vals {
		u := float64(rng.next()>>11) / (1 << 53)
		vals[i] = int64(1e3 * math.Exp(u*math.Log(1e8)))
	}
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&(len(vals)-1)])
	}
}
