package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64). Workload generators use it so that every experiment replays
// the exact same allocation stream for a given seed.
//
// math/rand would also work, but a self-contained generator pins the stream
// across Go releases, which matters for recorded expectations in tests.
type RNG struct {
	state uint64
}

// step is what every draw adds to the state (the golden-ratio increment).
const step = 0x9e3779b97f4a7c15

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += step
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances r past n draws of Uint64 in O(1). Every draw adds the same
// increment to the state, so the state Skip(n) leaves is the one n draws
// would have left, bit for bit (mod 2⁶⁴).
func (r *RNG) Skip(n uint64) { r.state += n * step }

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	return int64(r.Uint64() % uint64(n))
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Jitter returns v scaled by a uniform factor in [1-spread, 1+spread].
// A spread of 0 returns v unchanged.
func (r *RNG) Jitter(v int64, spread float64) int64 {
	if spread <= 0 {
		return v
	}
	f := 1 + float64(spread*(2*float64(r.Float64())-1))
	out := int64(math.Round(float64(v) * f))
	if out < 1 {
		out = 1
	}
	return out
}
