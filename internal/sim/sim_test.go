package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(250 * time.Microsecond)
	if got, want := c.Now(), 5250*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after Reset, Now() = %v, want 0", c.Now())
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	sw := StartStopwatch(c)
	c.Advance(3 * time.Millisecond)
	if got, want := sw.Elapsed(), 3*time.Millisecond; got != want {
		t.Fatalf("Elapsed() = %v, want %v", got, want)
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1KB"},
		{1536, "1.5KB"},
		{2 * MiB, "2MB"},
		{80 * GiB, "80GB"},
		{int64(2.5 * float64(GiB)), "2.5GB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.n); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestRoundUpDown(t *testing.T) {
	tests := []struct {
		n, g, up, down int64
	}{
		{0, 512, 0, 0},
		{1, 512, 512, 0},
		{512, 512, 512, 512},
		{513, 512, 1024, 512},
		{3 * MiB, 2 * MiB, 4 * MiB, 2 * MiB},
	}
	for _, tt := range tests {
		if got := RoundUp(tt.n, tt.g); got != tt.up {
			t.Errorf("RoundUp(%d, %d) = %d, want %d", tt.n, tt.g, got, tt.up)
		}
		if got := RoundDown(tt.n, tt.g); got != tt.down {
			t.Errorf("RoundDown(%d, %d) = %d, want %d", tt.n, tt.g, got, tt.down)
		}
	}
}

func TestRoundUpProperty(t *testing.T) {
	f := func(n int32, gExp uint8) bool {
		v := int64(n)
		if v < 0 {
			v = -v
		}
		g := int64(1) << (gExp % 22)
		r := RoundUp(v, g)
		return r >= v && r%g == 0 && r-v < g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs of 1000", same)
	}
}

// TestRNGSkip: Skip(n) then Uint64 returns the (n+1)-th sequential draw,
// including from seeds near 2⁶⁴, where the first draw already wraps the
// state (the increment is ≈ 0.62 × 2⁶⁴, so longer runs wrap every other draw).
func TestRNGSkip(t *testing.T) {
	seeds := []uint64{0, 42, math.MaxUint64, math.MaxUint64 - step + 1, math.MaxUint64 - 1<<20}
	for _, seed := range seeds {
		for _, n := range []uint64{0, 1, 2, 1000} {
			seq, skipped := NewRNG(seed), NewRNG(seed)
			for i := uint64(0); i < n; i++ {
				seq.Uint64()
			}
			skipped.Skip(n)
			for i := 0; i < 3; i++ {
				if got, want := skipped.Uint64(), seq.Uint64(); got != want {
					t.Fatalf("seed %#x: draw %d after Skip(%d) = %#x, sequential %#x", seed, i, n, got, want)
				}
			}
		}
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Int63n(17); v < 0 || v >= 17 {
			t.Fatalf("Int63n(17) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(1)
	const base = 1000000
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.25)
		if v < 750000 || v > 1250000 {
			t.Fatalf("Jitter(%d, 0.25) = %d out of [750000,1250000]", base, v)
		}
	}
	if got := r.Jitter(base, 0); got != base {
		t.Fatalf("Jitter with zero spread = %d, want %d", got, base)
	}
}

func TestCostModelTable1Anchors(t *testing.T) {
	// Reconstruct Table 1: total VMM allocation cost for 2 GiB, normalized
	// to cuMalloc(2 GiB), at the three anchor chunk sizes.
	m := DefaultCostModel()
	base := m.CudaMalloc(2 * GiB)
	if base != time.Millisecond {
		t.Fatalf("cuMalloc(2GiB) = %v, want 1ms calibration", base)
	}
	tests := []struct {
		chunk  int64
		nTotal float64 // Table 1 "Total" row
		tol    float64
	}{
		{2 * MiB, 115.4, 2.0},
		{128 * MiB, 9.1, 0.5},
		{1024 * MiB, 1.5, 0.2},
	}
	for _, tt := range tests {
		n := (2 * GiB) / tt.chunk
		total := m.MemAddressReserve(2 * GiB)
		for i := int64(0); i < n; i++ {
			total += m.MemCreate(tt.chunk) + m.MemMap(tt.chunk) + m.MemSetAccess(tt.chunk)
		}
		norm := float64(total) / float64(base)
		if norm < tt.nTotal-tt.tol || norm > tt.nTotal+tt.tol {
			t.Errorf("chunk %s: normalized total = %.2f, want %.1f±%.1f",
				FormatBytes(tt.chunk), norm, tt.nTotal, tt.tol)
		}
	}
}

func TestCostModelMonotoneChunks(t *testing.T) {
	// Allocating a fixed total with bigger chunks must never be slower for
	// create (the dominant count effect); the full Figure 6 curve must be
	// strictly decreasing in chunk size for the total.
	m := DefaultCostModel()
	const total = 2 * GiB
	prev := time.Duration(1<<62 - 1)
	for chunk := 2 * MiB; chunk <= 1024*MiB; chunk *= 2 {
		n := total / chunk
		cost := m.MemAddressReserve(total)
		for i := int64(0); i < n; i++ {
			cost += m.MemCreate(chunk) + m.MemMap(chunk) + m.MemSetAccess(chunk)
		}
		if cost >= prev {
			t.Fatalf("VMM total cost not decreasing at chunk %s: %v >= %v",
				FormatBytes(chunk), cost, prev)
		}
		prev = cost
	}
}

func TestCostModelInterpolationBounded(t *testing.T) {
	m := DefaultCostModel()
	// Interpolated per-chunk costs must stay within anchor extremes.
	loC, hiC := m.MemCreate(2*MiB), m.MemCreate(1024*MiB)
	for chunk := 4 * MiB; chunk < 1024*MiB; chunk *= 2 {
		c := m.MemCreate(chunk)
		if c < loC || c > hiC {
			t.Errorf("MemCreate(%s) = %v outside anchor range [%v, %v]",
				FormatBytes(chunk), c, loC, hiC)
		}
	}
	// Clamping outside the anchors.
	if m.MemCreate(1*MiB) != m.MemCreate(2*MiB) {
		t.Error("per-chunk cost below first anchor should clamp")
	}
	if m.MemCreate(4096*MiB) != m.MemCreate(1024*MiB) {
		t.Error("per-chunk cost above last anchor should clamp")
	}
}

// refPerChunk is perChunk as it was before its integer fast path: every size
// goes through math.Log2 and the anchors' log2MiB. It is the oracle
// TestCostModelMatchesLog2Reference holds the cost model to.
func refPerChunk(m *CostModel, chunkSize int64, op chunkOp) time.Duration {
	if chunkSize <= 0 {
		return 0
	}
	x := math.Log2(float64(chunkSize) / float64(MiB))
	a := m.anchors
	var ms float64
	switch {
	case x <= a[0].log2MiB:
		ms = a[0].ms[op]
	case x >= a[len(a)-1].log2MiB:
		ms = a[len(a)-1].ms[op]
	default:
		for i := 0; i+1 < len(a); i++ {
			lo, hi := a[i], a[i+1]
			if x > hi.log2MiB {
				continue
			}
			t := (x - lo.log2MiB) / (hi.log2MiB - lo.log2MiB)
			ms = math.Exp(math.Log(lo.ms[op])*(1-t) + math.Log(hi.ms[op])*t)
			break
		}
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// TestCostModelMatchesLog2Reference requires every per-chunk price to equal
// the Log2 interpolation to the nanosecond, at every 2 MiB multiple up to
// 2 GiB and a granule either side of each anchor: the fast path may not move
// a simulated number.
func TestCostModelMatchesLog2Reference(t *testing.T) {
	m := DefaultCostModel()
	var sizes []int64
	for s := 2 * MiB; s <= 2*GiB; s += 2 * MiB {
		sizes = append(sizes, s)
	}
	for _, a := range m.anchors {
		if a.size != int64(1)<<int(a.log2MiB)*MiB {
			t.Fatalf("anchor of %d bytes has log2MiB %v", a.size, a.log2MiB)
		}
		sizes = append(sizes, a.size-2*MiB, a.size, a.size+2*MiB)
	}
	for _, s := range sizes {
		create, mapc := refPerChunk(m, s, opCreate), refPerChunk(m, s, opMap)
		for _, c := range []struct {
			name      string
			got, want time.Duration
		}{
			{"MemCreate", m.MemCreate(s), create},
			{"MemMap", m.MemMap(s), mapc},
			{"MemSetAccess", m.MemSetAccess(s), refPerChunk(m, s, opSetAccess)},
			{"MemUnmap", m.MemUnmap(s), mapc},
			{"MemRelease", m.MemRelease(s), create / 5},
		} {
			if c.got != c.want {
				t.Errorf("%s(%d) = %d ns, Log2 reference %d ns", c.name, s, c.got, c.want)
			}
		}
	}
}

func TestCostModelReleaseCheaperThanCreate(t *testing.T) {
	m := DefaultCostModel()
	for chunk := 2 * MiB; chunk <= 1024*MiB; chunk *= 2 {
		if m.MemRelease(chunk) >= m.MemCreate(chunk) {
			t.Fatalf("release not cheaper than create at chunk %s", FormatBytes(chunk))
		}
	}
}

func TestAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	c.AdvanceTo(3 * time.Millisecond) // past: no-op
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("clock moved backwards: %v", c.Now())
	}
	c.AdvanceTo(9 * time.Millisecond)
	if c.Now() != 9*time.Millisecond {
		t.Fatalf("AdvanceTo future failed: %v", c.Now())
	}
}

func TestCostModelFreeAndUnmapPaths(t *testing.T) {
	m := DefaultCostModel()
	if free := m.CudaFree(2 * GiB); free <= m.FreeSync {
		t.Fatalf("CudaFree %v should exceed the sync stall %v", free, m.FreeSync)
	}
	if m.MemAddressFree(GiB) != m.MemAddressReserve(GiB) {
		t.Fatal("address free should price like reserve")
	}
	if m.MemUnmap(2*MiB) != m.MemMap(2*MiB) {
		t.Fatal("unmap should price like map")
	}
	if m.HostOp() != m.Host {
		t.Fatal("HostOp mispriced")
	}
}

func TestRoundUpDownEdges(t *testing.T) {
	if RoundUp(0, 512) != 0 || RoundDown(0, 512) != 0 {
		t.Fatal("zero rounding")
	}
	if RoundUp(513, 512) != 1024 {
		t.Fatalf("RoundUp(513,512) = %d", RoundUp(513, 512))
	}
	if RoundDown(1023, 512) != 512 {
		t.Fatalf("RoundDown(1023,512) = %d", RoundDown(1023, 512))
	}
	if RoundUp(512, 512) != 512 || RoundDown(512, 512) != 512 {
		t.Fatal("exact multiples must be fixed points")
	}
}

func TestRNGInt63n(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if v := r.Int63n(7); v < 0 || v >= 7 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	if got := r.Jitter(1000, 0); got != 1000 {
		t.Fatalf("zero jitter changed value: %d", got)
	}
}
