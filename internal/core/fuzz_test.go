package core

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// Each fuzzed operation is three bytes: a kind and a 16-bit argument.
const (
	fuzzAllocBelow = 140 // kind < 140: Alloc of 2 + arg%384 MiB
	fuzzFreeBelow  = 254 // kind < 254: Free of live buffer arg%len(live)
	// otherwise EmptyCache
)

// newFuzzAllocator is the golden churn's allocator: a device small enough to
// run the GC fallback and a stitched pool small enough to evict.
func newFuzzAllocator(rebind bool) (*Allocator, *gpu.Device) {
	cfg := DefaultConfig()
	cfg.MaxSBlocks = 16
	cfg.RebindOnSplit = rebind
	dev := gpu.NewDevice("fuzz", 4*sim.GiB)
	return New(cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel()), cfg), dev
}

// fuzzChurnSeed encodes the first n operations of golden_test.go's churn
// (rng seed 7, 55% allocations of 2–385 MiB, frees of a random live buffer)
// by running them: which buffer a free picks depends on which allocations
// succeeded.
func fuzzChurnSeed(rebind bool, n int) []byte {
	a, _ := newFuzzAllocator(rebind)
	rng := sim.NewRNG(7)
	var live []*memalloc.Buffer
	data := []byte{0}
	if rebind {
		data[0] = 1
	}
	for op := 0; op < n; op++ {
		if rng.Float64() < 0.55 {
			mib := rng.Int63n(384) + 2
			if b, err := a.Alloc(mib * sim.MiB); err == nil {
				live = append(live, b)
			}
			data = append(data, 0, byte((mib-2)>>8), byte(mib-2))
		} else if len(live) > 0 {
			j := rng.Intn(len(live))
			a.Free(live[j])
			live = append(live[:j], live[j+1:]...)
			data = append(data, fuzzAllocBelow, byte(j>>8), byte(j))
		}
	}
	return data
}

// FuzzAllocatorOps runs arbitrary Alloc / Free / EmptyCache sequences — the
// first byte's low bit picks the split semantics — and holds the allocator,
// after every operation, to CheckInvariants and to the eager reader oracle
// of property_test.go, then to a leak-free teardown.
func FuzzAllocatorOps(f *testing.F) {
	f.Add(fuzzChurnSeed(true, 200))
	f.Add(fuzzChurnSeed(false, 200))
	f.Add([]byte{1, 0, 0, 200, 0, 0, 100, 150, 0, 0, 255, 0, 0, 0, 1, 44, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a, dev := newFuzzAllocator(data[0]&1 == 1)
		var live []*memalloc.Buffer
		for i := 1; i+2 < len(data); i += 3 {
			kind, arg := data[i], int(data[i+1])<<8|int(data[i+2])
			switch {
			case kind < fuzzAllocBelow:
				if b, err := a.Alloc(int64(2+arg%384) * sim.MiB); err == nil {
					live = append(live, b)
				}
			case kind >= fuzzFreeBelow:
				a.EmptyCache()
			case len(live) > 0:
				j := arg % len(live)
				a.Free(live[j])
				live = append(live[:j], live[j+1:]...)
			}
			err := a.CheckInvariants()
			if err == nil {
				err = checkReaders(a)
			}
			if err != nil {
				t.Fatalf("after op %d (kind %d, arg %d): %v", i/3, kind, arg, err)
			}
		}
		for _, b := range live {
			a.Free(b)
		}
		a.EmptyCache()
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if dev.Used() != 0 {
			t.Fatalf("device leak: %d bytes", dev.Used())
		}
	})
}
