package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// roomOp is one call of a refusal-contract stream: an Alloc of size, or,
// when size is 0, a Free of the live buffer at pick modulo the live count.
type roomOp struct {
	size int64
	pick int
}

// roomStream draws ops calls over a device of 1–4 GiB, as many allocations
// as frees: allocations of 2–400 MiB, a quarter of them under 2 MiB when
// small is set. The live set drifts until it presses against the device.
func roomStream(seed uint64, ops int, small bool) (capacity int64, stream []roomOp) {
	rng := sim.NewRNG(seed)
	capacity = int64(rng.Intn(4)+1) * sim.GiB
	stream = make([]roomOp, ops)
	for i := range stream {
		if rng.Float64() >= 0.5 {
			stream[i].pick = rng.Intn(1 << 30)
			continue
		}
		if small && rng.Intn(4) == 0 {
			stream[i].size = int64(rng.Intn(int(SmallThreshold-1))) + 1
		} else {
			stream[i].size = 2*sim.MiB + int64(rng.Intn(int(398*sim.MiB)+1))
		}
	}
	return capacity, stream
}

// runRoomStream applies stream to a GMLake allocator with cfg on a device of
// capacity bytes. On every refused request of at least one chunk it checks
// A-4: the live large requests, each rounded to a chunk, plus what the small
// pool reserves (read after the refusal, so after its GC), plus the refused
// request rounded to a chunk, exceed the device. It returns the indexes of
// the refused calls.
func runRoomStream(capacity int64, stream []roomOp, cfg Config) (refused []int, err error) {
	drv := cuda.NewDriver(gpu.NewDevice("room", capacity), sim.NewClock(), sim.DefaultCostModel())
	a := New(drv, cfg)
	type liveBuf struct {
		b     *memalloc.Buffer
		large int64 // the request rounded to a chunk; 0 for a small one
	}
	var live []liveBuf
	var liveLarge int64
	for i, op := range stream {
		if op.size == 0 {
			if len(live) == 0 {
				continue
			}
			j := op.pick % len(live)
			a.Free(live[j].b)
			liveLarge -= live[j].large
			live = slices.Delete(live, j, j+1)
			continue
		}
		rounded := sim.RoundUp(op.size, ChunkSize)
		if op.size < SmallThreshold {
			rounded = 0
		}
		b, err := a.Alloc(op.size)
		if err == nil {
			live = append(live, liveBuf{b, rounded})
			liveLarge += rounded
			continue
		}
		refused = append(refused, i)
		if rounded == 0 {
			continue
		}
		smallReserved := a.small.Stats().Reserved
		if room := capacity - liveLarge - smallReserved; rounded <= room {
			return refused, fmt.Errorf("call %d: refused %d bytes with %d live large bytes and %d small-pool bytes on a %d-byte device (%d bytes of room)",
				i, op.size, liveLarge, smallReserved, capacity, room)
		}
	}
	return refused, nil
}

// TestRefusesOnlyWithoutRoom: CONTRACTS.md A-4. Each seed draws a stream
// with and without small requests and runs it under three configurations:
// the default, a four-sBlock cap with destroy-on-split, and no fragment
// limit. Every refusal of a large request must find no room, and the three
// must refuse the same calls, since whether GMLake refuses depends only on
// the live set. 50 seeds (≈ 2 s on one core, ≈ 12 000 refusals per
// configuration) keep the un-short run of this package short; -short runs
// 4. The grid holds at 200 seeds too (≈ 9 s, ≈ 49 000 refusals).
func TestRefusesOnlyWithoutRoom(t *testing.T) {
	seeds := uint64(50)
	if testing.Short() {
		seeds = 4
	}
	capped := DefaultConfig()
	capped.MaxSBlocks = 4
	capped.RebindOnSplit = false
	noLimit := DefaultConfig()
	noLimit.FragLimit = 0
	configs := []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"capped", capped}, {"no-frag-limit", noLimit}}

	var refusals int
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, small := range []bool{false, true} {
			capacity, stream := roomStream(seed, 3000, small)
			var want []int
			for k, c := range configs {
				refused, err := runRoomStream(capacity, stream, c.cfg)
				if err != nil {
					t.Fatalf("seed %d small %v %s: %v", seed, small, c.name, err)
				}
				if k == 0 {
					want = refused
					refusals += len(refused)
				} else if !slices.Equal(refused, want) {
					t.Fatalf("seed %d small %v: %s refused %d calls, %s %d (or others)",
						seed, small, c.name, len(refused), configs[0].name, len(want))
				}
			}
		}
	}
	if refusals == 0 {
		t.Fatal("no request was refused: the streams never press against the device")
	}
	t.Logf("%d refusals per configuration over %d seeds", refusals, seeds)
}
