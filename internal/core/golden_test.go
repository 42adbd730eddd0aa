package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simState is everything the simulated run can observe of one GMLake
// allocator and its driver. The goldens below were recorded on commit
// f1d45e8 (PR 11, the map/scan/rb-tree bookkeeping): a change to the
// allocator's host-side data structures must reproduce them exactly, because
// only host cost is allowed to move.
type simState struct {
	S1, S2, S3, S4      int64
	StitchFrees, GCRuns int64
	PBlocks, SBlocks    int
	Stats               memalloc.Stats
	Counters            cuda.Counters
	Now                 time.Duration
}

func stateOf(a *core.Allocator, drv *cuda.Driver) simState {
	st := simState{
		StitchFrees: a.StitchFreeCount(), GCRuns: a.GCRuns(),
		PBlocks: a.PBlockCount(), SBlocks: a.SBlockCount(),
		Stats: a.Stats(), Counters: drv.Counters(), Now: drv.Clock().Now(),
	}
	st.S1, st.S2, st.S3, st.S4 = a.StrategyCounts()
	return st
}

func newAllocator(capacity int64, cfg core.Config) (*core.Allocator, *cuda.Driver) {
	drv := cuda.NewDriver(gpu.NewDevice("test", capacity), sim.NewClock(), sim.DefaultCostModel())
	return core.New(drv, cfg), drv
}

func checkGolden(t *testing.T, what string, got, want simState) {
	t.Helper()
	if got != want {
		t.Errorf("%s: simulated state moved\n got  %#v\n want %#v", what, got, want)
	}
}

// TestGoldenTrainerLRO pins an OPT-13B LoRA+recompute+offload training run:
// large irregular tensors that split, stitch and map new chunks.
func TestGoldenTrainerLRO(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxSBlocks = 1024 // the run stitches ~1500 views: StitchFree evicts
	a, drv := newAllocator(80*sim.GiB, cfg)
	tr, err := workload.NewTrainer(workload.Spec{
		Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24, Seed: 7,
	}, a, drv.Clock())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := tr.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trainer", stateOf(a, drv), goldenTrainer)
}

// TestGoldenChunkedKV pins a ChunkedKV serving stream over two GMLake
// replicas: equal decode chunks that exact-match, with prompts of every size
// in between.
func TestGoldenChunkedKV(t *testing.T) {
	reqs, err := servegen.MixedBursty().Generate(goldenRequests, 7)
	if err != nil {
		t.Fatal(err)
	}
	var (
		allocs  []*core.Allocator
		drivers []*cuda.Driver
	)
	rep, err := serve.ServeCluster(reqs, func(int) serve.CacheManager {
		a, drv := newAllocator(2*sim.GiB, core.DefaultConfig())
		allocs, drivers = append(allocs, a), append(drivers, drv)
		return serve.NewChunkedKV(a, model.OPT1_3B, 64)
	}, serve.ClusterConfig{Replicas: 2, Dispatch: serve.DispatchLeastKV, Server: serve.ServerConfig{MaxBatch: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != goldenRequests {
		t.Fatalf("served %d of %d", rep.Served, goldenRequests)
	}
	if len(allocs) != len(goldenServe) {
		t.Fatalf("%d replicas built, want %d", len(allocs), len(goldenServe))
	}
	for i, a := range allocs {
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "replica", stateOf(a, drivers[i]), goldenServe[i])
	}
}

// TestGoldenChurn pins a seeded alloc/free churn on a device small enough to
// run the GC fallback and a stitched pool small enough to evict, under both
// split semantics.
func TestGoldenChurn(t *testing.T) {
	for i, rebind := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.MaxSBlocks = 16
		cfg.RebindOnSplit = rebind
		a, drv := newAllocator(4*sim.GiB, cfg)
		rng := sim.NewRNG(7)
		var live []*memalloc.Buffer
		for op := 0; op < 4000; op++ {
			if rng.Float64() < 0.55 {
				if b, err := a.Alloc((rng.Int63n(384) + 2) * sim.MiB); err == nil {
					live = append(live, b)
				}
			} else if len(live) > 0 {
				j := rng.Intn(len(live))
				a.Free(live[j])
				live = append(live[:j], live[j+1:]...)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "churn", stateOf(a, drv), goldenChurn[i])
	}
}

const goldenRequests = 3000

var (
	goldenTrainer = simState{S1: 4470, S2: 219, S3: 1519, S4: 121,
		StitchFrees: 557, GCRuns: 0, PBlocks: 512, SBlocks: 1024,
		Stats: memalloc.Stats{Active: 6610223104, Reserved: 27604811776, PeakActive: 27546091520, PeakReserved: 27604811776, AllocCount: 7369, FreeCount: 7248},
		Counters: cuda.Counters{Malloc: 29, Free: 0, AddressReserve: 2484, AddressFree: 948,
			MemCreate: 13053, MemRelease: 0, MemMap: 411502, MemUnmap: 168691, MemSet: 411502, BytesAllocated: 27604811776, BytesReleased: 0},
		Now: 118339737642,
	}
	goldenServe = [2]simState{
		{S1: 3770, S2: 98, S3: 358, S4: 62,
			StitchFrees: 0, GCRuns: 0, PBlocks: 164, SBlocks: 375,
			Stats: memalloc.Stats{Active: 0, Reserved: 1520435200, PeakActive: 1501233152, PeakReserved: 1520435200, AllocCount: 4290, FreeCount: 4290},
			Counters: cuda.Counters{Malloc: 1, Free: 0, AddressReserve: 641, AddressFree: 102,
				MemCreate: 715, MemRelease: 0, MemMap: 13015, MemUnmap: 1552, MemSet: 13015, BytesAllocated: 1520435200, BytesReleased: 0},
			Now: 1264023686,
		},
		{S1: 3708, S2: 87, S3: 306, S4: 68,
			StitchFrees: 0, GCRuns: 0, PBlocks: 157, SBlocks: 325,
			Stats: memalloc.Stats{Active: 0, Reserved: 1556086784, PeakActive: 1536688128, PeakReserved: 1556086784, AllocCount: 4171, FreeCount: 4171},
			Counters: cuda.Counters{Malloc: 1, Free: 0, AddressReserve: 571, AddressFree: 89,
				MemCreate: 732, MemRelease: 0, MemMap: 11990, MemUnmap: 1488, MemSet: 11990, BytesAllocated: 1556086784, BytesReleased: 0},
			Now: 1166199099,
		},
	}
	goldenChurn = [2]simState{
		{S1: 144, S2: 189, S3: 1429, S4: 465,
			StitchFrees: 1488, GCRuns: 432, PBlocks: 273, SBlocks: 21,
			Stats: memalloc.Stats{Active: 4013948928, Reserved: 4294967296, PeakActive: 4294967296, PeakReserved: 4294967296, AllocCount: 1795, FreeCount: 1772},
			Counters: cuda.Counters{Malloc: 0, Free: 0, AddressReserve: 2886, AddressFree: 2592,
				MemCreate: 3764, MemRelease: 852, MemMap: 169182, MemUnmap: 165205, MemSet: 168330, BytesAllocated: 6081740800, BytesReleased: 1786773504},
			Now: 16230763071,
		},
		{S1: 137, S2: 185, S3: 1440, S4: 465,
			StitchFrees: 1402, GCRuns: 432, PBlocks: 270, SBlocks: 21,
			Stats: memalloc.Stats{Active: 4013948928, Reserved: 4294967296, PeakActive: 4294967296, PeakReserved: 4294967296, AllocCount: 1795, FreeCount: 1772},
			Counters: cuda.Counters{Malloc: 0, Free: 0, AddressReserve: 2937, AddressFree: 2646,
				MemCreate: 3764, MemRelease: 852, MemMap: 171220, MemUnmap: 167243, MemSet: 170368, BytesAllocated: 6081740800, BytesReleased: 1786773504},
			Now: 16426516157,
		},
	}
)
