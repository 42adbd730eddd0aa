package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

// TestSmallPoolOOMRunsGC is the chunked-gmlake regression: on a device the
// stitched pool has cached whole, a sub-2 MiB prompt needs a fresh 20 MiB
// small-pool segment. Alloc used to return the small pool's OOM untouched and
// the stream aborted "does not fit even alone" at request 653 (3 GiB) and
// 3 611 (4 GiB); it must release inactive pBlocks and retry.
func TestSmallPoolOOMRunsGC(t *testing.T) {
	const n = 20000
	reqs, err := servegen.MixedBursty().WithRate(servegen.MixedBursty().Rate*8).Generate(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int64{3 * sim.GiB, 4 * sim.GiB} {
		t.Run(fmt.Sprintf("%dGiB", capacity/sim.GiB), func(t *testing.T) {
			var gcRuns int64
			var allocs []*core.Allocator
			rep, err := serve.ServeCluster(reqs, func(int) serve.CacheManager {
				a, _ := newAllocator(capacity, core.DefaultConfig())
				allocs = append(allocs, a)
				return serve.NewChunkedKV(a, model.OPT1_3B, 64)
			}, serve.ClusterConfig{Replicas: 4, Dispatch: serve.DispatchLeastKV, Server: serve.ServerConfig{MaxBatch: 64}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Served != n {
				t.Fatalf("served %d of %d", rep.Served, n)
			}
			for _, a := range allocs {
				gcRuns += a.GCRuns()
				if err := a.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if gcRuns == 0 {
				t.Fatal("stream never ran the GC fallback: the device is too large to pin the fix")
			}
		})
	}
}
