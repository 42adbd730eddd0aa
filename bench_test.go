// Micro-benchmarks: the host cost of the hot paths under the paper's
// allocator, the simulated driver's page table and the caching baseline,
// and of request-stream generation. CI runs the GMLake*, DriverMapUnmap,
// CachingBestFit, CachingSplitFree, CachingRefusal, CachingEqualSizes,
// TrainerStep, TrainerConverge, Generate and Serve ones on every push to
// show allocs/op, ns/request and allocs/request; `go run ./benchmark` is the benchmark that
// performance claims rest on, and the tables of the paper's evaluation are
// pinned by internal/harness/testdata/golden.
package gmlake

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/caching"
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

func newBenchDriver(capacity int64) *cuda.Driver {
	dev := gpu.NewDevice("bench", capacity)
	return cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
}

// mustAlloc returns alloc.Alloc with a failure ending the benchmark.
func mustAlloc(b *testing.B, alloc *core.Allocator) func(size int64) *memalloc.Buffer {
	return func(size int64) *memalloc.Buffer {
		buf, err := alloc.Alloc(size)
		if err != nil {
			b.Fatal(err)
		}
		return buf
	}
}

// BenchmarkGMLakeExactMatch measures the steady-state S1 hot path: one
// alloc+free pair served entirely from the cached pools.
func BenchmarkGMLakeExactMatch(b *testing.B) {
	alloc := core.NewDefault(newBenchDriver(8 * sim.GiB))
	warm, _ := alloc.Alloc(256 * sim.MiB)
	alloc.Free(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := alloc.Alloc(256 * sim.MiB)
		if err != nil {
			b.Fatal(err)
		}
		alloc.Free(buf)
	}
}

// BenchmarkGMLakeExactMatchOwners is the same S1 pair on a pBlock that 1 to
// 256 cached stitched views share, as converged training leaves them (≈ 45
// views per pBlock on train-lro). Each pair flips the pBlock's state twice
// and a flip writes the pBlock alone — the views learn of it when they are
// next looked up — so ns/op must read the same at every count and allocs/op
// at 0: the returned Buffer comes from the allocator's handle slab.
func BenchmarkGMLakeExactMatchOwners(b *testing.B) {
	const shared = 600 * sim.MiB
	for _, owners := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprint(owners), func(b *testing.B) {
			alloc := core.NewDefault(newBenchDriver(8 * sim.GiB))
			must := mustAlloc(b, alloc)
			// Stitch the shared pBlock with one partner pBlock per view.
			// Only the two are free while a view is stitched, and the
			// partner is taken back afterwards: each view stays cached over
			// the shared pBlock, unavailable.
			sharedBuf := must(shared)
			partners := make([]*memalloc.Buffer, owners)
			for i := range partners {
				partners[i] = must(core.ChunkSize)
			}
			alloc.Free(sharedBuf)
			for _, partner := range partners {
				alloc.Free(partner)
				alloc.Free(must(shared + core.ChunkSize))
				must(core.ChunkSize)
			}
			if _, _, s3, _ := alloc.StrategyCounts(); int(s3) != owners || alloc.SBlockCount() != owners {
				b.Fatalf("set-up stitched %d views (%d cached), want %d", s3, alloc.SBlockCount(), owners)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alloc.Free(must(shared))
			}
			b.StopTimer()
			if s1, _, _, _ := alloc.StrategyCounts(); int(s1) < b.N {
				b.Fatalf("%d exact matches in %d pairs", s1, b.N)
			}
		})
	}
}

// BenchmarkGMLakeSizeClass is the S1 pair on a pBlock among k of its size,
// every other one by VA held active, the lowest-addressed among them. The
// lookup reads the first set bit of the size's class past one clear bit, and
// a state flip writes one bit, so ns/op must read about the same at every k
// (within 1.5× from 64 to 8192) and allocs/op at 0 (the handle slab).
func BenchmarkGMLakeSizeClass(b *testing.B) {
	const size = 4 * sim.MiB
	for _, k := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			alloc := core.NewDefault(newBenchDriver(int64(k) * size))
			must := mustAlloc(b, alloc)
			bufs := make([]*memalloc.Buffer, k)
			for i := range bufs {
				bufs[i] = must(size)
			}
			slices.SortFunc(bufs, func(x, y *memalloc.Buffer) int { return cmp.Compare(x.Ptr, y.Ptr) })
			for i := 1; i < k; i += 2 {
				alloc.Free(bufs[i])
			}
			if alloc.PBlockCount() != k {
				b.Fatalf("set-up made %d pBlocks, want %d", alloc.PBlockCount(), k)
			}
			alloc.Free(must(size)) // warm: the first pair pays the cold misses
			s1Before, _, _, _ := alloc.StrategyCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alloc.Free(must(size))
			}
			b.StopTimer()
			if s1, _, _, _ := alloc.StrategyCounts(); s1-s1Before != int64(b.N) || alloc.PBlockCount() != k {
				b.Fatalf("%d exact matches in %d pairs, %d pBlocks", s1-s1Before, b.N, alloc.PBlockCount())
			}
		})
	}
}

// BenchmarkGMLakeSharedFlip is the S1 pair on a stitched block: m member
// pBlocks, each also under o other cached views (one per partner pBlock, the
// partners held so those views stay unavailable). A pair flips m pBlocks
// twice; ns/member must not depend on o.
func BenchmarkGMLakeSharedFlip(b *testing.B) {
	for _, shape := range []struct{ members, others int }{{8, 8}, {64, 64}} {
		b.Run(fmt.Sprintf("%dx%d", shape.members, shape.others), func(b *testing.B) {
			alloc := core.NewDefault(newBenchDriver(16 * sim.GiB))
			must := mustAlloc(b, alloc)
			// Member sizes are two chunks apart, so no view over one member
			// and a one-chunk partner has the size of another member.
			var total int64
			sizes := make([]int64, shape.members)
			held := make([]*memalloc.Buffer, shape.members)
			for i := range sizes {
				sizes[i] = 16*sim.MiB + int64(i)*2*core.ChunkSize
				held[i] = must(sizes[i])
				total += sizes[i]
			}
			partners := make([]*memalloc.Buffer, shape.others)
			for i := range partners {
				partners[i] = must(core.ChunkSize)
			}
			// As in ExactMatchOwners: only one member and one partner are
			// free while a view is stitched over the two.
			for i, size := range sizes {
				alloc.Free(held[i])
				for j, partner := range partners {
					alloc.Free(partner)
					alloc.Free(must(size + core.ChunkSize))
					partners[j] = must(core.ChunkSize)
				}
				held[i] = must(size)
			}
			for _, buf := range held {
				alloc.Free(buf)
			}
			alloc.Free(must(total))
			if want := shape.members*shape.others + 1; alloc.SBlockCount() != want {
				b.Fatalf("set-up cached %d views, want %d", alloc.SBlockCount(), want)
			}
			s1Before, _, _, _ := alloc.StrategyCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alloc.Free(must(total))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.members), "ns/member")
			if s1, _, _, _ := alloc.StrategyCounts(); int(s1-s1Before) != b.N {
				b.Fatalf("%d exact matches in %d pairs", s1-s1Before, b.N)
			}
		})
	}
}

// BenchmarkGMLakeAlternatingMembers caches k views over {A, B, Cⱼ}, every
// Cⱼ free, and makes A and B take turns being the one held: an op takes the
// free one and frees the held one. No view is ever available and none is
// looked up, so a 1→0 edge only has to put the freed pBlock's watchers back
// under their bits — once, after which no view watches anything — and ns/op
// must read the same at k = 16 and 256. Re-filing every view on the other
// member at each edge would make it O(k).
func BenchmarkGMLakeAlternatingMembers(b *testing.B) {
	const sizeA, sizeB, sizeC = 64 * sim.MiB, 32 * sim.MiB, core.ChunkSize
	for _, k := range []int{16, 256} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			alloc := core.NewDefault(newBenchDriver(2 * sim.GiB))
			must := mustAlloc(b, alloc)
			held, other := must(sizeA), must(sizeB)
			cs := make([]*memalloc.Buffer, k)
			for j := range cs {
				cs[j] = must(sizeC)
			}
			// Only A, B and Cⱼ are free while view j is stitched over them;
			// the earlier views stay unavailable through their held Cᵢ.
			for j, c := range cs {
				alloc.Free(held)
				alloc.Free(other)
				alloc.Free(c)
				alloc.Free(must(sizeA + sizeB + sizeC))
				cs[j], held, other = must(sizeC), must(sizeA), must(sizeB)
			}
			alloc.Free(other)
			for _, c := range cs {
				alloc.Free(c)
			}
			if _, _, s3, _ := alloc.StrategyCounts(); int(s3) != k || alloc.SBlockCount() != k {
				b.Fatalf("set-up stitched %d views (%d cached), want %d", s3, alloc.SBlockCount(), k)
			}
			s1Before, _, _, _ := alloc.StrategyCounts()
			sizeHeld, sizeOther := sizeA, sizeB
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := must(sizeOther)
				alloc.Free(held)
				held, sizeHeld, sizeOther = next, sizeOther, sizeHeld
			}
			b.StopTimer()
			if s1, _, _, _ := alloc.StrategyCounts(); int(s1-s1Before) != b.N || alloc.SBlockCount() != k {
				b.Fatalf("%d exact matches in %d ops, %d views cached", s1-s1Before, b.N, alloc.SBlockCount())
			}
		})
	}
}

// BenchmarkGMLakeStitch measures the S3 path: every iteration fuses two free
// pBlocks into a fresh sBlock (the stitched pool is flushed each time so the
// exact match can never hit).
func BenchmarkGMLakeStitch(b *testing.B) {
	alloc := core.NewDefault(newBenchDriver(8 * sim.GiB))
	b1, _ := alloc.Alloc(128 * sim.MiB)
	b2, _ := alloc.Alloc(128 * sim.MiB)
	alloc.Free(b1)
	alloc.Free(b2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := alloc.Alloc(256 * sim.MiB)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		alloc.Free(buf)
		alloc.EmptyCache() // drop pools so the next stitch starts cold
		w1, _ := alloc.Alloc(128 * sim.MiB)
		w2, _ := alloc.Alloc(128 * sim.MiB)
		alloc.Free(w1)
		alloc.Free(w2)
		b.StartTimer()
	}
}

// BenchmarkDriverMapUnmap measures the simulated driver's page table under
// the call pattern GMLake makes: map N consecutive chunks of one reservation
// in one call, set access on the range, unmap it. It must read 0 allocs/op at
// every N and the same ns/chunk across N — the host cost of a mapping does
// not depend on how many mappings its reservation already holds.
func BenchmarkDriverMapUnmap(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			d := newBenchDriver(4 * sim.GiB)
			size := int64(n) * cuda.ChunkGranularity
			va, err := d.MemAddressReserve(size)
			if err != nil {
				b.Fatal(err)
			}
			handles := make([]cuda.MemHandle, n)
			for i := range handles {
				if handles[i], err = d.MemCreate(cuda.ChunkGranularity); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.MemMap(va, handles...); err != nil {
					b.Fatal(err)
				}
				if err := d.MemSetAccess(va, size); err != nil {
					b.Fatal(err)
				}
				if err := d.MemUnmap(va, size); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/chunk")
		})
	}
}

// BenchmarkCachingBestFit measures the baseline's cache-hit path.
func BenchmarkCachingBestFit(b *testing.B) {
	alloc := caching.New(newBenchDriver(8 * sim.GiB))
	warm, _ := alloc.Alloc(256 * sim.MiB)
	alloc.Free(warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := alloc.Alloc(256 * sim.MiB)
		if err != nil {
			b.Fatal(err)
		}
		alloc.Free(buf)
	}
}

// BenchmarkCachingSplitFree measures the baseline's split path: each Alloc
// carves a block out of a cached segment and each Free merges it back, the
// remainder's record recycled, so the buffer is the one allocation per op.
func BenchmarkCachingSplitFree(b *testing.B) {
	alloc := caching.New(newBenchDriver(8 * sim.GiB))
	warm, _ := alloc.Alloc(4 * sim.MiB)
	alloc.Free(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := alloc.Alloc(4 * sim.MiB)
		if err != nil {
			b.Fatal(err)
		}
		alloc.Free(buf)
	}
}

// BenchmarkCachingRefusal measures the baseline's refusal path: a miss on
// a full device with nothing cached to flush, so cudaMalloc fails once and
// the error goes back up — the common case under a tight serving pool. A
// repeated refusal reuses the device's error, so it allocates nothing.
func BenchmarkCachingRefusal(b *testing.B) {
	alloc := caching.New(newBenchDriver(100 * sim.MiB))
	if _, err := alloc.Alloc(80 * sim.MiB); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.Alloc(80 * sim.MiB); err == nil {
			b.Fatal("Alloc on a full device succeeded")
		}
	}
}

// BenchmarkCachingEqualSizes measures the caching allocator's best fit when
// N equal-size inactive blocks lie between live ones, so they cannot merge,
// and each request is one unit larger: the lookup passes over all N before
// it splits a cached 20 MiB segment, and the Free merges the split back.
// The size bins walk those N blocks where a tree would descend log N
// levels; this is the index's worst case, recorded rather than gated.
func BenchmarkCachingEqualSizes(b *testing.B) {
	const size = 2 * sim.MiB
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			alloc := caching.New(newBenchDriver(16 * sim.GiB))
			// Whole 20 MiB segments of ten blocks, every other one of the
			// first 2n freed.
			bufs := make([]*memalloc.Buffer, (2*n+9)/10*10)
			for i := range bufs {
				buf, err := alloc.Alloc(size)
				if err != nil {
					b.Fatal(err)
				}
				bufs[i] = buf
			}
			for i := 0; i < 2*n; i += 2 {
				alloc.Free(bufs[i])
			}
			if got := alloc.FreeBlockCount(); got != n {
				b.Fatalf("%d inactive blocks, want %d", got, n)
			}
			op := func() {
				buf, err := alloc.Alloc(size + caching.MinBlockSize)
				if err != nil {
					b.Fatal(err)
				}
				alloc.Free(buf)
			}
			op() // the first request's segment stays cached
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkTrainerStep measures one full fine-tuning step through GMLake in
// steady state — the end-to-end hot path of the library.
func BenchmarkTrainerStep(b *testing.B) {
	drv := newBenchDriver(80 * sim.GiB)
	alloc := core.NewDefault(drv)
	spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyLR, World: 4, Batch: 16, Seed: 7}
	tr, err := workload.NewTrainer(spec, alloc, drv.Clock())
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		b.Fatal(err)
	}
	defer tr.Teardown()
	for i := 0; i < 60; i++ { // converge
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainerConverge measures GMLake's warm-up in the shape of the
// benchmark's train-lro workload: a fresh 80 GiB device, trainer set-up and
// the 60 steps that converge the stitched-block cache, per op. Most of the
// stitches, and so most of the simulated driver's page-table work, happen
// here rather than in a converged step.
func BenchmarkTrainerConverge(b *testing.B) {
	spec := workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drv := newBenchDriver(80 * sim.GiB)
		tr, err := workload.NewTrainer(spec, core.NewDefault(drv), drv.Clock())
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Setup(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 60; j++ {
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
		}
		tr.Teardown()
	}
}

// BenchmarkGenerate measures stream generation, the layer `go run
// ./benchmark` reports as setup_s: 100k requests of a one-shot mix and of
// the session mix per iteration. ns/request is the figure to watch; B/op
// over 100k is the bytes per request TestGenerateAllocationBudget caps.
func BenchmarkGenerate(b *testing.B) {
	const n = 100_000
	for _, mix := range []servegen.Mix{servegen.MixedBursty(), servegen.ChatSessions()} {
		b.Run(mix.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mix.Generate(n, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/request")
		})
	}
}

// BenchmarkServe measures whole Serve runs in serve-1m's shape over a fixed
// stream: 20 000 mixed-bursty requests at twice the mix's rate, ChunkedKV in
// 64-token chunks over the caching allocator on a 4 GiB device, batch 32.
// allocs/request and B/request count the Serve call alone, not the fresh
// device and manager each iteration builds; since a departed request's
// record is reissued to a later arrival, they are the allocator's buffer
// handles and little else.
func BenchmarkServe(b *testing.B) {
	const n = 20_000
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(2*mix.Rate).Generate(n, 7)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	var mallocs, bytes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mgr := serve.NewChunkedKV(caching.New(newBenchDriver(4*sim.GiB)), model.OPT1_3B, 64)
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if _, err := serve.Serve(reqs, mgr, serve.ServerConfig{MaxBatch: 32}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(b.N)/n, "allocs/request")
	b.ReportMetric(float64(bytes)/float64(b.N)/n, "B/request")
}

// BenchmarkServeCluster measures whole ServeCluster runs in fleet-64's
// shape over a fixed stream: 20 000 mixed-bursty requests at 2×64 times the
// mix's rate on 64 JSQ replicas (batch 32, 2 s aging), each a ChunkedKV in
// 64-token chunks over the caching allocator on a 4 GiB device.
// allocs/request and B/request count the ServeCluster call alone, not the
// fresh devices and managers each iteration builds; beyond the buffer
// handles they are the cluster layer's and the latency digests' share.
func BenchmarkServeCluster(b *testing.B) {
	const n, replicas = 20_000, 64
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(2*replicas*mix.Rate).Generate(n, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := serve.ClusterConfig{
		Replicas: replicas,
		Dispatch: serve.DispatchJSQ,
		Server:   serve.ServerConfig{MaxBatch: 32, Aging: 2 * time.Second},
	}
	mgrs := make([]serve.CacheManager, replicas)
	var before, after runtime.MemStats
	var mallocs, bytes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := range mgrs {
			mgrs[r] = serve.NewChunkedKV(caching.New(newBenchDriver(4*sim.GiB)), model.OPT1_3B, 64)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if _, err := serve.ServeCluster(reqs, func(r int) serve.CacheManager { return mgrs[r] }, cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(b.N)/n, "allocs/request")
	b.ReportMetric(float64(bytes)/float64(b.N)/n, "B/request")
}
