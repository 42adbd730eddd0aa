// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus allocator micro-benchmarks and ablations of GMLake's design choices.
//
// Each BenchmarkTableN/BenchmarkFigureN runs a (step-reduced) version of the
// corresponding experiment once per iteration and reports the figure's
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation. cmd/gmlake-bench prints the full tables.
package gmlake

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/lint"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/reqtrace"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchEnv runs experiments with reduced step budgets so the full benchmark
// suite finishes in minutes. The shapes are unchanged; absolute reserved
// numbers are within a few percent of the full-budget runs.
func benchEnv() *harness.Env {
	e := harness.NewEnv()
	e.TotalSteps = 15
	e.MaxSteps = 90
	e.MeasureSteps = 5
	return e
}

func renderAll(b *testing.B, tables []*harness.Table) {
	b.Helper()
	for _, t := range tables {
		t.Render(io.Discard)
	}
}

func BenchmarkTable1(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Table1()})
	}
}

func BenchmarkFigure3(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Figure3()})
	}
}

func BenchmarkFigure4(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Figure4()})
	}
}

func BenchmarkFigure5(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Figure5()})
	}
}

func BenchmarkFigure6(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Figure6()})
	}
}

func BenchmarkFigure10(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, e.Figure10())
	}
}

func BenchmarkFigure11(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, e.Figure11())
	}
}

func BenchmarkFigure12(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Figure12()})
	}
}

func BenchmarkFigure13(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, e.Figure13())
	}
}

func BenchmarkFigure14(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		t, _ := e.Figure14()
		renderAll(b, []*harness.Table{t})
	}
}

func BenchmarkHeadline(b *testing.B) {
	e := benchEnv()
	var saved float64
	for i := 0; i < b.N; i++ {
		spec := workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24}
		base, gml := e.Compare(spec, harness.RunOptions{})
		saved = float64(base.PeakReserved-gml.PeakReserved) / float64(sim.GiB)
	}
	b.ReportMetric(saved, "GB-saved")
}

func BenchmarkExtended(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.Extended()})
	}
}

func BenchmarkCluster(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.ClusterExperiment()})
	}
}

// --- Allocator micro-benchmarks ---

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
// stays at the one returned Buffer.
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
// the call pattern every VMM allocator makes: map N consecutive chunks of one
// reservation, set access on the range, unmap it. It must read 0 allocs/op at
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
				for j, h := range handles {
					if err := d.MemMap(va+cuda.DevicePtr(int64(j)*cuda.ChunkGranularity), h); err != nil {
						b.Fatal(err)
					}
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

// BenchmarkNativeAllocFree measures the strawman's driver round trip.
func BenchmarkNativeAllocFree(b *testing.B) {
	alloc := memalloc.NewNative(newBenchDriver(8 * sim.GiB))
	for i := 0; i < b.N; i++ {
		buf, err := alloc.Alloc(256 * sim.MiB)
		if err != nil {
			b.Fatal(err)
		}
		alloc.Free(buf)
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

// --- Ablations (the design choices of harness experiment "ablations") ---

// ablationRun measures peak reserved and virtual step time for one GMLake
// configuration on the fragmentation-prone LRO workload.
func ablationRun(b *testing.B, cfg core.Config) (reservedGB, virtSec float64) {
	b.Helper()
	drv := newBenchDriver(80 * sim.GiB)
	alloc := core.New(drv, cfg)
	spec := workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24, Seed: 7}
	tr, err := workload.NewTrainer(spec, alloc, drv.Clock())
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		b.Fatal(err)
	}
	defer tr.Teardown()
	const steps = 40
	start := drv.Clock().Now()
	for i := 0; i < steps; i++ {
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
	virt := (drv.Clock().Now() - start).Seconds() / steps
	return float64(alloc.Stats().PeakReserved) / float64(sim.GiB), virt
}

// BenchmarkAblationRebindOnSplit compares split semantics: rebinding cached
// sBlocks across splits (our extension) vs destroying them (the paper's
// literal description). Rebinding preserves the convergence tape, which
// shows up as lower steady-state virtual step time.
func BenchmarkAblationRebindOnSplit(b *testing.B) {
	for _, rebind := range []bool{true, false} {
		name := "rebind"
		if !rebind {
			name = "destroy"
		}
		b.Run(name, func(b *testing.B) {
			var res, virt float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.RebindOnSplit = rebind
				res, virt = ablationRun(b, cfg)
			}
			b.ReportMetric(res, "GB-reserved")
			b.ReportMetric(virt, "virt-s/step")
		})
	}
}

// BenchmarkAblationFragLimit sweeps the §4.2.3 fragmentation limit.
func BenchmarkAblationFragLimit(b *testing.B) {
	for _, limMB := range []int64{2, 32, 128, 512} {
		b.Run(sim.FormatBytes(limMB*sim.MiB), func(b *testing.B) {
			var res, virt float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.FragLimit = limMB * sim.MiB
				res, virt = ablationRun(b, cfg)
			}
			b.ReportMetric(res, "GB-reserved")
			b.ReportMetric(virt, "virt-s/step")
		})
	}
}

// BenchmarkAblationSPoolCap sweeps the StitchFree cap: a small stitched pool
// evicts the cached views GMLake converges on.
func BenchmarkAblationSPoolCap(b *testing.B) {
	for _, cap := range []int{64, 1024, 32768} {
		b.Run(sim.FormatBytes(int64(cap)), func(b *testing.B) {
			var res, virt float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.MaxSBlocks = cap
				res, virt = ablationRun(b, cfg)
			}
			b.ReportMetric(res, "GB-reserved")
			b.ReportMetric(virt, "virt-s/step")
		})
	}
}

// BenchmarkZeRO regenerates the ZeRO stage/world table (extension).
func BenchmarkZeRO(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.ZeROExperiment()})
	}
}

// BenchmarkTopology regenerates the 3D-parallelism memory-plan table
// (extension).
func BenchmarkTopology(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.TopologyExperiment()})
	}
}

// BenchmarkRecomputePlans regenerates the checkpointing-plan table
// (extension).
func BenchmarkRecomputePlans(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.RecomputeExperiment()})
	}
}

// BenchmarkOffloadPipeline regenerates the ZeRO-Offload pipeline table
// (extension).
func BenchmarkOffloadPipeline(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.OffloadExperiment()})
	}
}

// BenchmarkStreams regenerates the record_stream deferral table (extension).
func BenchmarkStreams(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.StreamsExperiment()})
	}
}

// BenchmarkServing regenerates the KV-cache policy comparison (extension;
// the paper's Table 3 scope argument).
func BenchmarkServing(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.ServingExperiment()})
	}
}

// BenchmarkFragIndex regenerates the FMFI-style fragmentation indices
// (extension).
func BenchmarkFragIndex(b *testing.B) {
	e := benchEnv()
	e.TotalSteps = 6
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.FragIndexExperiment()})
	}
}

// BenchmarkServeDecodeStep prices one decode step across KV policies: the
// per-token allocator work each policy pays at batch 16.
func BenchmarkServeDecodeStep(b *testing.B) {
	for _, pool := range []string{"caching", "gmlake"} {
		b.Run("chunked-"+pool, func(b *testing.B) {
			dev := gpu.NewDevice("bench", 40*sim.GiB)
			drv := cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel())
			var alloc memalloc.Allocator
			if pool == "gmlake" {
				alloc = core.NewDefault(drv)
			} else {
				alloc = caching.New(drv)
			}
			mgr := serve.NewChunkedKV(alloc, model.OPT1_3B, 64)
			admitAll := func() []serve.SeqHandle {
				handles := make([]serve.SeqHandle, 0, 16)
				for s := 0; s < 16; s++ {
					h, err := mgr.Admit(serve.Request{ID: s, PromptLen: 64 + 16*s, OutputLen: 1 << 20})
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, h)
				}
				return handles
			}
			handles := admitAll()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Recycle sequences periodically so unbounded b.N cannot
				// exhaust the simulated device.
				if i > 0 && i%512 == 0 {
					for _, h := range handles {
						mgr.Release(h)
					}
					handles = admitAll()
				}
				for _, h := range handles {
					if err := mgr.Append(h); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Serving-loop and harness-engine trajectory benchmarks ---

// BenchmarkServeStream prices the continuous-batching loop itself on a long
// mixed-bursty multi-tenant stream. The arrival rate is cranked an order of
// magnitude above the server's service rate so thousands of requests are
// pending at once — the regime where admission, idle-jump and victim
// selection dominate the loop. Reports ns per served request.
func BenchmarkServeStream(b *testing.B) {
	const requests = 4000
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(mix.Rate*10).Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv := newBenchDriver(4 * sim.GiB)
		mgr := serve.NewChunkedKV(caching.New(drv), model.OPT1_3B, 64)
		rep, err := serve.Serve(reqs, mgr, serve.ServerConfig{MaxBatch: 32})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Served != requests {
			b.Fatalf("served %d of %d", rep.Served, requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
}

// BenchmarkServeScale is the million-request scale benchmark: one server at
// a near-sustainable 2x mixed-bursty rate (the backlog stays bounded, so
// the run measures steady-state serving rather than queue pathology) over
// 1M and 10M requests. Beyond the streaming-quantile threshold the latency
// digests hold a fixed number of sketch buckets however long the run, so
// memory is flat in n; retained-samples vs sketched-samples is the report's
// footprint proxy (raw samples held exactly versus samples absorbed into
// fixed-size sketches). Reports ns per served request plus both counts.
func BenchmarkServeScale(b *testing.B) {
	mix := servegen.MixedBursty()
	for _, requests := range []int{1_000_000, 10_000_000} {
		// "=" rather than "-" before the count: scripts/bench.sh treats a
		// trailing "-<digits>" as go test's GOMAXPROCS suffix.
		b.Run(fmt.Sprintf("requests=%d", requests), func(b *testing.B) {
			reqs, err := mix.WithRate(mix.Rate*2).Generate(requests, 7)
			if err != nil {
				b.Fatal(err)
			}
			var retained, sketched int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drv := newBenchDriver(4 * sim.GiB)
				mgr := serve.NewChunkedKV(caching.New(drv), model.OPT1_3B, 64)
				rep, err := serve.Serve(reqs, mgr, serve.ServerConfig{MaxBatch: 32})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Served != requests {
					b.Fatalf("served %d of %d", rep.Served, requests)
				}
				retained, sketched = rep.RetainedSamples, rep.SketchedSamples
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
			b.ReportMetric(float64(retained), "retained-samples")
			b.ReportMetric(float64(sketched), "sketched-samples")
		})
	}
}

// BenchmarkServeCluster prices the multi-replica cluster on the same 10x
// overloaded mixed-bursty stream at 1→8 replicas under join-shortest-queue
// dispatch and 2s priority aging. It reports ns per served request (the
// scheduler + dispatch cost) and the batch class's p99 E2E in milliseconds —
// the starvation tail the replicas and aging exist to shrink
// (scripts/bench.sh records both in BENCH_*.json).
func BenchmarkServeCluster(b *testing.B) {
	const requests = 4000
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(mix.Rate*10).Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, replicas := range []int{1, 2, 4, 8} {
		// "=" rather than "-" before the count: scripts/bench.sh treats a
		// trailing "-<digits>" as go test's GOMAXPROCS suffix.
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			var batchP99 time.Duration
			for i := 0; i < b.N; i++ {
				rep, err := serve.ServeCluster(reqs, func(int) serve.CacheManager {
					return serve.NewChunkedKV(caching.New(newBenchDriver(4*sim.GiB)), model.OPT1_3B, 64)
				}, serve.ClusterConfig{
					Replicas: replicas,
					Dispatch: serve.DispatchJSQ,
					Server:   serve.ServerConfig{MaxBatch: 32, Aging: 2 * time.Second},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Served != requests {
					b.Fatalf("served %d of %d", rep.Served, requests)
				}
				batchP99 = rep.Class("batch-backfill").E2E.P99
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
			b.ReportMetric(float64(batchP99.Milliseconds()), "batch-p99-ms")
		})
	}
}

// BenchmarkServeElastic prices elasticity on the 10x-overloaded
// mixed-bursty stream: the static MaxReplicas fleet versus the autoscaled
// (and autoscaled + work-stealing) 1..MaxReplicas fleet. Each variant
// reports ns per served request, the batch class's p99 E2E and the fleet's
// replica-seconds; scripts/bench.sh derives elastic_drain_savings (the
// replica-seconds the autoscaler did not consume versus the static fleet)
// and elastic_p99_ratio (the latency price paid for them) into
// BENCH_*.json.
func BenchmarkServeElastic(b *testing.B) {
	const (
		requests = 4000
		maxFleet = 8
	)
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(mix.Rate*10).Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		cfg  serve.ClusterConfig
	}{
		{"fleet=static", serve.ClusterConfig{
			Replicas: maxFleet,
			Dispatch: serve.DispatchJSQ,
			Server:   serve.ServerConfig{MaxBatch: 32, Aging: 2 * time.Second},
		}},
		{"fleet=elastic", serve.ClusterConfig{
			MinReplicas: 1, MaxReplicas: maxFleet,
			Dispatch: serve.DispatchJSQ,
			Server:   serve.ServerConfig{MaxBatch: 32, Aging: 2 * time.Second},
		}},
		{"fleet=elastic+steal", serve.ClusterConfig{
			MinReplicas: 1, MaxReplicas: maxFleet, Steal: true,
			Dispatch: serve.DispatchJSQ,
			Server:   serve.ServerConfig{MaxBatch: 32, Aging: 2 * time.Second},
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var batchP99, replicaSecs time.Duration
			for i := 0; i < b.N; i++ {
				rep, err := serve.ServeCluster(reqs, func(int) serve.CacheManager {
					return serve.NewChunkedKV(caching.New(newBenchDriver(4*sim.GiB)), model.OPT1_3B, 64)
				}, v.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Served != requests {
					b.Fatalf("served %d of %d", rep.Served, requests)
				}
				batchP99 = rep.Class("batch-backfill").E2E.P99
				replicaSecs = rep.ReplicaSeconds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
			b.ReportMetric(float64(batchP99.Milliseconds()), "batch-p99-ms")
			b.ReportMetric(replicaSecs.Seconds(), "replica-secs")
		})
	}
}

// BenchmarkServeFaults prices serving under replica crashes: the
// 10x-overloaded mixed-bursty stream on a 4-replica fleet at four fault
// intensities (fault-free, then MTTF 8s/4s/2s with MTTR 400ms), retries:3
// with exponential backoff and a 120s deadline. Each variant reports
// goodput as a percentage of the offered load and the capacity-weighted
// availability; scripts/bench.sh charts them as goodput_under_faults and
// availability in BENCH_*.json. Faults come from seeded streams, so every
// iteration replays the identical fault history.
func BenchmarkServeFaults(b *testing.B) {
	const (
		requests = 2000
		fleet    = 4
	)
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(mix.Rate*10).Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		mttf time.Duration
	}{
		{"faults=none", 0},
		{"faults=mttf8s", 8 * time.Second},
		{"faults=mttf4s", 4 * time.Second},
		{"faults=mttf2s", 2 * time.Second},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := serve.ClusterConfig{
				Replicas: fleet,
				Dispatch: serve.DispatchJSQ,
				Server:   serve.ServerConfig{MaxBatch: 32, Timeout: 120 * time.Second},
				Recovery: serve.RecoveryConfig{Retries: 3, Backoff: 2},
			}
			if v.mttf > 0 {
				cfg.Faults = serve.FaultConfig{MTTF: v.mttf, MTTR: 400 * time.Millisecond, Seed: 7}
			}
			var rep serve.ClusterReport
			for i := 0; i < b.N; i++ {
				rep, err = serve.ServeCluster(reqs, func(int) serve.CacheManager {
					return serve.NewChunkedKV(caching.New(newBenchDriver(4*sim.GiB)), model.OPT1_3B, 64)
				}, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			if v.mttf == 0 && rep.Goodput != requests {
				b.Fatalf("fault-free goodput %d of %d", rep.Goodput, requests)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
			b.ReportMetric(100*float64(rep.Goodput)/float64(requests), "goodput-pct")
			b.ReportMetric(100*rep.Availability, "avail-pct")
			b.ReportMetric(float64(rep.Crashes), "crashes")
		})
	}
}

// BenchmarkServeSession prices session-grade serving: the chat-sessions
// multi-turn mix (prompts growing by the prior exchange) on a 4-replica
// fleet with KV prefix reuse on, under session-affinity dispatch versus
// plain jsq and least-kv. Each variant reports the cluster TTFT p50/p99,
// the prefill tokens skipped on resident prefixes, how many requests the
// sticky probe routed, and the dispatch load imbalance (max−min assigned
// as a percentage of the per-replica mean); scripts/bench.sh derives
// affinity_ttft_savings (jsq TTFT p50 − affinity TTFT p50) into
// BENCH_*.json — the milliseconds the affinity router saves per median
// request by not scattering a conversation's turns across the fleet.
func BenchmarkServeSession(b *testing.B) {
	const (
		requests = 4000
		fleet    = 4
	)
	mix := servegen.ChatSessions()
	reqs, err := mix.WithRate(mix.Rate*8).Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name     string
		dispatch serve.DispatchPolicy
		base     serve.DispatchPolicy
	}{
		{"dispatch=affinity", serve.DispatchSessionAffinity, serve.DispatchJSQ},
		{"dispatch=jsq", serve.DispatchJSQ, ""},
		{"dispatch=least-kv", serve.DispatchLeastKV, ""},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var rep serve.ClusterReport
			for i := 0; i < b.N; i++ {
				rep, err = serve.ServeCluster(reqs, func(int) serve.CacheManager {
					return serve.NewChunkedKV(caching.New(newBenchDriver(4*sim.GiB)), model.OPT1_3B, 64)
				}, serve.ClusterConfig{
					Replicas:     fleet,
					Dispatch:     v.dispatch,
					AffinityBase: v.base,
					Server:       serve.ServerConfig{MaxBatch: 32, PrefixReuse: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Served != requests {
					b.Fatalf("served %d of %d", rep.Served, requests)
				}
			}
			min, max := rep.Assigned[0], rep.Assigned[0]
			for _, n := range rep.Assigned[1:] {
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
			b.ReportMetric(float64(rep.TTFT.P50.Microseconds())/1e3, "ttft-p50-ms")
			b.ReportMetric(float64(rep.TTFT.P99.Microseconds())/1e3, "ttft-p99-ms")
			b.ReportMetric(float64(rep.ReusedTokens), "reused-tok")
			b.ReportMetric(float64(rep.AffinityRouted), "affinity-routed")
			b.ReportMetric(100*float64(max-min)/(float64(requests)/fleet), "imbalance-pct")
		})
	}
}

// BenchmarkTraceReplay prices request-stream production: generating the
// 10x-overloaded mixed-bursty stream synthetically versus replaying it from
// a captured request trace (decode from in-memory JSONL bytes + replay —
// the whole per-run cost a trace-driven experiment pays instead of
// generation). Both report ns per produced request; scripts/bench.sh
// derives their ratio as trace_replay_overhead in BENCH_*.json.
func BenchmarkTraceReplay(b *testing.B) {
	const requests = 4000
	mix := servegen.MixedBursty()
	over := mix.WithRate(mix.Rate * 10)
	reqs, err := over.Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := reqtrace.FromRequests(reqs).WriteJSONL(&encoded); err != nil {
		b.Fatal(err)
	}

	b.Run("source=synthetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := over.Generate(requests, 7)
			if err != nil || len(out) != requests {
				b.Fatalf("generated %d: %v", len(out), err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
	})
	b.Run("source=replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := reqtrace.Read(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			out, err := tr.Replay(reqtrace.ReplayOptions{})
			if err != nil || len(out) != requests {
				b.Fatalf("replayed %d: %v", len(out), err)
			}
			if out[0] != reqs[0] || out[requests-1] != reqs[requests-1] {
				b.Fatal("replay diverged from the generated stream")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
	})
}

// BenchmarkTraceFit prices calibration — fitting a servegen mix to a
// 4000-request trace — and reports the fitted mix's aggregate fit error
// (mean of the rate and length moment-match errors, in percent) as
// fit-err-pct; scripts/bench.sh records it as the fit_error derived metric
// in BENCH_*.json, charting calibration quality over PRs alongside its
// cost.
func BenchmarkTraceFit(b *testing.B) {
	const requests = 4000
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(mix.Rate*10).Generate(requests, 7)
	if err != nil {
		b.Fatal(err)
	}
	tr := reqtrace.FromRequests(reqs)
	var fitErr float64
	for i := 0; i < b.N; i++ {
		m, err := reqtrace.Fit(tr)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := reqtrace.FitError(tr, m, requests, 11)
		if err != nil {
			b.Fatal(err)
		}
		fitErr = (rep.RateErr + rep.PromptMeanErr + rep.OutputMeanErr) / 3
	}
	b.ReportMetric(100*fitErr, "fit-err-pct")
}

// harnessBenchSlice is the experiment list the engine benchmarks sweep: a
// mix of cheap micro tables and the cell-heavy extended comparison, enough
// work for the worker pool to matter without the full-suite runtime.
var harnessBenchSlice = []string{"table1", "figure3", "figure4", "figure12", "extended"}

func benchmarkHarness(b *testing.B, parallelism int) {
	e := benchEnv()
	e.Parallelism = parallelism
	for i := 0; i < b.N; i++ {
		for _, id := range harnessBenchSlice {
			renderAll(b, e.RunExperiment(id))
		}
	}
}

// BenchmarkHarnessSequential pins the single-worker wall-clock of the
// experiment slice; BenchmarkHarnessParallel runs the identical cells on
// the GOMAXPROCS-bounded pool. Their ratio is the engine's speedup on this
// host (scripts/bench.sh records it in BENCH_*.json).
func BenchmarkHarnessSequential(b *testing.B) { benchmarkHarness(b, 1) }

// BenchmarkHarnessParallel is the same slice at Parallelism = GOMAXPROCS.
func BenchmarkHarnessParallel(b *testing.B) { benchmarkHarness(b, 0) }

// BenchmarkPipeFrag regenerates the pipeline-schedule fragmentation table
// (extension).
func BenchmarkPipeFrag(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		renderAll(b, []*harness.Table{e.PipelineExperiment()})
	}
}

// BenchmarkLintTree measures the determinism-contract linter's full-suite
// wall time over the whole repository — parse, type-check, call-graph
// construction, effect propagation and every analyzer — the same work the
// CI lint step performs. scripts/bench.sh tracks its per-run milliseconds
// in BENCH_*.json (lint_tree_ms) so a complexity regression in the
// interprocedural passes shows up in the trajectory, and scripts/lint_ci.sh
// enforces a hard 2x budget against the recorded baseline on every push.
func BenchmarkLintTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A fresh loader per iteration: memoization would otherwise make
		// every iteration after the first measure nothing but analysis
		// re-runs on cached type information.
		l, err := lint.NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		if diags := lint.Run(pkgs, lint.All()); len(diags) > 0 {
			b.Fatalf("lint tree not clean: %d finding(s), first: %s", len(diags), diags[0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "lint-ms")
}
