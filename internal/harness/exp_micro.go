package harness

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table1 reproduces the paper's Table 1: the execution-time breakdown of
// allocating 2 GB through the VMM API with 2 MB / 128 MB / 1024 MB physical
// chunks, normalized to a cudaMalloc of the same size.
func (e *Env) Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "VMM API execution time breakdown, normalized to cuMalloc (2 GB allocation)",
		Header: []string{"Chunk Size", "cuMemReserve", "cuMemCreate", "cuMemMap", "cuMemSetAccess", "Total"},
	}
	const block = 2 * sim.GiB
	chunks := []int64{2 * sim.MiB, 128 * sim.MiB, 1024 * sim.MiB}
	for i, v := range runCells(e, chunks, func(chunk int64) vmmTimes {
		return e.timeVMM(block, chunk)
	}) {
		norm := func(d time.Duration) float64 { return float64(d) / float64(v.malloc) }
		reserve, create, mapped, access := norm(v.reserve), norm(v.create), norm(v.mapped), norm(v.access)
		t.AddRow(sim.FormatBytes(chunks[i]),
			fmt.Sprintf("%.3f", reserve), fmt.Sprintf("%.2f", create),
			fmt.Sprintf("%.2f", mapped), fmt.Sprintf("%.2f", access),
			fmt.Sprintf("%.1f", reserve+create+mapped+access))
	}
	t.AddNote("paper totals: 115.4 (2MB), 9.1 (128MB), 1.5 (1024MB)")
	return t
}

// vmmTimes is the virtual time of allocating one block on a fresh native
// rig: through one cudaMalloc, and through each VMM phase in chunk-sized
// pieces.
type vmmTimes struct{ malloc, reserve, create, mapped, access time.Duration }

// vmm is the whole VMM allocation. The driver charges every call on its
// own, whatever came before, so the phases add up to the time of the
// interleaved create → map sequence an allocator issues.
func (v vmmTimes) vmm() time.Duration { return v.reserve + v.create + v.mapped + v.access }

// timeVMM allocates block bytes through cudaMalloc, frees them, then
// allocates them again through the VMM API in chunk-sized pieces, timing
// each phase.
func (e *Env) timeVMM(block, chunk int64) vmmTimes {
	r := e.newRig(AllocNative)
	d := r.driver
	var v vmmTimes
	timed := func(into *time.Duration, f func() error) {
		sw := sim.StartStopwatch(r.clock)
		if err := f(); err != nil {
			panic("harness: vmm timing: " + err.Error())
		}
		*into = sw.Elapsed()
	}
	var ptr, va cuda.DevicePtr
	timed(&v.malloc, func() (err error) { ptr, err = d.Malloc(block); return err })
	if err := d.Free(ptr); err != nil {
		panic(err.Error())
	}
	timed(&v.reserve, func() (err error) { va, err = d.MemAddressReserve(block); return err })
	handles := make([]cuda.MemHandle, block/chunk)
	timed(&v.create, func() (err error) {
		for i := range handles {
			if handles[i], err = d.MemCreate(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	timed(&v.mapped, func() error { return d.MemMap(va, handles...) })
	timed(&v.access, func() error { return d.MemSetAccess(va, block) })
	return v
}

// Figure6 reproduces the allocation-latency sweep: native allocator vs the
// VMM allocator at chunk sizes 2 MB .. 1 GB, for total block sizes 512 MB,
// 1 GB and 2 GB.
func (e *Env) Figure6() *Table {
	t := &Table{
		ID:     "figure6",
		Title:  "Allocation latency (ms): native vs virtual memory allocator by chunk size",
		Header: []string{"ChunkSize", "512MB block", "1GB block", "2GB block"},
	}
	blocks := []int64{512 * sim.MiB, 1 * sim.GiB, 2 * sim.GiB}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }

	// The cudaMalloc time does not depend on the chunk size.
	native := []string{"Native"}
	for _, blk := range blocks {
		native = append(native, ms(e.timeVMM(blk, blk).malloc))
	}
	t.AddRow(native...)

	// Cells: one row per chunk size; every row builds its rigs privately.
	var chunks []int64
	for chunk := 2 * sim.MiB; chunk <= sim.GiB; chunk *= 2 {
		chunks = append(chunks, chunk)
	}
	for _, row := range runCells(e, chunks, func(chunk int64) []string {
		row := []string{sim.FormatBytes(chunk)}
		for _, blk := range blocks {
			if chunk > blk {
				row = append(row, "-")
				continue
			}
			row = append(row, ms(e.timeVMM(blk, chunk).vmm()))
		}
		return row
	}) {
		t.AddRow(row...)
	}
	t.AddNote("paper: 2MB-chunked VMM is ~115x slower than native; latency falls monotonically with chunk size")
	return t
}

// NativeSlowdownEndToEnd reproduces §2.2's experiment: train OPT-1.3B with
// the caching allocator disabled (every tensor allocation hits cudaMalloc /
// synchronizing cudaFree) and report how much slower a training step gets.
// The paper measured 9.7x.
func (e *Env) NativeSlowdownEndToEnd() float64 {
	spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyR, World: 4, Batch: 16}
	stepTime := func(name string) time.Duration {
		r := e.newRig(name)
		tr, err := workload.NewTrainer(spec, r.alloc, r.clock)
		if err != nil {
			panic(err.Error())
		}
		if err := tr.Setup(); err != nil {
			panic("harness: native-vs-caching setup: " + err.Error())
		}
		defer tr.Teardown()
		// One warm-up step, then three measured.
		if err := tr.Step(); err != nil {
			panic(err.Error())
		}
		sw := sim.StartStopwatch(r.clock)
		for i := 0; i < 3; i++ {
			if err := tr.Step(); err != nil {
				panic(err.Error())
			}
		}
		return sw.Elapsed()
	}
	times := runCells(e, []string{AllocNative, AllocCaching}, stepTime)
	return float64(times[0]) / float64(times[1])
}

// NativeVsCachingSpeedup quantifies §2.2's "caching allocator is ~10x faster
// than the native allocator" using a replayed allocation stream. It returns
// the allocator-time-only ratio native/caching (much larger than the
// end-to-end ratio, which compute dilutes).
func (e *Env) NativeVsCachingSpeedup(allocs int) float64 {
	run := func(name string) time.Duration {
		r := e.newRig(name)
		rng := sim.NewRNG(e.Seed)
		sizes := make([]int64, allocs)
		for i := range sizes {
			sizes[i] = (rng.Int63n(256) + 1) * sim.MiB
		}
		sw := sim.StartStopwatch(r.clock)
		for _, s := range sizes {
			b, err := r.alloc.Alloc(s)
			if err != nil {
				panic(err.Error())
			}
			r.alloc.Free(b)
		}
		return sw.Elapsed()
	}
	return float64(run(AllocNative)) / float64(run(AllocCaching))
}

// Motivation renders §2.2's case for a caching allocator: how much slower
// the native allocator is, over allocator time alone and over whole
// training steps.
func (e *Env) Motivation() *Table {
	t := &Table{
		ID:     "motivation",
		Title:  "Native vs caching allocator slowdown (§2.2)",
		Header: []string{"Measure", "Native/Caching"},
	}
	const pairs = 2000
	t.AddRow(fmt.Sprintf("allocator time, %d (alloc,free) pairs", pairs), fmt.Sprintf("%.1fx", e.NativeVsCachingSpeedup(pairs)))
	step := e.NativeSlowdownEndToEnd()
	t.AddRow("step time, OPT-1.3B fine-tune (R, 4 GPUs, batch 16)", fmt.Sprintf("%.1fx", step))
	t.AddNote("paper: training with the native allocator is 9.7x slower end to end (abstract: ~10x); simulated %.1fx, a gap of %.1f", step, 9.7-step)
	t.AddNote("compute that no allocator changes dilutes the allocator-time ratio into the step-time one")
	return t
}
