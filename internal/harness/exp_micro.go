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
	breakdowns := runCells(e, chunks, func(chunk int64) vmmBreakdown {
		return e.vmmBreakdown(block, chunk)
	})
	for i, b := range breakdowns {
		t.AddRow(sim.FormatBytes(chunks[i]),
			fmt.Sprintf("%.3f", b.reserve), fmt.Sprintf("%.2f", b.create),
			fmt.Sprintf("%.2f", b.mapped), fmt.Sprintf("%.2f", b.access),
			fmt.Sprintf("%.1f", b.total()))
	}
	t.AddNote("paper totals: 115.4 (2MB), 9.1 (128MB), 1.5 (1024MB)")
	return t
}

type vmmBreakdown struct{ reserve, create, mapped, access float64 }

func (b vmmBreakdown) total() float64 { return b.reserve + b.create + b.mapped + b.access }

// vmmBreakdown measures each VMM phase for allocating block bytes in chunks,
// normalized to cudaMalloc(block).
func (e *Env) vmmBreakdown(block, chunk int64) vmmBreakdown {
	r := e.newRig(AllocNative)
	d := r.driver

	sw := sim.StartStopwatch(r.clock)
	ptr, err := d.Malloc(block)
	if err != nil {
		panic("harness: table1 malloc: " + err.Error())
	}
	base := float64(sw.Elapsed())
	if err := d.Free(ptr); err != nil {
		panic(err.Error())
	}

	phase := func(f func()) float64 {
		sw := sim.StartStopwatch(r.clock)
		f()
		return float64(sw.Elapsed()) / base
	}

	var va cuda.DevicePtr
	reserve := phase(func() {
		va, err = d.MemAddressReserve(block)
		if err != nil {
			panic(err.Error())
		}
	})
	n := block / chunk
	handles := make([]cuda.MemHandle, n)
	create := phase(func() {
		for i := range handles {
			h, err := d.MemCreate(chunk)
			if err != nil {
				panic(err.Error())
			}
			handles[i] = h
		}
	})
	mapped := phase(func() {
		for i, h := range handles {
			if err := d.MemMap(va+cuda.DevicePtr(int64(i)*chunk), h); err != nil {
				panic(err.Error())
			}
		}
	})
	access := phase(func() {
		if err := d.MemSetAccess(va, block); err != nil {
			panic(err.Error())
		}
	})
	return vmmBreakdown{reserve: reserve, create: create, mapped: mapped, access: access}
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

	native := []string{"Native"}
	for _, blk := range blocks {
		r := e.newRig(AllocNative)
		sw := sim.StartStopwatch(r.clock)
		ptr, err := r.driver.Malloc(blk)
		if err != nil {
			panic(err.Error())
		}
		native = append(native, fmt.Sprintf("%.2f", sw.Elapsed().Seconds()*1e3))
		_ = r.driver.Free(ptr)
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
			row = append(row, fmt.Sprintf("%.2f", e.vmmAllocLatency(blk, chunk).Seconds()*1e3))
		}
		return row
	}) {
		t.AddRow(row...)
	}
	t.AddNote("paper: 2MB-chunked VMM is ~115x slower than native; latency falls monotonically with chunk size")
	return t
}

func (e *Env) vmmAllocLatency(block, chunk int64) time.Duration {
	r := e.newRig(AllocNative)
	d := r.driver
	sw := sim.StartStopwatch(r.clock)
	va, err := d.MemAddressReserve(block)
	if err != nil {
		panic(err.Error())
	}
	for off := int64(0); off < block; off += chunk {
		h, err := d.MemCreate(chunk)
		if err != nil {
			panic(err.Error())
		}
		if err := d.MemMap(va+cuda.DevicePtr(off), h); err != nil {
			panic(err.Error())
		}
	}
	if err := d.MemSetAccess(va, block); err != nil {
		panic(err.Error())
	}
	return sw.Elapsed()
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
