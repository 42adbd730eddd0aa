// Package gmlake is a pure-Go reproduction of "GMLake: Efficient and
// Transparent GPU Memory Defragmentation for Large-scale DNN Training with
// Virtual Memory Stitching" (ASPLOS 2024).
//
// This package declares nothing: the library lives in internal packages,
// and the programs under examples/ and the Example functions of each
// package call them directly. What they hold:
//
//   - a simulated GPU device and CUDA driver (native allocator + low-level
//     virtual memory management API) with a latency cost model calibrated to
//     the paper's measurements (internal/gpu, internal/cuda, internal/sim);
//   - the PyTorch-style best-fit-with-coalescing caching allocator the paper
//     uses as its baseline (internal/caching), and the expandable-segments
//     and compaction allocators of its §6 comparison (internal/expandable);
//   - the GMLake allocator itself: primitive and stitched memory pools,
//     the BestFit algorithm and the multi-state defragmentation strategy
//     (internal/core);
//   - LLM fine-tuning workload generators (internal/workload) and the
//     experiment harness that regenerates every table and figure of the
//     paper's evaluation (internal/harness, cmd/gmlake-bench), swept by a
//     deterministic parallel engine whose rendered tables are
//     byte-identical at any worker count;
//   - an inference-serving simulator (internal/serve, internal/servegen,
//     internal/reqtrace): KV-cache policies under continuous batching,
//     multi-tenant workload mixes with per-SLO-class reports, a
//     multi-replica cluster with dispatch policies, autoscaling, work
//     stealing, sessions with KV prefix reuse, fault injection and request
//     traces. Its configuration keys are described once, in the field table
//     of internal/conf; `go run ./cmd/gmlake-serve -h` prints it.
//
// # Quick start
//
//	drv := cuda.NewDriver(gpu.NewDevice("sim-gpu", 80*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
//	alloc := core.NewDefault(drv)
//	buf, err := alloc.Alloc(512 * sim.MiB)
//	if err != nil { ... }
//	alloc.Free(buf)
//	fmt.Println(alloc.Stats().Utilization())
//
// # Examples
//
// Three complete programs, whose output TestExamplesOutput pins:
//
//   - examples/quickstart: stitching four scattered free blocks into one
//     allocation, against the caching baseline;
//   - examples/finetune: a LoRA + recomputation fine-tuning run under both
//     allocators;
//   - examples/serving: the serving simulator end to end — KV policies,
//     mixes, cluster dispatch, sessions, faults and request traces.
//
// Shorter runnable Example functions sit beside the packages they
// document: internal/core, internal/workload, internal/stream and
// internal/fragstat.
//
// # Fixed points
//
// Every harness experiment is pinned to a checked-in rendering,
// internal/harness/testdata/golden/<id>.golden, at Parallelism 1 and 8.
// After an intended change to a simulated number, regenerate and review:
//
//	go test ./internal/harness -run TestExperimentGoldens -update
//
// Performance claims rest on `go run ./benchmark` (see benchmark/README.md).
package gmlake
