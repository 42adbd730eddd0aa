// Command gmlake-replay records fine-tuning allocation streams to JSON and
// replays them against any allocator — the cleanest apples-to-apples
// allocator comparison, since every run sees byte-identical requests.
//
// Usage:
//
//	gmlake-replay -record -model OPT-13B -strategy LRO -steps 20 -out stream.json
//	gmlake-replay -in stream.json -alloc gmlake
//	gmlake-replay -in stream.json -alloc all
//
// Recording uses the caching allocator (the stream is allocator-independent;
// the trainer emits identical requests either way).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/caching"
	"repro/internal/conf"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		record   = flag.Bool("record", false, "record a new trace instead of replaying")
		inPath   = flag.String("in", "", "trace JSON to replay")
		outPath  = flag.String("out", "trace.json", "output path for -record")
		alloc    = flag.String("alloc", "all", "replay target: "+strings.Join(conf.Backends(), "|")+"|all")
		modelStr = flag.String("model", "OPT-13B", "model to record")
		strategy = flag.String("strategy", "LRO", "strategy letters for -record (e.g. N, R, LR, LRO)")
		world    = flag.Int("world", 4, "data-parallel world for -record")
		batch    = flag.Int("batch", 16, "per-GPU batch for -record")
		steps    = flag.Int("steps", 20, "training steps for -record")
		capacity = flag.Int64("capacity-gb", 80, "device memory in GiB")
		seed     = flag.Uint64("seed", 7, "workload seed")
	)
	flag.Parse()
	// Every error is one "gmlake-replay: …" line; bad values are rejected
	// before anything is printed.
	log.SetFlags(0)
	log.SetPrefix("gmlake-replay: ")
	if *capacity <= 0 {
		log.Fatalf("-capacity-gb must be positive, got %d", *capacity)
	}
	names := []string{*alloc}
	if *alloc == "all" {
		names = conf.Pools()
	} else if !slices.Contains(conf.Backends(), *alloc) {
		log.Fatalf("unknown allocator %q (%s or all)", *alloc, strings.Join(conf.Backends(), ", "))
	}

	if *record {
		if err := doRecord(*modelStr, *strategy, *world, *batch, *steps, *capacity, *seed, *outPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *inPath == "" {
		log.Fatal("either -record or -in <trace.json> is required")
	}
	if err := doReplay(*inPath, names, *capacity); err != nil {
		log.Fatal(err)
	}
}

func doRecord(modelStr, strategy string, world, batch, steps int, capacityGB int64, seed uint64, outPath string) error {
	m, err := model.ByName(modelStr)
	if err != nil {
		return err
	}
	strat, err := parseStrategy(strategy)
	if err != nil {
		return err
	}
	clock := sim.NewClock()
	dev := gpu.NewDevice("rec", capacityGB*sim.GiB)
	rec := trace.NewRecorder(caching.New(cuda.NewDriver(dev, clock, sim.DefaultCostModel())), clock)
	tr, err := workload.NewTrainer(workload.Spec{
		Model: m, Strategy: strat, World: world, Batch: batch, Seed: seed,
	}, rec, clock)
	if err != nil {
		return err
	}
	if err := tr.Setup(); err != nil {
		return fmt.Errorf("setup OOM: %w", err)
	}
	for i := 0; i < steps; i++ {
		if err := tr.Step(); err != nil {
			return fmt.Errorf("step %d OOM: %w", i, err)
		}
	}
	tr.Teardown()

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.Trace().WriteJSON(f); err != nil {
		return err
	}
	st := rec.Trace().Stats()
	fmt.Printf("recorded %d allocs (%d frees, avg %s) to %s\n",
		st.Allocs, st.Frees, sim.FormatBytes(st.MeanBytes), outPath)
	return nil
}

func doReplay(inPath string, names []string, capacityGB int64) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Printf("replaying %d allocations (avg %s)\n\n", st.Allocs, sim.FormatBytes(st.MeanBytes))

	fmt.Printf("%-12s %14s %14s %8s\n", "allocator", "peak active", "peak reserved", "util")
	for _, name := range names {
		drv := cuda.NewDriver(gpu.NewDevice(name, capacityGB*sim.GiB), sim.NewClock(), sim.DefaultCostModel())
		a, err := conf.Config{Backend: name}.Build(drv)
		if err != nil {
			return err
		}
		if err := trace.Replay(tr, a); err != nil {
			fmt.Printf("%-12s OOM: %v\n", name, err)
			continue
		}
		s := a.Stats()
		fmt.Printf("%-12s %11.1f GB %11.1f GB %7.1f%%\n", name,
			float64(s.PeakActive)/float64(sim.GiB),
			float64(s.PeakReserved)/float64(sim.GiB), 100*s.Utilization())
	}
	return nil
}

func parseStrategy(s string) (workload.Strategy, error) {
	var out workload.Strategy
	for _, c := range s {
		switch c {
		case 'N', 'n':
		case 'L', 'l':
			out.LoRA = true
		case 'R', 'r':
			out.Recompute = true
		case 'O', 'o':
			out.Offload = true
		default:
			return out, fmt.Errorf("unknown strategy letter %q", c)
		}
	}
	return out, nil
}
