// Replay: record the allocation request stream of a fine-tuning run, then
// replay the identical stream against every allocator in the library.
//
// The allocator only ever sees a sequence of Alloc/Free calls; recording it
// once and replaying it everywhere is the cleanest apples-to-apples
// comparison (and how the paper's traces in Figures 5 and 14 are read).
// Expect the caching allocator to reserve the most under the irregular LRO
// stream, GMLake the least, with expandable segments in between.
//
// Run with: go run ./examples/replay
package main

import (
	"fmt"
	"log"

	gmlake "repro"
	"repro/internal/conf"
	"repro/internal/trace"
)

func main() {
	spec := gmlake.TrainSpec{
		Model:    gmlake.OPT1_3B,
		Strategy: gmlake.StrategyLRO,
		World:    4,
		Batch:    32,
	}

	// Record the stream once, on the caching allocator.
	rec := func() *trace.Trace {
		sys := gmlake.NewSystem(80 * gmlake.GiB)
		recorder := trace.NewRecorder(gmlake.NewCaching(sys.Driver), sys.Clock)
		tr, err := gmlake.NewTrainer(spec, recorder, sys.Clock)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.Setup(); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := tr.Step(); err != nil {
				log.Fatal(err)
			}
		}
		tr.Teardown()
		return recorder.Trace()
	}()
	st := rec.Stats()
	fmt.Printf("recorded %s/%s: %d allocations, %d frees, avg %s\n\n",
		spec.Model.Name, spec.Strategy.Label(), st.Allocs, st.Frees, mb(st.MeanBytes))

	// Replay it on every allocator.
	fmt.Printf("%-12s %14s %14s %8s\n", "allocator", "peak active", "peak reserved", "util")
	for _, name := range conf.Pools() {
		sys := gmlake.NewSystem(80 * gmlake.GiB)
		alloc, err := conf.Config{Backend: name}.Build(sys.Driver)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Replay(rec, alloc); err != nil {
			fmt.Printf("%-12s OOM: %v\n", name, err)
			continue
		}
		s := alloc.Stats()
		fmt.Printf("%-12s %11.1f GB %11.1f GB %7.1f%%\n",
			name, gbf(s.PeakActive), gbf(s.PeakReserved), 100*s.Utilization())
	}
}

func gbf(n int64) float64 { return float64(n) / float64(gmlake.GiB) }

func mb(n int64) string { return fmt.Sprintf("%.1f MB", float64(n)/float64(gmlake.MiB)) }
