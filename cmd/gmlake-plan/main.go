// Command gmlake-plan sizes a training job before anyone burns GPU hours:
// given a model and a device, it searches 3D-parallel topologies with the
// memory planner, picks an activation-checkpointing schedule for the best
// candidate, and estimates what offloading the optimizer would buy.
//
// Usage:
//
//	gmlake-plan -model GPT-NeoX-20B
//	gmlake-plan -model OPT-13B -capacity-gb 40 -micro 2 -max-world 64
//
// All numbers come from the same planners the library's experiments use;
// nothing is trained. A bad flag value is one `gmlake-plan: …` line on
// stderr and exit 2; a job no candidate topology fits exits 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/parallel"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/stream"
)

func main() {
	var (
		modelName = flag.String("model", "GPT-NeoX-20B", "model name (see -models)")
		capacity  = flag.Int64("capacity-gb", 80, "per-GPU memory in GiB")
		micro     = flag.Int("micro", 4, "per-microbatch samples")
		maxWorld  = flag.Int("max-world", 32, "largest GPU count to consider")
		headroom  = flag.Float64("headroom", 0.1, "capacity fraction kept free for transients")
		listModel = flag.Bool("models", false, "list known models and exit")
	)
	flag.Parse()
	// Usage errors are caught before any output: a micro-batch, world or
	// device of nothing plans nothing, and a headroom outside [0, 1)
	// reserves a negative or the whole device.
	for _, f := range []struct {
		name string
		v    int64
	}{{"capacity-gb", *capacity}, {"micro", int64(*micro)}, {"max-world", int64(*maxWorld)}} {
		if f.v < 1 {
			fail(2, fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	if *capacity > math.MaxInt64/sim.GiB {
		fail(2, fmt.Errorf("-capacity-gb %d does not fit in bytes", *capacity))
	}
	if !(*headroom >= 0 && *headroom < 1) {
		fail(2, fmt.Errorf("-headroom must be in [0, 1), got %v", *headroom))
	}

	if *listModel {
		for _, m := range model.All {
			fmt.Printf("%-14s %6.1fB params, %d layers\n", m.Name, m.ParamsBillions(), m.Layers)
		}
		return
	}
	cfg, err := model.ByName(*modelName)
	if err != nil {
		fail(2, err)
	}
	budget := *capacity * sim.GiB

	fmt.Printf("planning %s (%.1fB params) on %d GiB devices, headroom %.0f%%\n\n",
		cfg.Name, cfg.ParamsBillions(), *capacity, *headroom*100)

	plans := searchTopologies(cfg, *micro, *maxWorld)
	if len(plans) == 0 {
		fail(1, fmt.Errorf("no valid topology of %s up to %d GPUs", cfg.Name, *maxWorld))
	}
	fmt.Printf("%-18s %6s %8s %14s %6s\n", "topology", "world", "zero", "max rank", "fits")
	var best *parallel.MemoryPlan
	for i := range plans {
		p := &plans[i]
		fits := p.Fits(budget, *headroom)
		fmt.Printf("%-18s %6d %8s %11.1f GB %6v\n",
			p.Topology.String(), p.Topology.World(), zeroFor(p.Topology),
			float64(p.MaxRankBytes())/float64(sim.GiB), fits)
		if fits && best == nil {
			best = p
		}
	}
	if best == nil {
		fmt.Println("\nno candidate fits — raise -max-world or lower -micro")
		os.Exit(1)
	}
	fmt.Printf("\nsmallest fitting job: %s (%d GPUs)\n\n", best.Topology.String(), best.Topology.World())

	// Checkpointing advice for the fitting plan: spend at most a quarter
	// of the remaining headroom on activations.
	m := recompute.ForModel(cfg, *micro, 0, 0)
	full := m.Evaluate(recompute.NoRecompute())
	actBudget := (budget - best.MaxRankBytes() + worstActs(best)) / 2
	if plan, err := m.PlanForBudget(actBudget); err == nil {
		r := m.Evaluate(plan)
		fmt.Printf("checkpointing: %d segments keep activations at %.1f GB (store-all %.1f GB), +%v/step recompute\n",
			r.Segments, gbf(r.PeakBytes), gbf(full.PeakBytes), r.ExtraTime.Round(time.Millisecond))
	} else {
		fmt.Printf("checkpointing: even per-layer checkpoints exceed %.1f GB (%v)\n", gbf(actBudget), err)
	}

	// Offload advice: what moving the optimizer to the host costs and
	// frees, per rank of the chosen plan.
	shard := model.ShardBytes(cfg.Params()*model.DTypeBytes, best.Topology.DP) /
		int64(best.Topology.TP*best.Topology.PP)
	clock := sim.NewClock()
	engine := offload.NewEngine(offload.DefaultPCIe(), stream.NewScheduler(clock))
	opt, err := offload.NewOptimizer(offload.OptimizerConfig{Pinned: true}, engine, nil, shard)
	if err != nil {
		fail(1, err)
	}
	step, err := opt.Step(shard)
	if err != nil {
		fail(1, err)
	}
	// Offloading removes the fp32 optimizer state (12 bytes/param of the
	// rank's shard) from the GPU.
	freed := 6 * shard
	fmt.Printf("offload: frees %.1f GB of GPU optimizer state per rank, needs %.1f GB host RAM,\n",
		gbf(freed), gbf(opt.HostStateBytes()))
	fmt.Printf("         adds ~%v per optimizer step over PCIe (pipelined)\n", step.Round(time.Millisecond))
}

// fail reports err as the command's one stderr line and exits with code:
// 2 for a usage error, 1 when the plan itself fails.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "gmlake-plan:", err)
	os.Exit(code)
}

// searchTopologies enumerates dp·tp·pp factorizations up to maxWorld and
// returns the best (smallest max-rank) plan per world size, ascending.
func searchTopologies(cfg model.Config, micro, maxWorld int) []parallel.MemoryPlan {
	bestByWorld := map[int]parallel.MemoryPlan{}
	for world := 1; world <= maxWorld; world *= 2 {
		// world is a power of two, so its divisors are the powers of two.
		for tp := 1; tp <= world; tp *= 2 {
			rest := world / tp
			for pp := 1; pp <= rest; pp *= 2 {
				topo := parallel.Topology{DP: rest / pp, TP: tp, PP: pp}
				if topo.Validate(cfg) != nil {
					continue
				}
				plan, err := parallel.PlanMemory(cfg, topo, zeroFor(topo), parallel.OneFOneB, micro, 0)
				if err != nil {
					continue
				}
				cur, ok := bestByWorld[world]
				if !ok || plan.MaxRankBytes() < cur.MaxRankBytes() {
					bestByWorld[world] = plan
				}
			}
		}
	}
	out := make([]parallel.MemoryPlan, 0, len(bestByWorld))
	for _, p := range bestByWorld {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topology.World() < out[j].Topology.World() })
	return out
}

// zeroFor picks the ZeRO stage: shard everything across the data-parallel
// group when there is one.
func zeroFor(t parallel.Topology) parallel.ZeROStage {
	if t.DP > 1 {
		return parallel.Stage3
	}
	return parallel.Stage0
}

// worstActs returns the activation bytes of the plan's worst stage.
func worstActs(p *parallel.MemoryPlan) int64 {
	var acts int64
	var worst int64
	for _, d := range p.Stages {
		if d.Total() > worst {
			worst = d.Total()
			acts = d.Activations
		}
	}
	return acts
}

func gbf(n int64) float64 { return float64(n) / float64(sim.GiB) }
