package harness

import (
	"fmt"

	"repro/internal/fragstat"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ServingExperiment makes the paper's Table 3 scope argument executable: on
// one inference request stream it compares vLLM-style in-tensor paging with
// pool-level allocation, and shows that GMLake removes the pool
// fragmentation the chunked (ordinary-allocator) policy leaves behind —
// a workload class vLLM's technique does not address.
func (e *Env) ServingExperiment() *Table {
	t := &Table{
		ID:     "serving",
		Title:  "KV-cache policies under continuous batching, OPT-1.3B, 120 requests",
		Header: []string{"policy", "pool", "served", "mean batch", "mgr waste", "pool reserved (GB)", "pool util", "preempt"},
	}
	reqs, err := serve.GenRequests(120, serve.DefaultGenConfig(), e.Seed)
	if err != nil {
		panic("harness: " + err.Error())
	}
	srvCfg := serve.ServerConfig{MaxBatch: 12}

	// Cells: one serving run per policy × pool on the full-size training
	// device (the paged slab sized to match); each cell owns its rig and
	// manager and renders its row.
	for _, row := range runCells(e, kvPolicies(4096), func(p kvPolicy) []string {
		r := e.newRig(p.pool)
		rep, err := serve.Serve(reqs, p.make(r), srvCfg)
		if err != nil {
			return []string{p.policy, p.pool, "OOM", "-", "-", "-", "-", "-"}
		}
		st := r.alloc.Stats()
		return []string{p.policy, p.pool,
			fmt.Sprint(rep.Served), fmt.Sprintf("%.1f", rep.MeanBatch),
			pct(rep.MeanWaste), gb(st.PeakReserved), pct(st.Utilization()), fmt.Sprint(rep.Preemptions)}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("paged removes in-tensor padding waste but needed a pre-reserved slab; chunked pushes the")
	t.AddNote("problem down to the pool, where variable prompt sizes fragment the caching allocator and")
	t.AddNote("GMLake's stitching absorbs them — the two techniques work at different scopes (Table 3).")
	return t
}

// FragIndexExperiment captures classic fragmentation indices (the
// Gorman–Whitcroft unusable-free-space index the paper cites as FMFI) on
// both allocators mid-training: it shows *why* the caching allocator's
// reserved memory is unusable — free space shattered below the request
// sizes — while GMLake's free blocks stay stitchable.
func (e *Env) FragIndexExperiment() *Table {
	t := &Table{
		ID:    "fragindex",
		Title: "Free-space fragmentation indices mid-training, OPT-13B LRO w4 b16",
		Header: []string{"allocator", "free blocks", "free (GB)", "largest (GB)",
			"ext frag", "unusable@512MB", "unusable@1GB"},
	}
	spec := workload.Spec{
		Model:    model.OPT13B,
		Strategy: workload.StrategyLRO,
		World:    4,
		Batch:    16,
	}
	spec.Seed = e.Seed
	allocNames := []string{AllocCaching, AllocGMLake}
	snaps := runCells(e, allocNames, func(allocName string) fragstat.Snapshot {
		r := e.newRig(allocName)
		tr, err := workload.NewTrainer(spec, r.alloc, r.clock)
		if err != nil {
			panic("harness: " + err.Error())
		}
		if err := tr.Setup(); err != nil {
			panic("harness: fragindex setup OOM")
		}
		for i := 0; i < e.TotalSteps; i++ {
			if err := tr.Step(); err != nil {
				panic("harness: fragindex step OOM")
			}
		}
		// Capture mid-life, before teardown: this is the state a new
		// large allocation would face.
		snap, ok := fragstat.Capture(r.alloc)
		if !ok {
			panic("harness: allocator does not expose free blocks")
		}
		tr.Teardown()
		return snap
	})
	for i, snap := range snaps {
		t.AddRow(allocNames[i],
			fmt.Sprint(len(snap.Free)), gb(snap.FreeBytes()), gb(snap.LargestFree()),
			pct(snap.ExternalFragmentation()),
			pct(snap.UnusableIndex(512*sim.MiB)), pct(snap.UnusableIndex(sim.GiB)))
	}
	t.AddNote("for GMLake the indices overstate waste: inactive pBlocks counted 'unusable' at a size are")
	t.AddNote("still stitchable into that size, which is precisely the mechanism the paper introduces.")
	return t
}
