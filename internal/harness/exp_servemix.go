package harness

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
)

// kvPolicy is one compared KV-cache policy: a manager constructor over a
// fresh rig plus the pool allocator it runs on.
type kvPolicy struct {
	policy, pool string
	make         func(r rig) serve.CacheManager
}

// kvPolicies are the compared KV-cache managers for OPT-1.3B, paged over a
// pre-reserved slab of slabBlocks blocks; the chunked policy runs once per
// pool allocator to expose the pool-level fragmentation GMLake removes.
func kvPolicies(slabBlocks int) []kvPolicy {
	cfg := model.OPT1_3B
	chunked := func(r rig) serve.CacheManager { return serve.NewChunkedKV(r.alloc, cfg, serveMixChunkTokens) }
	return []kvPolicy{
		{"contiguous", AllocCaching, func(r rig) serve.CacheManager {
			return serve.NewContiguousKV(r.alloc, cfg, serveMixMaxTokens)
		}},
		{"paged (vLLM)", AllocCaching, func(r rig) serve.CacheManager {
			mgr, err := serve.NewPagedKV(r.alloc, cfg, serveMixBlockTokens, slabBlocks)
			if err != nil {
				panic("harness: " + err.Error())
			}
			return mgr
		}},
		{"chunked", AllocCaching, chunked},
		{"chunked", AllocGMLake, chunked},
	}
}

// ServeMixExperiment serves three heterogeneous multi-tenant mixes
// (ServeGen-style client decomposition: chat-heavy, batch-heavy, mixed
// bursty) on every KV-cache policy and reports the per-SLO-class view:
// TTFT and end-to-end latency percentiles, preemptions and KV-cache
// occupancy per client class. Each cell is a one-replica fleet — exactly
// the single-server Serve loop — over the policy's own manager and pool.
func (e *Env) ServeMixExperiment() *Table {
	t := &Table{
		ID: "servemix",
		Title: fmt.Sprintf("Per-SLO-class serving under multi-tenant mixes, OPT-1.3B, %d requests, %s GB device",
			serveMixRequests, gb(serveMixCapacity)),
		Header: []string{"mix", "policy", "pool", "class", "SLO",
			"served", "TTFT p50", "TTFT p95", "TTFT p99", "e2e p50", "e2e p99", "preempt", "KV share"},
	}
	var variants []fleetVariant
	for _, p := range kvPolicies(serveMixSlabBlocks) {
		variants = append(variants, fleetVariant{
			key:    []string{p.policy, p.pool},
			cfg:    serve.ClusterConfig{Replicas: 1, Server: serve.ServerConfig{MaxBatch: serveMixMaxBatch}},
			newMgr: func(int) serve.CacheManager { return p.make(e.newServeRig(p.pool)) },
		})
	}
	cells := e.grid(servegen.Mixes(), 1, serveMixRequests, variants)
	fail := []string{"ALL", "-", "OOM", "-", "-", "-", "-", "-", "-", "-"}
	e.sweepTable(t, cells, fail, func(_ int, rep serve.ClusterReport) (rows [][]string) {
		for _, cr := range rep.Classes {
			rows = append(rows, []string{cr.Class, cr.SLO, fmt.Sprint(cr.Served),
				ms(cr.TTFT.P50), ms(cr.TTFT.P95), ms(cr.TTFT.P99), ms(cr.E2E.P50), ms(cr.E2E.P99),
				fmt.Sprint(cr.Preemptions), pct(cr.KVShare)})
		}
		return rows
	})
	t.AddNote("same seed => identical request streams for every policy; TTFT/e2e are virtual-clock ms.")
	t.AddNote("batch classes absorb the preemptions and the queueing tail; interactive classes keep")
	t.AddNote("low TTFT because admission and eviction are SLO-priority-aware.")
	return t
}
