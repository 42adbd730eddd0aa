package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

// The fleet sweep every serving experiment is written against. An
// experiment is data — a list of cells (request stream × cluster
// configuration), a header and a row function — handed to sweepTable, which
// runs the cells on the parallel engine and joins their rows in cell order.

// Serving testbed shape. The device is deliberately much smaller than the
// training rigs: per-SLO-class latency only separates when the KV cache is
// the bottleneck, so the pool is sized to a handful of concurrent sequences
// and the paged slab to the same token budget.
const (
	serveMixCapacity    = int64(3) * sim.GiB / 2
	serveMixRequests    = 120
	serveMixMaxBatch    = 24
	serveMixMaxTokens   = 1024 // contiguous pad-to-max budget
	serveMixBlockTokens = 16
	serveMixSlabBlocks  = 448 // 7168 tokens ≈ 1.3 GB of OPT-1.3B KV
	serveMixChunkTokens = 64
)

// newServeRig is newRig on the serving testbed's smaller device.
func (e *Env) newServeRig(name string) rig { return e.newRigCap(name, serveMixCapacity) }

// clusterMgrFactory builds per-replica chunked KV managers, each over its
// own fresh serving rig — replicas share nothing, which is what makes the
// cluster cells (and the replicas inside one cell) deterministic.
func (e *Env) clusterMgrFactory() func(int) serve.CacheManager {
	return func(int) serve.CacheManager {
		return serve.NewChunkedKV(e.newServeRig(AllocCaching).alloc, model.OPT1_3B, serveMixChunkTokens)
	}
}

// stream is the first n requests of mix at the environment's seed: the same
// seed replays the identical stream in every cell and run.
func (e *Env) stream(mix servegen.Mix, n int) []serve.Request {
	reqs, err := mix.Generate(n, e.Seed)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return reqs
}

// fleetVariant is one compared configuration of a sweep: the row-key columns
// that name it, its cluster configuration, and — when the replicas are not
// the standard serving rig — its cache-manager factory.
type fleetVariant struct {
	key    []string
	cfg    serve.ClusterConfig
	newMgr func(replica int) serve.CacheManager
}

// fleetCell is one ServeCluster run: a variant on one request stream, which
// the cells of a mix share read-only. Every cell builds its own rigs.
type fleetCell struct {
	fleetVariant
	reqs []serve.Request
}

// fleetCells runs every variant on reqs; prefix leads each cell's key.
func fleetCells(prefix []string, reqs []serve.Request, variants []fleetVariant) []fleetCell {
	cells := make([]fleetCell, len(variants))
	for i, v := range variants {
		v.key = append(append([]string{}, prefix...), v.key...)
		cells[i] = fleetCell{fleetVariant: v, reqs: reqs}
	}
	return cells
}

// grid is the mix-major cross product mixes × variants at rate times each
// mix's own arrival rate, n requests per stream, keyed by the mix name.
func (e *Env) grid(mixes []servegen.Mix, rate float64, n int, variants []fleetVariant) []fleetCell {
	var cells []fleetCell
	for _, mix := range mixes {
		reqs := e.stream(mix.WithRate(mix.Rate*rate), n)
		cells = append(cells, fleetCells([]string{mix.Name}, reqs, variants)...)
	}
	return cells
}

// fleetRun is one cell's outcome; on an error rep holds the partial reports.
type fleetRun struct {
	rep serve.ClusterReport
	err error
}

// sweep runs the cells on the parallel engine, joined in cell order. It is
// the one place the fleet experiments reach ServeCluster.
func (e *Env) sweep(cells []fleetCell) []fleetRun {
	return runCells(e, cells, func(c fleetCell) fleetRun {
		if c.newMgr == nil {
			c.newMgr = e.clusterMgrFactory()
		}
		rep, err := serve.ServeCluster(c.reqs, c.newMgr, c.cfg)
		return fleetRun{rep, err}
	})
}

// sweepTable sweeps cells and appends rows(i, report) to t for cell i, each
// row prefixed with the cell's key. fail is the error policy: a failed cell
// renders as the one row fail (the tables whose tight pools may legitimately
// OOM), or, when fail is nil, panics — a fleet that must serve its stream
// did not.
func (e *Env) sweepTable(t *Table, cells []fleetCell, fail []string, rows func(i int, rep serve.ClusterReport) [][]string) {
	for i, run := range e.sweep(cells) {
		key := cells[i].key
		out := [][]string{fail}
		switch {
		case run.err == nil:
			out = rows(i, run.rep)
		case fail == nil:
			panic(fmt.Sprintf("harness: %s %s: %v", t.ID, strings.Join(key, "/"), run.err))
		}
		for _, row := range out {
			t.AddRow(append(append([]string{}, key...), row...)...)
		}
	}
}

// latencyCols renders the TTFT p50/p99 and end-to-end p50/p99 columns.
func latencyCols(ttft, e2e serve.LatencySummary) []string {
	return []string{ms(ttft.P50), ms(ttft.P99), ms(e2e.P50), ms(e2e.P99)}
}

// classRows renders one row per client class: class, SLO, served, the
// latency columns and preemptions.
func classRows(rep serve.Report) [][]string {
	var rows [][]string
	for _, cr := range rep.Classes {
		row := append([]string{cr.Class, cr.SLO, fmt.Sprint(cr.Served)}, latencyCols(cr.TTFT, cr.E2E)...)
		rows = append(rows, append(row, fmt.Sprint(cr.Preemptions)))
	}
	return rows
}

// spread renders per-replica counts as "a/b/c".
func spread(counts []int) string {
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "/")
}

// ms renders a duration as whole milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%d", d.Milliseconds()) }
