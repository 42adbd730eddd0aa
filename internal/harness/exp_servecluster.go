package harness

import (
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// Serving-cluster grid. Replica counts are swept per mix and dispatch
// policy; every replica is a full serving testbed (its own device, pool
// allocator and KV manager) behind the cluster admission queue.
var (
	serveClusterReplicas = []int{1, 2, 4}
	serveClusterAgings   = []time.Duration{0, 250 * time.Millisecond, time.Second}
)

// Aging-table testbed: the mixed-bursty rate is multiplied until the
// interactive classes saturate admission of a deliberately small per-replica
// batch — the regime where the batch class starves without aging — and the
// stream is long enough that every swept aging window is much shorter than
// the arrival span (a window wider than the whole run cannot reorder it).
const (
	serveClusterOverloadRate = 8
	serveClusterAgingBatch   = 4
	serveClusterAgingReqs    = 2 * serveMixRequests
)

// ServeClusterExperiment shards the multi-tenant mixes over a multi-replica
// serving cluster and reports the per-SLO-class view per (mix, replica
// count, dispatch policy) cell, plus an aging table showing how priority
// aging bounds batch-class starvation under sustained interactive overload.
func (e *Env) ServeClusterExperiment() []*Table {
	return []*Table{e.serveClusterScaling(), e.serveClusterAging()}
}

// serveClusterScaling is the mixes × replica counts × dispatch policies
// grid. The cluster-level percentiles are computed from the union of the
// replicas' raw per-request samples, so rows are comparable across replica
// counts.
func (e *Env) serveClusterScaling() *Table {
	t := &Table{
		ID: "servecluster",
		Title: fmt.Sprintf("Multi-replica serving cluster, OPT-1.3B, %d requests, %s GB per replica",
			serveMixRequests, gb(serveMixCapacity)),
		Header: []string{"mix", "replicas", "dispatch", "class", "SLO", "served",
			"TTFT p50", "TTFT p99", "e2e p50", "e2e p99", "preempt", "assigned"},
	}
	var variants []fleetVariant
	for _, n := range serveClusterReplicas {
		for _, d := range serve.DispatchPolicies() {
			variants = append(variants, fleetVariant{
				key: []string{fmt.Sprint(n), string(d)},
				cfg: serve.ClusterConfig{Replicas: n, Dispatch: d, Server: serve.ServerConfig{MaxBatch: serveMixMaxBatch}},
			})
		}
	}
	cells := e.grid(servegen.Mixes(), 1, serveMixRequests, variants)
	fail := []string{"ALL", "-", "OOM", "-", "-", "-", "-", "-", "-"}
	e.sweepTable(t, cells, fail, func(_ int, rep serve.ClusterReport) [][]string {
		rows := classRows(rep.Report)
		for i := range rows {
			rows[i] = append(rows[i], "-")
		}
		all := append([]string{"ALL", "-", fmt.Sprint(rep.Served)}, latencyCols(rep.TTFT, rep.E2E)...)
		return append(rows, append(all, fmt.Sprint(rep.Preemptions), spread(rep.Assigned)))
	})
	t.AddNote("one request stream per mix, sharded by the dispatch policy; cluster percentiles merge the")
	t.AddNote("replicas' raw samples (never averaged percentiles). ALL/assigned shows the per-replica")
	t.AddNote("request spread; jsq and least-kv adapt it to load where round-robin cannot.")
	return t
}

// serveClusterAging overloads a 2-replica cluster with the mixed-bursty mix
// at several priority-aging rates: without aging the batch class waits out
// the whole run, with aging its effective priority grows with queue wait
// until it outranks fresh interactive arrivals.
func (e *Env) serveClusterAging() *Table {
	t := &Table{
		ID: "servecluster-aging",
		Title: fmt.Sprintf("Priority aging under %dx interactive overload, mixed-bursty, 2 replicas, jsq",
			serveClusterOverloadRate),
		Header: []string{"aging", "class", "SLO", "served",
			"TTFT p50", "TTFT p99", "e2e p50", "e2e p99", "preempt"},
	}
	var variants []fleetVariant
	for _, aging := range serveClusterAgings {
		label := "off"
		if aging > 0 {
			label = aging.String()
		}
		variants = append(variants, fleetVariant{key: []string{label}, cfg: serve.ClusterConfig{
			Replicas: 2,
			Dispatch: serve.DispatchJSQ,
			Server:   serve.ServerConfig{MaxBatch: serveClusterAgingBatch, Aging: aging},
		}})
	}
	mix := servegen.MixedBursty()
	reqs := e.stream(mix.WithRate(mix.Rate*serveClusterOverloadRate), serveClusterAgingReqs)
	fail := []string{"ALL", "-", "OOM", "-", "-", "-", "-", "-"}
	e.sweepTable(t, fleetCells(nil, reqs, variants), fail, func(_ int, rep serve.ClusterReport) [][]string {
		return classRows(rep.Report)
	})
	t.AddNote("aging is the per-priority-level wait: with it on, a starved batch request's effective")
	t.AddNote("priority rises until fresh interactive arrivals no longer cut ahead, pulling the batch")
	t.AddNote("queueing tail down at the interactive classes' expense — the fairness dial is the rate.")
	return t
}
