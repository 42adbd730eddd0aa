package harness

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
)

// Elastic-serving testbed. The mixes are overloaded well past one replica's
// service rate so the queue-depth autoscaler has a backlog to react to, and
// the per-replica batch is small enough that queued work is visible backlog
// rather than instant admission.
const (
	serveElasticRate     = 4 // x the mix's aggregate rate
	serveElasticMaxFleet = 4
	serveElasticBatch    = 6
)

// serveElasticFleets are the compared fleet configurations, the static one
// first: the static MaxReplicas fleet every elastic run is measured
// against, the autoscaled fleet, and the autoscaled fleet with
// work-stealing re-dispatch.
func serveElasticFleets() []fleetVariant {
	server := serve.ServerConfig{MaxBatch: serveElasticBatch}
	return []fleetVariant{
		{key: []string{"static-4"}, cfg: serve.ClusterConfig{
			Replicas: serveElasticMaxFleet, Dispatch: serve.DispatchJSQ, Server: server}},
		{key: []string{"elastic 1..4"}, cfg: serve.ClusterConfig{
			MinReplicas: 1, MaxReplicas: serveElasticMaxFleet,
			Dispatch: serve.DispatchJSQ, Server: server}},
		{key: []string{"elastic+steal"}, cfg: serve.ClusterConfig{
			MinReplicas: 1, MaxReplicas: serveElasticMaxFleet, Steal: true,
			Dispatch: serve.DispatchJSQ, Server: server}},
	}
}

// ServeElasticExperiment compares static, autoscaled and work-stealing
// fleets on overloaded multi-tenant mixes, and shows capacity-aware
// dispatch over a heterogeneous two-replica fleet.
func (e *Env) ServeElasticExperiment() []*Table {
	return []*Table{e.serveElasticScaling(), e.serveElasticHetero()}
}

// serveElasticScaling is the mixes × fleet-configurations grid. The
// replica-seconds column is the fleet cost (virtual time integral of
// provisioned replicas); "saved" is the fraction of the static MaxReplicas
// fleet's replica-seconds the elastic fleet did not consume.
func (e *Env) serveElasticScaling() *Table {
	t := &Table{
		ID: "serveelastic",
		Title: fmt.Sprintf("Elastic serving fleet at %dx overload, OPT-1.3B, %d requests, batch %d per replica",
			serveElasticRate, serveMixRequests, serveElasticBatch),
		Header: []string{"mix", "fleet", "served", "e2e p50", "e2e p99",
			"peak", "spawns", "drains", "replica-secs", "saved", "stolen"},
	}
	cells := e.grid(servegen.Mixes(), serveElasticRate, serveMixRequests, serveElasticFleets())
	// Rows join in cell order and a mix's static fleet is its first cell, so
	// each elastic row reads its savings off the static row before it.
	var static time.Duration
	e.sweepTable(t, cells, nil, func(i int, rep serve.ClusterReport) [][]string {
		saved := "-"
		if cells[i].cfg.MaxReplicas == 0 {
			static = rep.ReplicaSeconds
		} else if static > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(1-float64(rep.ReplicaSeconds)/float64(static)))
		}
		stolen := 0
		for _, n := range rep.Stolen {
			stolen += n
		}
		return [][]string{{fmt.Sprint(rep.Served), ms(rep.E2E.P50), ms(rep.E2E.P99),
			fmt.Sprint(rep.PeakReplicas), fmt.Sprint(rep.Spawns), fmt.Sprint(rep.Drains),
			fmt.Sprintf("%.1f", rep.ReplicaSeconds.Seconds()), saved, fmt.Sprint(stolen)}}
	})
	t.AddNote("replica-secs integrates provisioned replicas over virtual time (static fleet = 4 x makespan);")
	t.AddNote("saved is relative to the static-4 fleet of the same mix. The autoscaler spawns on queued")
	t.AddNote("backlog and drains a replica only once it has emptied, so runs stay deterministic.")
	return t
}

// serveElasticHetero serves one overloaded mix on a heterogeneous
// two-replica fleet — replica 0 has twice the capacity (pool, batch and
// dispatch weight) of replica 1 — under every dispatch policy. Capacity-
// aware policies route ~2x the requests to the big replica; round-robin
// splits blindly and overloads the small one.
func (e *Env) serveElasticHetero() *Table {
	t := &Table{
		ID: "serveelastic-hetero",
		Title: fmt.Sprintf("Heterogeneous 2-replica fleet (2x + 1x capacity), mixed-bursty at %dx, %d requests",
			serveElasticRate, serveMixRequests),
		Header: []string{"dispatch", "served", "e2e p50", "e2e p99", "assigned", "big/small"},
	}
	weights := []int64{2, 1}
	var variants []fleetVariant
	for _, d := range serve.DispatchPolicies() {
		variants = append(variants, fleetVariant{
			key: []string{string(d)},
			cfg: serve.ClusterConfig{
				Replicas:  2,
				Dispatch:  d,
				Server:    serve.ServerConfig{MaxBatch: serveElasticBatch},
				Overrides: []serve.ReplicaOverride{{Capacity: 2, MaxBatch: 2 * serveElasticBatch}},
			},
			newMgr: func(i int) serve.CacheManager {
				r := e.newRigCap(AllocCaching, weights[i]*serveMixCapacity)
				return serve.NewChunkedKV(r.alloc, model.OPT1_3B, serveMixChunkTokens)
			},
		})
	}
	mix := servegen.MixedBursty()
	reqs := e.stream(mix.WithRate(mix.Rate*serveElasticRate), serveMixRequests)
	e.sweepTable(t, fleetCells(nil, reqs, variants), nil, func(_ int, rep serve.ClusterReport) [][]string {
		ratio := "-"
		if rep.Assigned[1] > 0 {
			ratio = fmt.Sprintf("%.1f", float64(rep.Assigned[0])/float64(rep.Assigned[1]))
		}
		return [][]string{{fmt.Sprint(rep.Served), ms(rep.E2E.P50), ms(rep.E2E.P99), spread(rep.Assigned), ratio}}
	})
	t.AddNote("replica 0 has a 2x pool, a 2x batch limit and dispatch weight 2: jsq and least-kv divide")
	t.AddNote("observed load by the weight, so the big replica absorbs ~2x the demand; round-robin is")
	t.AddNote("capacity-blind and pays for it in the tail.")
	return t
}
