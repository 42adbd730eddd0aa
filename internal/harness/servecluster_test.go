package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// TestServeClusterSingleReplicaMatchesServemix is the PR's differential
// acceptance criterion at the harness level: on the exact request streams
// and rigs the servemix experiment uses, a one-replica cluster must produce
// a report identical to the single-server Serve loop for every mix × KV
// policy × dispatch policy combination.
func TestServeClusterSingleReplicaMatchesServemix(t *testing.T) {
	e := NewEnv()
	srvCfg := serve.ServerConfig{MaxBatch: serveMixMaxBatch}
	for _, mix := range servegen.Mixes() {
		reqs, err := mix.Generate(serveMixRequests, e.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kvPolicies(serveMixSlabBlocks) {
			want, err := serve.Serve(reqs, p.make(e.newServeRig(p.pool)), srvCfg)
			if err != nil {
				t.Fatalf("%s/%s/%s: Serve: %v", mix.Name, p.policy, p.pool, err)
			}
			for _, dispatch := range serve.DispatchPolicies() {
				got, err := serve.ServeCluster(reqs, func(int) serve.CacheManager {
					return p.make(e.newServeRig(p.pool))
				}, serve.ClusterConfig{Replicas: 1, Dispatch: dispatch, Server: srvCfg})
				if err != nil {
					t.Fatalf("%s/%s/%s/%s: ServeCluster: %v", mix.Name, p.policy, p.pool, dispatch, err)
				}
				if !reflect.DeepEqual(got.Report, want) {
					t.Errorf("%s/%s/%s/%s: one-replica cluster diverged from Serve",
						mix.Name, p.policy, p.pool, dispatch)
				}
			}
		}
	}
}

// TestServeClusterExperimentShape: the scaling grid covers every (mix,
// replica count, dispatch) cell with the mix's full class roster plus an
// ALL row whose assigned spread names every replica.
func TestServeClusterExperimentShape(t *testing.T) {
	tbl := NewEnv().serveClusterScaling()
	type key struct {
		mix, replicas, dispatch string
	}
	classes := map[key]map[string]bool{}
	spread := map[key]string{}
	for _, row := range tbl.Rows {
		k := key{row[0], row[1], row[2]}
		if classes[k] == nil {
			classes[k] = map[string]bool{}
		}
		if row[3] == "ALL" {
			spread[k] = row[len(row)-1]
			continue
		}
		classes[k][row[3]] = true
	}
	for _, mix := range servegen.Mixes() {
		for _, n := range serveClusterReplicas {
			for _, d := range serve.DispatchPolicies() {
				k := key{mix.Name, fmt.Sprint(n), string(d)}
				if len(classes[k]) != len(mix.Classes) {
					t.Errorf("%v: %d class rows, mix has %d classes", k, len(classes[k]), len(mix.Classes))
				}
				if got := len(strings.Split(spread[k], "/")); got != n {
					t.Errorf("%v: assigned spread %q names %d replicas, want %d", k, spread[k], got, n)
				}
			}
		}
	}
}
