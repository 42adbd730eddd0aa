package harness

import (
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// TestServeFaultChaosSmoke is the CI chaos gate: an aggressive fault rate
// over the full fleet must terminate, seal a coherent report, and never
// panic or deadlock — whatever the crash/restart interleaving does to the
// dispatch queue.
func TestServeFaultChaosSmoke(t *testing.T) {
	reqs, err := servegen.MixedBursty().Generate(80, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv()
	for _, seed := range []uint64{1, 2, 3} {
		rep, err := serve.ServeCluster(reqs, e.clusterMgrFactory(), serve.ClusterConfig{
			Replicas: serveFaultFleet,
			Dispatch: serve.DispatchJSQ,
			Server:   serve.ServerConfig{MaxBatch: serveFaultBatch, Timeout: 60 * time.Second},
			Faults:   serve.FaultConfig{MTTF: time.Second, MTTR: 300 * time.Millisecond, Seed: seed},
			Recovery: serve.RecoveryConfig{Retries: 5, Backoff: 2},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Crashes == 0 {
			t.Fatalf("seed %d: chaos run saw no crashes", seed)
		}
		if rep.Availability <= 0 || rep.Availability >= 1 {
			t.Fatalf("seed %d: availability %v outside (0,1)", seed, rep.Availability)
		}
		if rep.Goodput > rep.Served {
			t.Fatalf("seed %d: goodput %d > served %d", seed, rep.Goodput, rep.Served)
		}
	}
}
