package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// TestServeSessionAffinityWins pins the experiment's headline claim: on the
// session mix, affinity dispatch must beat plain jsq on prefix hits and
// reused tokens (the TTFT delta follows from those but is too small to pin
// robustly against mix retuning).
func TestServeSessionAffinityWins(t *testing.T) {
	reqs, err := servegen.ChatSessions().Generate(serveMixRequests, NewEnv().Seed)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv()
	run := func(dispatch, base serve.DispatchPolicy) serve.ClusterReport {
		rep, err := serve.ServeCluster(reqs, e.clusterMgrFactory(), serve.ClusterConfig{
			Replicas:     serveSessionReplicas,
			Dispatch:     dispatch,
			AffinityBase: base,
			Server:       serve.ServerConfig{MaxBatch: serveMixMaxBatch, PrefixReuse: true},
		})
		if err != nil {
			t.Fatalf("%s: %v", dispatch, err)
		}
		return rep
	}
	aff := run(serve.DispatchSessionAffinity, serve.DispatchJSQ)
	jsq := run(serve.DispatchJSQ, "")
	if aff.AffinityRouted == 0 {
		t.Fatal("affinity dispatch never routed a request by residency")
	}
	if aff.PrefixHits <= jsq.PrefixHits || aff.ReusedTokens <= jsq.ReusedTokens {
		t.Fatalf("affinity did not beat jsq: hits %d vs %d, reused %d vs %d",
			aff.PrefixHits, jsq.PrefixHits, aff.ReusedTokens, jsq.ReusedTokens)
	}
	if jsq.AffinityRouted != 0 {
		t.Fatalf("jsq reported %d affinity routes", jsq.AffinityRouted)
	}
}

// TestServeSessionChaosSmoke extends the CI chaos gate with sessions: an
// aggressive fault rate under session-affinity dispatch with prefix reuse
// must terminate and seal a coherent report (crashes wipe residency, retried
// turns re-dispatch through the base policy), and the whole run must be
// reproducible — same seeds, same report.
func TestServeSessionChaosSmoke(t *testing.T) {
	reqs, err := servegen.ChatSessions().Generate(80, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv()
	run := func(seed uint64) serve.ClusterReport {
		rep, err := serve.ServeCluster(reqs, e.clusterMgrFactory(), serve.ClusterConfig{
			Replicas:     serveFaultFleet,
			Dispatch:     serve.DispatchSessionAffinity,
			AffinityBase: serve.DispatchJSQ,
			Server:       serve.ServerConfig{MaxBatch: serveFaultBatch, Timeout: 60 * time.Second, PrefixReuse: true},
			Faults:       serve.FaultConfig{MTTF: time.Second, MTTR: 300 * time.Millisecond, Seed: seed},
			Recovery:     serve.RecoveryConfig{Retries: 5, Backoff: 2},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return rep
	}
	for _, seed := range []uint64{1, 2, 3} {
		rep := run(seed)
		if rep.Crashes == 0 {
			t.Fatalf("seed %d: chaos run saw no crashes", seed)
		}
		if rep.Goodput > rep.Served {
			t.Fatalf("seed %d: goodput %d > served %d", seed, rep.Goodput, rep.Served)
		}
		if rep.ReusedTokens < 0 || rep.PrefixHits < 0 {
			t.Fatalf("seed %d: negative reuse accounting: %+v", seed, rep.Report)
		}
		if again := run(seed); !reflect.DeepEqual(rep, again) {
			t.Fatalf("seed %d: session chaos run not reproducible", seed)
		}
	}
}
