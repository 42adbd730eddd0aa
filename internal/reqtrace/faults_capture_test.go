package reqtrace

import (
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

// TestCaptureOnceUnderFaults is the retry-dedupe regression: a request that
// crashes mid-decode and completes on a later attempt must hit the
// OnComplete hook exactly once, so a capture taken under faults is still a
// valid trace — no duplicated records, count equal to Served — and round-
// trips through replay.
func TestCaptureOnceUnderFaults(t *testing.T) {
	mix := servegen.Mixes()[0]
	reqs, err := mix.Generate(40, 11)
	if err != nil {
		t.Fatal(err)
	}
	cap := NewCapture()
	factory := func(int) serve.CacheManager { return chunkedMgr(8 * sim.GiB) }
	rep, err := serve.ServeCluster(reqs, factory, serve.ClusterConfig{
		Replicas: 2,
		Server:   serve.ServerConfig{MaxBatch: 4, OnComplete: cap.Hook()},
		Faults: serve.FaultConfig{Plan: []serve.FaultEvent{
			{At: 300 * time.Millisecond, Kind: serve.FaultCrash, Replica: 0},
			{At: 600 * time.Millisecond, Kind: serve.FaultRestart, Replica: 0},
			{At: 900 * time.Millisecond, Kind: serve.FaultCrash, Replica: 1},
			{At: 1200 * time.Millisecond, Kind: serve.FaultRestart, Replica: 1},
		}},
		Recovery: serve.RecoveryConfig{Retries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatalf("testbed too calm: no retries, dedupe untested (report %+v)", rep.Report)
	}
	if cap.Count() != rep.Served {
		t.Fatalf("captured %d completions, served %d — OnComplete fired more or less than once per request",
			cap.Count(), rep.Served)
	}
	seen := map[int]bool{}
	for _, r := range cap.Trace().Records {
		if seen[r.ID] {
			t.Fatalf("request %d captured twice", r.ID)
		}
		seen[r.ID] = true
	}

	// The faulty-run capture is an ordinary trace: replaying it through a
	// fault-free server serves every record exactly once.
	replayed, err := cap.Trace().Replay(ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := serve.Serve(replayed, chunkedMgr(8*sim.GiB), serve.ServerConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if again.Served != cap.Count() {
		t.Fatalf("replayed %d of %d captured requests", again.Served, cap.Count())
	}
}
