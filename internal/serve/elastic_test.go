package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestParseDispatchVariants pins the normalization satellite: conf files
// and CLI flags spell policies in any case with stray whitespace, and all
// of them must resolve; genuinely unknown names must still error.
func TestParseDispatchVariants(t *testing.T) {
	cases := []struct {
		in   string
		want DispatchPolicy
		ok   bool
	}{
		{"", DispatchRoundRobin, true},
		{"round-robin", DispatchRoundRobin, true},
		{"jsq", DispatchJSQ, true},
		{"least-kv", DispatchLeastKV, true},
		{"JSQ", DispatchJSQ, true},
		{"Jsq", DispatchJSQ, true},
		{" least-kv ", DispatchLeastKV, true},
		{"LEAST-KV", DispatchLeastKV, true},
		{"Round-Robin", DispatchRoundRobin, true},
		{"\tround-robin\n", DispatchRoundRobin, true},
		{"   ", DispatchRoundRobin, true},
		{"least kv", "", false},
		{"shortest-queue", "", false},
		{"jsq2", "", false},
	}
	for _, c := range cases {
		got, err := ParseDispatch(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseDispatch(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseDispatch(%q) accepted, want error", c.in)
		}
	}
}

// burstThenTrickle is the autoscaler's canonical workload: a dense burst
// that piles up queued backlog, then a long sparse tail during which the
// extra replicas should drain away.
func burstThenTrickle() []Request {
	var reqs []Request
	for i := 0; i < 60; i++ { // ~30 req/s burst
		reqs = append(reqs, Request{ID: i, Class: "burst", PromptLen: 32 + (i*37)%64,
			OutputLen: 12 + (i*13)%20, ArrivalAt: time.Duration(i) * 33 * time.Millisecond})
	}
	for i := 0; i < 40; i++ { // 2 req/s tail
		reqs = append(reqs, Request{ID: 60 + i, Class: "tail", PromptLen: 32,
			OutputLen: 8, ArrivalAt: 2*time.Second + time.Duration(i)*500*time.Millisecond})
	}
	return reqs
}

// TestElasticSingleReplicaMatchesServe is the PR's differential acceptance
// criterion: a MinReplicas == MaxReplicas == 1 autoscaled cluster with
// stealing off is byte-identical to the plain Serve loop.
func TestElasticSingleReplicaMatchesServe(t *testing.T) {
	reqs := burstThenTrickle()
	srvCfg := ServerConfig{MaxBatch: 4}
	mk := func() CacheManager { return NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64) }
	want, err := Serve(reqs, mk(), srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range DispatchPolicies() {
		got, err := ServeCluster(reqs, func(int) CacheManager { return mk() },
			ClusterConfig{MinReplicas: 1, MaxReplicas: 1, Dispatch: policy, Server: srvCfg})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !reflect.DeepEqual(got.Report, want) {
			t.Errorf("%s: elastic 1..1 cluster diverged from Serve:\ncluster %+v\nserve   %+v",
				policy, got.Report, want)
		}
		if got.PeakReplicas != 1 || got.Spawns != 0 || got.Drains != 0 {
			t.Errorf("%s: 1..1 cluster scaled: peak %d, %d spawns, %d drains",
				policy, got.PeakReplicas, got.Spawns, got.Drains)
		}
	}
}

// TestElasticScalesUpAndDrains drives the burst-then-trickle stream through
// an elastic 1..4 fleet: the burst must spawn replicas, the tail must drain
// them, the whole stream must still be served, runs must be deterministic,
// and the elastic fleet must consume strictly fewer replica-seconds than
// the static MaxReplicas fleet it is measured against.
func TestElasticScalesUpAndDrains(t *testing.T) {
	reqs := burstThenTrickle()
	elasticCfg := ClusterConfig{
		MinReplicas: 1, MaxReplicas: 4,
		Dispatch: DispatchJSQ,
		Server:   ServerConfig{MaxBatch: 2},
	}
	run := func(cfg ClusterConfig) ClusterReport {
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	elastic := run(elasticCfg)
	again := run(elasticCfg)
	if !reflect.DeepEqual(elastic, again) {
		t.Fatal("two identical elastic runs diverged")
	}
	if elastic.Served != len(reqs) {
		t.Fatalf("elastic served %d of %d", elastic.Served, len(reqs))
	}
	if elastic.PeakReplicas <= 1 || elastic.Spawns == 0 {
		t.Fatalf("burst did not scale the fleet up: peak %d, %d spawns", elastic.PeakReplicas, elastic.Spawns)
	}
	if elastic.PeakReplicas > 4 {
		t.Fatalf("fleet exceeded MaxReplicas: peak %d", elastic.PeakReplicas)
	}
	if elastic.Drains == 0 {
		t.Fatalf("trickle tail did not drain any replica: %+v", elastic)
	}

	static := run(ClusterConfig{Replicas: 4, Dispatch: DispatchJSQ, Server: ServerConfig{MaxBatch: 2}})
	if static.ReplicaSeconds != 4*static.Duration {
		t.Fatalf("static fleet replica-seconds %v, want 4 x makespan %v", static.ReplicaSeconds, 4*static.Duration)
	}
	if elastic.ReplicaSeconds >= static.ReplicaSeconds {
		t.Fatalf("elastic fleet consumed %v replica-seconds, static fleet %v — draining saved nothing",
			elastic.ReplicaSeconds, static.ReplicaSeconds)
	}
	// The latency price of elasticity stays bounded (acceptance: within 2x).
	if float64(elastic.E2E.P99) > 2*float64(static.E2E.P99) {
		t.Fatalf("elastic e2e p99 %v more than 2x static %v", elastic.E2E.P99, static.E2E.P99)
	}
}

// TestElasticConfigValidation: the autoscaler bounds and overrides are
// rejected up front when inconsistent.
func TestElasticConfigValidation(t *testing.T) {
	reqs := mixedStream(4)
	mk := chunkedFactory(sim.GiB)
	bad := []ClusterConfig{
		{MinReplicas: 3, MaxReplicas: 2, Server: ServerConfig{MaxBatch: 2}},
		{MinReplicas: 2, Server: ServerConfig{MaxBatch: 2}},                              // min without max
		{Replicas: 1, ScaleUpDepth: 8, Server: ServerConfig{MaxBatch: 2}},                // knob without max
		{Replicas: 5, MinReplicas: 1, MaxReplicas: 4, Server: ServerConfig{MaxBatch: 2}}, // initial out of range
		{Replicas: 2, Overrides: make([]ReplicaOverride, 3), Server: ServerConfig{MaxBatch: 2}},
		{Replicas: 1, Overrides: []ReplicaOverride{{Capacity: -1}}, Server: ServerConfig{MaxBatch: 2}},
		{Replicas: 1, Overrides: []ReplicaOverride{{MaxBatch: -4}}, Server: ServerConfig{MaxBatch: 2}},
		{MinReplicas: -1, MaxReplicas: 2, Server: ServerConfig{MaxBatch: 2}},
	}
	for i, cfg := range bad {
		if _, err := ServeCluster(reqs, mk, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// A negative ScaleDownDepth is legal: it means never scale down.
	rep, err := ServeCluster(reqs, mk, ClusterConfig{
		MinReplicas: 1, MaxReplicas: 2, ScaleDownDepth: -1, Server: ServerConfig{MaxBatch: 2}})
	if err != nil {
		t.Fatalf("negative scale-down depth rejected: %v", err)
	}
	if rep.Drains != 0 {
		t.Fatalf("never-scale-down fleet drained %d replicas", rep.Drains)
	}
}

// TestValidateCostIgnoresFleetCeiling: every replica past Overrides has the
// same configuration, so validating a fleet whose ceiling is 2^20 replicas
// costs what validating a small one does (it used to check, and name in a
// formatted string, every potential replica: over 2^20 allocations), and the
// first replica past the overrides is still the one a bad default names.
func TestValidateCostIgnoresFleetCeiling(t *testing.T) {
	cfg := ClusterConfig{MaxReplicas: 1 << 20, Overrides: []ReplicaOverride{{Capacity: 2, MaxBatch: 3}},
		Server: ServerConfig{MaxBatch: 2}}
	if n := testing.AllocsPerRun(3, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("%v allocations per Validate of a 2^20-replica ceiling", n)
	}
	cfg.Server.MaxBatch = 0
	if err := cfg.Validate(); fmt.Sprint(err) != "serve: replica 1 max batch 0" {
		t.Errorf("bad default batch: %v", err)
	}
}

// stealStream alternates a long-output request (round-robin sends it to
// replica 0) with a short one (replica 1): replica 0 piles up queued
// backlog while replica 1 drains fast and starves — the exact imbalance
// work-stealing re-dispatch exists to fix.
func stealStream() []Request {
	var reqs []Request
	for i := 0; i < 24; i++ {
		r := Request{ID: i, PromptLen: 32, ArrivalAt: time.Duration(i) * 10 * time.Millisecond}
		if i%2 == 0 {
			r.Class, r.OutputLen = "long", 120
		} else {
			r.Class, r.OutputLen = "short", 4
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestStealRedispatchesQueuedBacklog: with stealing on, the starving
// replica takes over queued requests and the makespan shrinks; with it off
// the backlogged replica serves its whole queue alone. Stealing must not
// lose or duplicate any request.
func TestStealRedispatchesQueuedBacklog(t *testing.T) {
	reqs := stealStream()
	run := func(steal bool) ClusterReport {
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
			Replicas: 2, Dispatch: DispatchRoundRobin, Steal: steal,
			Server: ServerConfig{MaxBatch: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(false)
	on := run(true)
	again := run(true)
	if !reflect.DeepEqual(on, again) {
		t.Fatal("two identical stealing runs diverged")
	}
	if off.Served != len(reqs) || on.Served != len(reqs) {
		t.Fatalf("served %d / %d of %d", off.Served, on.Served, len(reqs))
	}
	if off.Stolen[0] != 0 || off.Stolen[1] != 0 {
		t.Fatalf("stealing off but Stolen = %v", off.Stolen)
	}
	steals := on.Stolen[0] + on.Stolen[1]
	if steals == 0 {
		t.Fatal("no request was stolen despite the starving replica")
	}
	if on.Duration >= off.Duration {
		t.Fatalf("stealing did not shrink the makespan: %v vs %v", on.Duration, off.Duration)
	}
	// Every request is served exactly once: per-replica served counts sum
	// to the stream, even though Assigned no longer matches Served.
	sum := 0
	for _, r := range on.Replicas {
		sum += r.Served
	}
	if sum != len(reqs) {
		t.Fatalf("per-replica served sums to %d, want %d", sum, len(reqs))
	}
	if on.Assigned[0]+on.Assigned[1] != len(reqs) {
		t.Fatalf("assigned %v does not cover the stream", on.Assigned)
	}
}

// TestStealNeverMovesRunningWork: white-box — drive a stealing scheduler
// and assert stolen requests were queued (never decoding) at the instant
// they moved, by checking the victim's preemption count is unaffected by
// steals (a migrated running sequence would have to be evicted first).
func TestStealOnlyFromQueue(t *testing.T) {
	reqs := stealStream()
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas: 2, Dispatch: DispatchRoundRobin, Steal: true,
		Server: ServerConfig{MaxBatch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A roomy pool never preempts; if stealing moved running sequences it
	// would show up as evictions.
	if rep.Preemptions != 0 {
		t.Fatalf("stealing caused %d preemptions on a roomy pool", rep.Preemptions)
	}
}

// TestHeterogeneousCapacityDispatch: a 3x-capacity replica (3x batch, 3x
// dispatch weight) must absorb roughly 3x the requests under both
// load-aware policies, while oblivious round-robin still splits evenly.
func TestHeterogeneousCapacityDispatch(t *testing.T) {
	var reqs []Request
	for i := 0; i < 80; i++ {
		reqs = append(reqs, Request{ID: i, PromptLen: 32, OutputLen: 16})
	}
	run := func(policy DispatchPolicy) ClusterReport {
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
			Replicas: 2,
			Dispatch: policy,
			Server:   ServerConfig{MaxBatch: 4},
			Overrides: []ReplicaOverride{
				{Capacity: 3, MaxBatch: 12},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rr := run(DispatchRoundRobin); rr.Assigned[0] != 40 || rr.Assigned[1] != 40 {
		t.Fatalf("round-robin is capacity-blind by design, got %v", rr.Assigned)
	}
	for _, policy := range []DispatchPolicy{DispatchJSQ, DispatchLeastKV} {
		rep := run(policy)
		if rep.Served != len(reqs) {
			t.Fatalf("%s: served %d of %d", policy, rep.Served, len(reqs))
		}
		// 3:1 capacity => ~60/20 split; allow slack for tie-breaking.
		if rep.Assigned[0] < 54 || rep.Assigned[1] > 26 {
			t.Errorf("%s: capacity-aware split %v, want ~[60 20]", policy, rep.Assigned)
		}
		// The big replica finishes the load it absorbed no later than the
		// small one would a third of it: both makespans stay comparable.
		if rep.Replicas[0].Served <= rep.Replicas[1].Served {
			t.Errorf("%s: big replica served %d <= small %d",
				policy, rep.Replicas[0].Served, rep.Replicas[1].Served)
		}
	}
}

// TestReplicaOverrideApplies: a batch override applies to exactly one
// replica of the fleet, and an unset capacity weight means 1.
func TestReplicaOverrideApplies(t *testing.T) {
	c, err := newClusterSched(nil, chunkedFactory(sim.GiB), ClusterConfig{
		Replicas: 2,
		Server:   ServerConfig{MaxBatch: 2},
		Overrides: []ReplicaOverride{
			{MaxBatch: 6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got0, got1 := c.fleet[0].srv.cfg.MaxBatch, c.fleet[1].srv.cfg.MaxBatch; got0 != 6 || got1 != 2 {
		t.Fatalf("batch overrides misapplied: %v / %v", got0, got1)
	}
	if c.fleet[0].capacity != 1 || c.fleet[1].capacity != 1 {
		t.Fatalf("zero capacity should default to 1: %v / %v", c.fleet[0].capacity, c.fleet[1].capacity)
	}
}

// TestClusterReportSlicesAreCopies pins the aliasing satellite: mutating
// the returned report's slices must not corrupt the scheduler's state (the
// old code returned the internal assigned slice itself).
func TestClusterReportSlicesAreCopies(t *testing.T) {
	c, err := newClusterSched(mixedStream(20), chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas: 2, Dispatch: DispatchRoundRobin, Server: ServerConfig{MaxBatch: 2}})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	wantAssigned := c.fleet[0].assigned
	wantServed := c.fleet[0].srv.rep.Served
	rep.Assigned[0] = -1
	rep.Stolen[0] = -1
	rep.Replicas[0].Served = -1
	if c.fleet[0].assigned != wantAssigned {
		t.Fatal("report.Assigned aliases the scheduler's assigned slice")
	}
	if c.fleet[0].stolen != 0 {
		t.Fatal("report.Stolen aliases the scheduler's stolen counters")
	}
	if c.fleet[0].srv.rep.Served != wantServed {
		t.Fatal("report.Replicas aliases the replica reports")
	}
}

// TestLeastKVLoadDrainsToZero pins the least-KV accounting invariant: once
// the cluster fully drains, every replica's outstanding-KV estimate
// (dispatched tokens minus completed tokens) must return to exactly zero —
// including when requests were recompute-preempted and requeued mid-run,
// and when stealing re-dispatched queued requests between replicas.
func TestLeastKVLoadDrainsToZero(t *testing.T) {
	// A tight paged pool under overlapping long requests forces recompute
	// preemptions; least-kv dispatch makes the counters load-bearing.
	mkTight := func(int) CacheManager {
		mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 40)
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	var reqs []Request
	for i := 0; i < 30; i++ {
		reqs = append(reqs, Request{ID: i, PromptLen: 48 + (i*31)%64, OutputLen: 60 + (i*17)%80,
			ArrivalAt: time.Duration(i) * 25 * time.Millisecond, Priority: i % 3})
	}
	for _, steal := range []bool{false, true} {
		c, err := newClusterSched(reqs, mkTight, ClusterConfig{
			Replicas: 2, Dispatch: DispatchLeastKV, Steal: steal,
			Server: ServerConfig{MaxBatch: 6}})
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := c.run()
		if err != nil {
			t.Fatalf("steal=%v: %v", steal, err)
		}
		if rep.Preemptions == 0 {
			t.Fatalf("steal=%v: testbed too roomy — no preemptions, invariant untested", steal)
		}
		if rep.Served != len(reqs) {
			t.Fatalf("steal=%v: served %d of %d", steal, rep.Served, len(reqs))
		}
		for i, r := range c.fleet {
			if load := r.dispatchedTokens - r.srv.doneTokens; load != 0 {
				t.Errorf("steal=%v: replica %d drained with outstanding-KV estimate %d, want 0",
					steal, i, load)
			}
		}
	}
}

// TestElasticWithStealAndOverridesDeterministic: the full feature stack —
// autoscaling, stealing and a heterogeneous override — replays
// byte-identically, serving the entire stream.
func TestElasticWithStealAndOverridesDeterministic(t *testing.T) {
	reqs := burstThenTrickle()
	cfg := ClusterConfig{
		MinReplicas: 1, MaxReplicas: 3,
		Dispatch: DispatchLeastKV,
		Steal:    true,
		Server:   ServerConfig{MaxBatch: 2, Aging: 2 * time.Second},
		Overrides: []ReplicaOverride{
			{Capacity: 2, MaxBatch: 4},
		},
	}
	a, errA := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
	b, errB := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
	if errA != nil || errB != nil {
		t.Fatalf("%v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("elastic+steal+override runs diverged")
	}
	if a.Served != len(reqs) {
		t.Fatalf("served %d of %d", a.Served, len(reqs))
	}
}

// TestStealRespectsThiefCapacity: on a heterogeneous fleet a request that
// cannot fit the idle thief's smaller pool must stay queued on its bigger
// victim instead of being stolen into a fatal admission failure — the same
// stream must complete with stealing on exactly as it does with it off.
func TestStealRespectsThiefCapacity(t *testing.T) {
	// Replica 0: roomy pool; replica 1: pool too small for the big request.
	pools := []int64{8 * sim.GiB, sim.GiB / 8}
	mk := func(i int) CacheManager {
		return NewChunkedKV(newServeAlloc(pools[i]), model.OPT1_3B, 64)
	}
	reqs := []Request{
		// Round-robin at t=0: evens land on replica 0, odds on replica 1.
		// Replica 0 decodes the long job with the oversized request queued
		// behind it (MaxBatch 1); replica 1 finishes its tiny jobs fast
		// and goes idle — the classic steal trigger, except the only
		// stealable request can never fit replica 1's pool.
		{ID: 0, PromptLen: 64, OutputLen: 200},
		{ID: 1, PromptLen: 16, OutputLen: 2},
		// The oversized request: fits replica 0, never replica 1.
		{ID: 2, PromptLen: 4000, OutputLen: 200},
		{ID: 3, PromptLen: 16, OutputLen: 2},
	}
	for _, steal := range []bool{false, true} {
		rep, err := ServeCluster(reqs, mk, ClusterConfig{
			Replicas: 2, Dispatch: DispatchRoundRobin, Steal: steal,
			Server: ServerConfig{MaxBatch: 1},
		})
		if err != nil {
			t.Fatalf("steal=%v: oversized request aborted the run: %v", steal, err)
		}
		if rep.Served != len(reqs) {
			t.Fatalf("steal=%v: served %d of %d", steal, rep.Served, len(reqs))
		}
	}
}
