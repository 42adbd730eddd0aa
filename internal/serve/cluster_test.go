package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// chunkedFactory returns a per-replica chunked manager over a private pool.
func chunkedFactory(capacity int64) func(int) CacheManager {
	return func(int) CacheManager {
		return NewChunkedKV(newServeAlloc(capacity), model.OPT1_3B, 64)
	}
}

// mixedStream is a deterministic two-class arrival-spread request stream
// that keeps a small server busy enough to queue.
func mixedStream(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		r := Request{ID: i, PromptLen: 32 + (i*37)%96, OutputLen: 8 + (i*13)%24,
			ArrivalAt: time.Duration(i) * 40 * time.Millisecond}
		if i%3 == 0 {
			r.Class, r.SLO, r.Priority = "batch", "batch", 0
		} else {
			r.Class, r.SLO, r.Priority = "chat", "interactive", 2
		}
		reqs[i] = r
	}
	return reqs
}

// TestClusterSingleReplicaMatchesServe is the differential acceptance
// criterion: a one-replica cluster must reproduce the single-server Serve
// loop field for field, whatever the dispatch policy, on both an
// unconstrained and a preemption-heavy (paged) testbed.
func TestClusterSingleReplicaMatchesServe(t *testing.T) {
	reqs := mixedStream(60)
	srvCfg := ServerConfig{MaxBatch: 6}

	managers := map[string]func() CacheManager{
		"chunked": func() CacheManager {
			return NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
		},
		"paged-tight": func() CacheManager {
			mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 40)
			if err != nil {
				t.Fatal(err)
			}
			return mgr
		},
	}
	for name, mk := range managers {
		want, err := Serve(reqs, mk(), srvCfg)
		if err != nil {
			t.Fatalf("%s: Serve: %v", name, err)
		}
		for _, policy := range DispatchPolicies() {
			got, err := ServeCluster(reqs, func(int) CacheManager { return mk() },
				ClusterConfig{Replicas: 1, Dispatch: policy, Server: srvCfg})
			if err != nil {
				t.Fatalf("%s/%s: ServeCluster: %v", name, policy, err)
			}
			if !reflect.DeepEqual(got.Report, want) {
				t.Errorf("%s/%s: one-replica cluster diverged from Serve:\ncluster %+v\nserve   %+v",
					name, policy, got.Report, want)
			}
			if len(got.Replicas) != 1 || !reflect.DeepEqual(got.Replicas[0], want) {
				t.Errorf("%s/%s: replica report diverged from Serve", name, policy)
			}
			if got.Assigned[0] != len(reqs) {
				t.Errorf("%s/%s: assigned %d of %d", name, policy, got.Assigned[0], len(reqs))
			}
		}
	}
}

// TestClusterDeterministic: the cluster co-simulation is event-ordered, so
// two runs over the same input are deep-equal for every dispatch policy.
func TestClusterDeterministic(t *testing.T) {
	reqs := mixedStream(80)
	for _, policy := range DispatchPolicies() {
		cfg := ClusterConfig{Replicas: 3, Dispatch: policy,
			Server: ServerConfig{MaxBatch: 4, Aging: 2 * time.Second}}
		a, errA := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
		b, errB := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", policy, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical cluster runs diverged", policy)
		}
	}
}

// TestClusterServesEverythingAndScales: every dispatch policy completes the
// full stream, per-replica serves and assignments account for every request,
// and adding replicas shrinks the backlogged makespan.
func TestClusterServesEverythingAndScales(t *testing.T) {
	reqs := mixedStream(90)
	for _, policy := range DispatchPolicies() {
		single, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB),
			ClusterConfig{Replicas: 1, Dispatch: policy, Server: ServerConfig{MaxBatch: 2}})
		if err != nil {
			t.Fatal(err)
		}
		quad, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB),
			ClusterConfig{Replicas: 4, Dispatch: policy, Server: ServerConfig{MaxBatch: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range []ClusterReport{single, quad} {
			if rep.Served != len(reqs) {
				t.Fatalf("%s: served %d of %d", policy, rep.Served, len(reqs))
			}
			sumServed, sumAssigned := 0, 0
			for i, r := range rep.Replicas {
				sumServed += r.Served
				sumAssigned += rep.Assigned[i]
			}
			if sumServed != len(reqs) || sumAssigned != len(reqs) {
				t.Fatalf("%s: replica served %d / assigned %d, want %d",
					policy, sumServed, sumAssigned, len(reqs))
			}
		}
		if quad.Duration >= single.Duration {
			t.Errorf("%s: 4 replicas makespan %v not below 1 replica %v",
				policy, quad.Duration, single.Duration)
		}
		if quad.E2E.P99 >= single.E2E.P99 {
			t.Errorf("%s: 4 replicas e2e p99 %v not below 1 replica %v",
				policy, quad.E2E.P99, single.E2E.P99)
		}
	}
}

// TestClusterRoundRobinSpreadsEvenly: the oblivious policy must assign
// near-equal request counts.
func TestClusterRoundRobinSpreadsEvenly(t *testing.T) {
	reqs := mixedStream(91)
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB),
		ClusterConfig{Replicas: 4, Dispatch: DispatchRoundRobin, Server: ServerConfig{MaxBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range rep.Assigned {
		want := len(reqs) / 4
		if n != want && n != want+1 {
			t.Fatalf("replica %d assigned %d, want %d or %d (got %v)", i, n, want, want+1, rep.Assigned)
		}
	}
}

// TestClusterLeastKVWeighsTokens: with one huge request followed by small
// ones all due at t=0, round-robin alternates blindly while least-KV parks
// the huge request alone and routes the small ones to the other replica.
func TestClusterLeastKVWeighsTokens(t *testing.T) {
	reqs := []Request{
		{ID: 0, PromptLen: 500, OutputLen: 300},
		{ID: 1, PromptLen: 16, OutputLen: 8},
		{ID: 2, PromptLen: 16, OutputLen: 8},
		{ID: 3, PromptLen: 16, OutputLen: 8},
	}
	run := func(policy DispatchPolicy) []int {
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB),
			ClusterConfig{Replicas: 2, Dispatch: policy, Server: ServerConfig{MaxBatch: 4}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Assigned
	}
	if got := run(DispatchRoundRobin); !reflect.DeepEqual(got, []int{2, 2}) {
		t.Fatalf("round-robin assigned %v, want [2 2]", got)
	}
	if got := run(DispatchLeastKV); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("least-kv assigned %v, want [1 3]", got)
	}
}

// TestClusterJSQAvoidsBusyReplica: a long-running job pins replica 0; later
// short arrivals must prefer the emptier replica 1.
func TestClusterJSQAvoidsBusyReplica(t *testing.T) {
	reqs := []Request{{ID: 0, PromptLen: 64, OutputLen: 400}}
	for i := 1; i <= 6; i++ {
		reqs = append(reqs, Request{ID: i, PromptLen: 16, OutputLen: 4,
			ArrivalAt: time.Duration(i) * 200 * time.Millisecond})
	}
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB),
		ClusterConfig{Replicas: 2, Dispatch: DispatchJSQ, Server: ServerConfig{MaxBatch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assigned[1] <= rep.Assigned[0] {
		t.Fatalf("JSQ sent %v; the busy replica should receive fewer requests", rep.Assigned)
	}
}

// overloadStream is a permanent interactive overload (3x the service rate of
// a MaxBatch-2 server) with a handful of batch requests submitted up front —
// the starvation scenario priority aging exists for.
func overloadStream() []Request {
	var reqs []Request
	for i := 0; i < 4; i++ { // saturate both slots immediately
		reqs = append(reqs, Request{ID: len(reqs), Class: "chat", SLO: "interactive",
			Priority: 2, PromptLen: 16, OutputLen: 4})
	}
	for i := 0; i < 280; i++ {
		reqs = append(reqs, Request{ID: len(reqs), Class: "chat", SLO: "interactive",
			Priority: 2, PromptLen: 16, OutputLen: 4,
			ArrivalAt: time.Duration(i) * 20 * time.Millisecond})
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, Request{ID: len(reqs), Class: "batch", SLO: "batch",
			Priority: 0, PromptLen: 16, OutputLen: 4})
	}
	return reqs
}

// TestClusterAgingBoundsStarvation is the aging acceptance criterion: under
// a permanent interactive overload the no-aging cluster starves the batch
// class to the end of the run, while priority aging bounds its p99 E2E well
// below that.
func TestClusterAgingBoundsStarvation(t *testing.T) {
	run := func(aging time.Duration) ClusterReport {
		rep, err := ServeCluster(overloadStream(), chunkedFactory(8*sim.GiB),
			ClusterConfig{Replicas: 2, Dispatch: DispatchJSQ,
				Server: ServerConfig{MaxBatch: 1, Aging: aging}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	starved := run(0)
	aged := run(time.Second)

	sb, ab := starved.Class("batch"), aged.Class("batch")
	if sb == nil || ab == nil {
		t.Fatal("missing batch class report")
	}
	// Without aging the batch requests ride out the entire overload: their
	// p99 E2E is essentially the makespan.
	if float64(sb.E2E.P99) < 0.8*float64(starved.Duration) {
		t.Fatalf("no-aging batch p99 %v vs makespan %v: testbed no longer starves",
			sb.E2E.P99, starved.Duration)
	}
	// With one priority level gained per second of wait, batch outranks
	// fresh interactive traffic after ~2s and completes mid-run.
	if float64(ab.E2E.P99) > 0.5*float64(sb.E2E.P99) {
		t.Fatalf("aging did not bound starvation: batch p99 %v (no aging: %v)",
			ab.E2E.P99, sb.E2E.P99)
	}
	// Aging must not break completeness on either run.
	if starved.Served != aged.Served || starved.Served != len(overloadStream()) {
		t.Fatalf("served %d / %d of %d", starved.Served, aged.Served, len(overloadStream()))
	}
}

// TestServeAgingSingleServer: aging is a ServerConfig knob, so the plain
// Serve loop honours it too — same starvation scenario, one server.
func TestServeAgingSingleServer(t *testing.T) {
	run := func(aging time.Duration) Report {
		mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
		rep, err := Serve(overloadStream(), mgr, ServerConfig{MaxBatch: 2, Aging: aging})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	starved, aged := run(0), run(time.Second)
	if s, a := starved.Class("batch"), aged.Class("batch"); float64(a.E2E.P99) > 0.5*float64(s.E2E.P99) {
		t.Fatalf("single-server aging did not bound starvation: %v vs %v", a.E2E.P99, s.E2E.P99)
	}
}

// TestClusterMergePercentilesFromRawSamples pins the merge rule: the
// cluster-level percentile is the percentile of the union of per-request
// samples, not an average of per-replica percentiles.
func TestClusterMergePercentilesFromRawSamples(t *testing.T) {
	mk := func(latencies ...time.Duration) *server {
		s := newServer(NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64), ServerConfig{MaxBatch: 1})
		for i, l := range latencies {
			rec := &track{
				req:        &Request{ID: i, Class: "c"},
				hasFirst:   true,
				firstToken: l,
				done:       l,
			}
			rec.cls = s.class(rec.class()) // as admit caches it
			s.recordCompletion(rec)
		}
		return s
	}
	// Replica A holds the 9 smallest samples, replica B the largest one:
	// every per-replica p99 average lands far from the true union p99.
	a := mk(1*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond, 4*time.Millisecond,
		5*time.Millisecond, 6*time.Millisecond, 7*time.Millisecond, 8*time.Millisecond, 9*time.Millisecond)
	b := mk(100 * time.Millisecond)
	m := mergeReports([]*server{a, b}, nil)
	if m.E2E.P99 != 100*time.Millisecond {
		t.Fatalf("union p99 = %v, want 100ms", m.E2E.P99)
	}
	if m.E2E.P50 != 5*time.Millisecond {
		t.Fatalf("union p50 = %v, want 5ms", m.E2E.P50)
	}
	c := m.Class("c")
	if c == nil || c.E2E.P99 != 100*time.Millisecond {
		t.Fatalf("class union p99 wrong: %+v", c)
	}
}

// TestClusterConfigValidation: bad replica counts, factories and dispatch
// names are rejected up front.
func TestClusterConfigValidation(t *testing.T) {
	reqs := mixedStream(4)
	if _, err := ServeCluster(reqs, chunkedFactory(sim.GiB), ClusterConfig{Replicas: 0, Server: ServerConfig{MaxBatch: 2}}); err == nil {
		t.Fatal("accepted 0 replicas")
	}
	if _, err := ServeCluster(reqs, nil, ClusterConfig{Replicas: 1, Server: ServerConfig{MaxBatch: 2}}); err == nil {
		t.Fatal("accepted nil factory")
	}
	if _, err := ServeCluster(reqs, chunkedFactory(sim.GiB), ClusterConfig{Replicas: 1, Dispatch: "nope", Server: ServerConfig{MaxBatch: 2}}); err == nil {
		t.Fatal("accepted unknown dispatch policy")
	}
	if _, err := ParseDispatch(""); err != nil {
		t.Fatal("empty dispatch should default to round-robin")
	}
}

// TestClusterSealsReportOnReplicaError: when one replica hits a hard error
// mid-run, the cluster report still carries everything that completed —
// per-replica durations, served counts and class rows.
func TestClusterSealsReportOnReplicaError(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 4},
		{ID: 1, Class: "ok", PromptLen: 16, OutputLen: 4},
		// Arrives later on a drained replica and can never fit: hard error.
		{ID: 2, Class: "huge", PromptLen: 100000, OutputLen: 4, ArrivalAt: 5 * time.Second},
	}
	rep, err := ServeCluster(reqs, chunkedFactory(sim.GiB/4),
		ClusterConfig{Replicas: 2, Dispatch: DispatchRoundRobin, Server: ServerConfig{MaxBatch: 2}})
	if err == nil {
		t.Fatal("expected a replica error for the unservable request")
	}
	if rep.Served != 2 {
		t.Fatalf("sealed report served %d, want 2", rep.Served)
	}
	if rep.Duration <= 0 {
		t.Fatal("sealed report lost the makespan")
	}
	if c := rep.Class("ok"); c == nil || c.Served != 2 || c.E2E.P99 <= 0 {
		t.Fatalf("sealed report lost completed work: %+v", c)
	}
	if c := rep.Class("huge"); c == nil || c.Served != 0 {
		t.Fatalf("unserved class misreported: %+v", c)
	}
}

// TestClusterSingleReplicaMatchesServeUnsortedInput: the equivalence
// contract holds for input that is NOT arrival-sorted, where both sides read
// the stream through arrivalOrder's permutation. Dispatched requests carry
// their input position as the FIFO ticket, so same-priority requests that
// end up waiting together — equal-ArrivalAt ties included — are admitted in
// Serve's order (input order), not cluster-queue order, with requeued
// preemptions tie-breaking above both, all on a pool tight enough that the
// order is observable.
func TestClusterSingleReplicaMatchesServeUnsortedInput(t *testing.T) {
	plain := []Request{
		{ID: 0, Class: "a", PromptLen: 48, OutputLen: 120, ArrivalAt: 5 * time.Second},
		{ID: 1, Class: "b", PromptLen: 48, OutputLen: 120},
		{ID: 2, Class: "c", PromptLen: 48, OutputLen: 120, ArrivalAt: time.Second},
		{ID: 3, Class: "d", PromptLen: 48, OutputLen: 120},
	}
	// Three-way ties at 0 s, 1 s and 5 s, input order scrambled against
	// arrival order, one session whose follow-up turns embed their prefix.
	var tied []Request
	for i, at := range []time.Duration{5, 0, 1, 0, 1, 5, 1, 0, 5} {
		r := Request{ID: i, Class: string(rune('a' + i%3)), Priority: i % 2, PromptLen: 48, OutputLen: 90 + 10*(i%4), ArrivalAt: at * time.Second}
		if i%3 == 0 {
			r.SessionID, r.Turn = "s", (i/3+2)%3 // turns 0, 1, 2 arrive at 0 s, 1 s, 5 s
			r.PromptLen = 40 + 60*r.Turn
		}
		tied = append(tied, r)
	}
	if po, _ := arrivalOrder(plain, 0); po == nil {
		t.Fatal("plain input is arrival-ordered; the permutation path is not exercised")
	}
	if to, _ := arrivalOrder(tied, 0); to == nil {
		t.Fatal("inputs are arrival-ordered; the permutation path is not exercised")
	}
	for _, tc := range []struct {
		name     string
		reqs     []Request
		cfg      ServerConfig
		observed func(Report) bool
	}{
		{"plain", plain, ServerConfig{MaxBatch: 4},
			func(r Report) bool { return r.Preemptions > 0 && r.BlockedSteps > 0 }},
		{"ties", tied, ServerConfig{MaxBatch: 4},
			func(r Report) bool { return r.Preemptions > 0 && r.BlockedSteps > 0 }},
		{"ties-timeout-reuse", tied, ServerConfig{MaxBatch: 4, Timeout: 9 * time.Second, PrefixReuse: true},
			func(r Report) bool {
				return r.BlockedSteps > 0 && r.DeadlineMisses > 0 && r.PrefixHits > 0 && r.Goodput > 0
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() CacheManager {
				mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 20)
				if err != nil {
					t.Fatal(err)
				}
				return mgr
			}
			want, err := Serve(tc.reqs, mk(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.observed(want) {
				t.Fatalf("testbed does not make the queueing order observable: %+v", want)
			}
			got, err := ServeCluster(tc.reqs, func(int) CacheManager { return mk() },
				ClusterConfig{Replicas: 1, Server: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Report, want) {
				t.Fatalf("unsorted input diverged:\ncluster %+v\nserve   %+v", got.Report, want)
			}
		})
	}
}

// TestClusterSealKeepsUndispatchedClasses: a request still waiting in the
// cluster queue when a replica error seals the run must appear in the merged
// class roster unserved — and the sealed one-replica report must equal
// Serve's sealed report for the same failure.
func TestClusterSealKeepsUndispatchedClasses(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 4},
		{ID: 1, Class: "huge", PromptLen: 100000, OutputLen: 4, ArrivalAt: 5 * time.Second},
		{ID: 2, Class: "late", PromptLen: 16, OutputLen: 4, ArrivalAt: 10 * time.Second},
	}
	mk := func() CacheManager { return NewChunkedKV(newServeAlloc(sim.GiB/4), model.OPT1_3B, 64) }
	want, serveErr := Serve(reqs, mk(), ServerConfig{MaxBatch: 2})
	rep, err := ServeCluster(reqs, func(int) CacheManager { return mk() },
		ClusterConfig{Replicas: 1, Server: ServerConfig{MaxBatch: 2}})
	if err == nil || serveErr == nil {
		t.Fatal("expected both runs to fail on the unservable request")
	}
	if c := rep.Class("late"); c == nil || c.Served != 0 {
		t.Fatalf("undispatched class dropped from the sealed roster: %+v", c)
	}
	if !reflect.DeepEqual(rep.Report, want) {
		t.Fatalf("sealed cluster report diverged from sealed Serve report:\ncluster %+v\nserve   %+v",
			rep.Report, want)
	}
}

// TestServeSealKeepsUnarrivedClasses: when a request that fits nowhere ends
// the run, the requests behind it were never promoted out of Serve's input
// cursor — no track, no queue entry — and must still join the sealed roster,
// on arrival-ordered input and through the permutation alike.
func TestServeSealKeepsUnarrivedClasses(t *testing.T) {
	sorted := []Request{
		{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 4},
		{ID: 1, Class: "huge", PromptLen: 100000, OutputLen: 4, ArrivalAt: 5 * time.Second},
		{ID: 2, Class: "late", SLO: "batch", PromptLen: 16, OutputLen: 4, ArrivalAt: 10 * time.Second},
		{ID: 3, Class: "later", PromptLen: 16, OutputLen: 4, ArrivalAt: 20 * time.Second},
	}
	scrambled := []Request{sorted[3], sorted[1], sorted[0], sorted[2]}
	for _, reqs := range [][]Request{sorted, scrambled} {
		rep, err := Serve(reqs, NewChunkedKV(newServeAlloc(sim.GiB/4), model.OPT1_3B, 64), ServerConfig{MaxBatch: 2})
		if err == nil || !strings.Contains(err.Error(), "request 1 does not fit even alone") {
			t.Fatalf("err = %v, want request 1 not fitting", err)
		}
		if rep.Served != 1 || len(rep.Classes) != len(reqs) {
			t.Fatalf("sealed roster lost input requests: served %d, classes %+v", rep.Served, rep.Classes)
		}
		for _, r := range reqs {
			c := rep.Class(r.Class)
			if c == nil || c.SLO != r.SLO || (c.Served != 0) != (r.Class == "ok") {
				t.Fatalf("class %q in the sealed roster: %+v", r.Class, c)
			}
		}
	}
}

// TestArrivalQueueRejectsLatePushes: pushes in (ArrivalAt, ticket) order,
// before and after pops, peek and pop first in, first out; a push that
// lands before the queue's tail panics.
func TestArrivalQueueRejectsLatePushes(t *testing.T) {
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	var q arrivalQueue
	push := func(s int, seq int64) { q.push(&track{req: &Request{ArrivalAt: at(s)}, seq: seq}) }
	var got [][2]int64
	pop := func(n int) {
		for range n {
			peeked, ok := q.peek()
			w := q.popMin()
			if !ok || peeked != w.req.ArrivalAt {
				t.Fatalf("peek %v/%v before popping %+v", peeked, ok, w.req)
			}
			got = append(got, [2]int64{int64(w.req.ArrivalAt / time.Second), w.seq})
		}
	}
	for i, s := range []int{0, 4, 4, 6, 9} {
		push(s, int64(i))
	}
	pop(2)
	push(9, 7)
	pop(q.len())
	push(1, 0) // a drained queue takes any arrival
	pop(1)
	want := [][2]int64{{0, 0}, {4, 1}, {4, 2}, {6, 3}, {9, 4}, {9, 7}, {1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pop order (seconds, ticket)\n got %v\nwant %v", got, want)
	}
	if _, ok := q.peek(); ok {
		t.Fatal("peek on a drained queue")
	}

	push(5, 3)
	for _, late := range [][2]int64{{4, 9}, {5, 2}} {
		func() {
			defer func() {
				if r := recover(); r != "serve: out-of-order arrival" {
					t.Errorf("push %v after (5, 3): recovered %v", late, r)
				}
			}()
			push(int(late[0]), late[1])
		}()
	}
	if q.len() != 1 {
		t.Fatalf("a rejected push was kept: %d pending", q.len())
	}
}
