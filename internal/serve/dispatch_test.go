package serve

import (
	"testing"

	"repro/internal/sim"
)

// pickFleet is an 8-replica fleet with one draining and one down replica —
// the shape every pick loop has to skip over.
func pickFleet(t *testing.T) []*clusterReplica {
	t.Helper()
	c, err := newClusterSched(nil, chunkedFactory(sim.GiB), ClusterConfig{
		Replicas: 8, Server: ServerConfig{MaxBatch: 2, PrefixReuse: true}})
	if err != nil {
		t.Fatal(err)
	}
	c.fleet[2].state = replicaDraining
	c.fleet[5].state = replicaDown
	return c.fleet
}

// TestPickAllocatesNothing: a dispatch decision costs no heap allocation
// under any policy — round-robin used to build a slice of the active
// replicas per request.
func TestPickAllocatesNothing(t *testing.T) {
	fleet := pickFleet(t)
	fleet[6].srv.resident["home#0"] = 128
	for _, policy := range DispatchPolicies() {
		for _, req := range []Request{
			{ID: 1, PromptLen: 32, OutputLen: 8},
			{ID: 2, PromptLen: 32, OutputLen: 8, SessionID: "home#0", Turn: 1},
			{ID: 3, PromptLen: 32, OutputLen: 8, SessionID: "nowhere#0", Turn: 1},
		} {
			d := dispatcher{policy: policy, base: DispatchRoundRobin}
			if n := testing.AllocsPerRun(100, func() { d.pick(fleet, req) }); n != 0 {
				t.Errorf("%s, session %q: %v allocations per pick", policy, req.SessionID, n)
			}
		}
	}
	d := dispatcher{policy: DispatchSessionAffinity, base: DispatchJSQ}
	if got := d.pick(fleet, Request{SessionID: "home#0"}); got != 6 || d.affinityRouted != 1 {
		t.Errorf("resident session routed to %d (%d affinity-routed), want its home 6", got, d.affinityRouted)
	}
}

// stubKV is a CacheManager with endless room and no books, so what
// AllocsPerRun counts around it is the server's own bookkeeping.
type stubKV struct{}

func (stubKV) Name() string                     { return "stub" }
func (stubKV) Admit(Request) (SeqHandle, error) { return 1, nil }
func (stubKV) Append(SeqHandle) error           { return nil }
func (stubKV) Reserve(SeqHandle) (int, error)   { return 1 << 30, nil }
func (stubKV) Decode()                          {}
func (stubKV) Release(SeqHandle)                {}
func (stubKV) UsedBytes() int64                 { return 0 }
func (stubKV) LogicalBytes() int64              { return 0 }

// TestReadmissionAllocatesNothing: a request's one record carries it through
// every admission — re-admitting a preempted request, stepping it and
// evicting it again costs no heap allocation (each admission used to
// allocate the sequence's batch entry).
func TestReadmissionAllocatesNothing(t *testing.T) {
	s, err := newServer([]Request{{ID: 1, Class: "chat", PromptLen: 32, OutputLen: 1 << 20}}, stubKV{}, ServerConfig{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := s.admit(); err != nil || len(s.running) != 1 {
			t.Fatalf("admit: %v, batch of %d", err, len(s.running))
		}
		if err := s.step(0); err != nil {
			t.Fatal(err)
		}
		s.evict(s.running[0])
	}
	cycle() // the first admission promotes the request out of the input: its record is made here
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocations per re-admission, step and eviction", n)
	}
	if s.rep.Preemptions != 102 || s.ready.Len() != 1 {
		t.Errorf("%d preemptions, %d waiting; want 102 and 1", s.rep.Preemptions, s.ready.Len())
	}
}

// TestRoundRobinCursorMatchesActiveList: the allocation-free cursor visits
// exactly the replicas the old form did — decision k goes to act[k%len(act)]
// over the active replicas in index order — while replicas leave and rejoin
// the fleet between decisions.
func TestRoundRobinCursorMatchesActiveList(t *testing.T) {
	fleet := pickFleet(t)
	steps := []struct {
		replica int
		state   replicaState
		picks   int
	}{
		{0, replicaActive, 9},   // no change: wraps over the six active ones
		{2, replicaActive, 5},   // the draining one rejoins
		{0, replicaDown, 4},     // the head of the list leaves
		{7, replicaStopped, 7},  // the tail leaves
		{5, replicaActive, 3},   // the crashed one restarts
		{0, replicaActive, 11},  // everyone but 7 is back
		{3, replicaDraining, 6}, // a hole in the middle
	}
	d := dispatcher{policy: DispatchRoundRobin}
	rr := 0
	for _, st := range steps {
		fleet[st.replica].state = st.state
		var act []int
		for i, r := range fleet {
			if r.state == replicaActive {
				act = append(act, i)
			}
		}
		for k := 0; k < st.picks; k++ {
			want := act[rr%len(act)]
			rr++
			if got := d.pick(fleet, Request{}); got != want {
				t.Fatalf("decision %d with active %v: picked %d, want %d", rr-1, act, got, want)
			}
		}
	}
}

// TestSecondCompletionPanics: OnComplete fires once per request because a
// request has one record and done marks it; a scheduler bug that ran a
// finished record again is reported at the completion, in one line.
func TestSecondCompletionPanics(t *testing.T) {
	completions := 0
	s, err := newServer([]Request{{ID: 7, PromptLen: 8, OutputLen: 1}}, stubKV{},
		ServerConfig{MaxBatch: 1, OnComplete: func(Request) { completions++ }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.admit(); err != nil {
		t.Fatal(err)
	}
	rec := s.running[0]
	if err := s.step(0); err != nil || rec.done == 0 {
		t.Fatalf("step: %v, done at %v", err, rec.done)
	}
	s.push(rec, 0)
	if _, err := s.admit(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if got := recover(); got != "serve: request 7 completed twice" || completions != 1 {
			t.Errorf("second completion: panic %v after %d OnComplete calls", got, completions)
		}
	}()
	_ = s.step(0)
}
