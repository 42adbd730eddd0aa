package serve

import (
	"testing"
	"time"

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
	s := replicaWith(t, []Request{{ID: 1, Class: "chat", PromptLen: 32, OutputLen: 1 << 20}}, stubKV{}, ServerConfig{MaxBatch: 2})
	cycle := func() {
		if _, err := s.admit(); err != nil || len(s.running) != 1 {
			t.Fatalf("admit: %v, batch of %d", err, len(s.running))
		}
		if err := s.step(0); err != nil {
			t.Fatal(err)
		}
		s.evict(s.running[0])
	}
	cycle() // a first cycle, so that only warm ones are counted
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocations per re-admission, step and eviction", n)
	}
	if s.rep.Preemptions != 102 || s.ready.Len() != 1 {
		t.Errorf("%d preemptions, %d waiting; want 102 and 1", s.rep.Preemptions, s.ready.Len())
	}
}

// TestServedRequestAllocatesNothing: a warm server takes a fresh arrival,
// admits it and steps it to completion without a heap allocation — the
// arrival's record, issued by the scheduler's queue, is the one the previous
// request returned when it completed.
func TestServedRequestAllocatesNothing(t *testing.T) {
	reqs := make([]Request, 110)
	for i := range reqs {
		// One arrival per step: each step is due exactly the next request.
		reqs[i] = Request{ID: i, Class: "chat", PromptLen: 32, OutputLen: 1, ArrivalAt: time.Duration(i) * stepTime}
	}
	s, arrive := replicaOf(t, reqs, stubKV{}, ServerConfig{MaxBatch: 2})
	s.tally = newTally(0) // sketch-only: a retained sample would grow a run
	serveOne := func() {
		arrive()
		if _, err := s.admit(); err != nil || len(s.running) != 1 {
			t.Fatalf("admit: %v, batch of %d", err, len(s.running))
		}
		if err := s.step(0); err != nil || len(s.running) != 0 {
			t.Fatalf("step: %v, batch of %d", err, len(s.running))
		}
	}
	serveOne() // the run's one record is made here
	if n := testing.AllocsPerRun(100, serveOne); n != 0 {
		t.Errorf("%v allocations per arrival, admission and completion", n)
	}
	if s.rep.Served != 102 {
		t.Errorf("%d served, want 102", s.rep.Served)
	}
}

// TestRecycledRecordStartsClean: every way a request leaves the run returns
// its record, the next request released takes it, and nothing of the
// departed request carries over. The free list may hand back any departed
// record, so every per-request field is dirtied before the reissue.
func TestRecycledRecordStartsClean(t *testing.T) {
	// An exit serves reqs[0] out of the run. It returns that request's
	// record and the release of reqs[1], which arrives an hour later.
	type exit func(t *testing.T, reqs []Request) (gone *track, next func() *track)
	// onServer runs steps decode steps (admission only, for 0) on a server
	// and checks that the request left the way left says.
	onServer := func(cfg ServerConfig, now time.Duration, steps int, left func(Report) bool) exit {
		return func(t *testing.T, reqs []Request) (*track, func() *track) {
			s, arrive := replicaOf(t, reqs, stubKV{}, cfg)
			gone := arrive()
			s.now = now
			if _, err := s.admit(); err != nil {
				t.Fatal(err)
			}
			for range steps {
				if err := s.step(0); err != nil {
					t.Fatal(err)
				}
			}
			if s.pendingLen() != 0 || len(s.running) != 0 || !left(s.rep) {
				t.Fatalf("%d pending, %d running, report %+v", s.pendingLen(), len(s.running), s.rep)
			}
			return gone, arrive
		}
	}
	crashLoss := func(t *testing.T, reqs []Request) (*track, func() *track) {
		c, err := newClusterSched(reqs, func(int) CacheManager { return stubKV{} }, ClusterConfig{
			Replicas: 1, Server: ServerConfig{MaxBatch: 1},
			Faults: FaultConfig{Plan: []FaultEvent{{At: time.Second, Kind: FaultCrash}}}})
		if err != nil {
			t.Fatal(err)
		}
		gone := c.queue.pop()
		c.place(0, gone, 0)
		if err := c.fleet[0].srv.runOnce(); err != nil || gone.handle == 0 {
			t.Fatalf("runOnce: %v, handle %d", err, gone.handle)
		}
		c.recovery.crash(c, c.fleet[0])
		if c.recovery.lost != 1 {
			t.Fatalf("%d lost, want 1", c.recovery.lost)
		}
		return gone, c.queue.pop
	}
	cases := []struct {
		name string
		out  int // OutputLen of the departing request
		exit exit
	}{
		{"completion", 1, onServer(ServerConfig{MaxBatch: 1}, 0, 1,
			func(r Report) bool { return r.Served == 1 })},
		{"deadline abort", 5, onServer(ServerConfig{MaxBatch: 1, Timeout: 45 * time.Millisecond}, 0, 2,
			func(r Report) bool { return r.DeadlineMisses == 1 && r.Served == 0 })},
		{"expiry", 5, onServer(ServerConfig{MaxBatch: 1, Timeout: time.Millisecond}, time.Second, 0,
			func(r Report) bool { return r.DeadlineMisses == 1 })},
		{"shed", 100, onServer(ServerConfig{MaxBatch: 1, Timeout: time.Second, Shed: true}, 0, 0,
			func(r Report) bool { return r.Shed == 1 })},
		{"crash loss", 100, crashLoss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := []Request{
				{ID: 1, Class: "a", PromptLen: 8, OutputLen: tc.out},
				{ID: 2, Class: "b", PromptLen: 8, OutputLen: 1, ArrivalAt: time.Hour},
			}
			gone, next := tc.exit(t, reqs)
			gone.done, gone.firstToken, gone.retries, gone.seq = 1, 1, 1, 99
			gone.deferred, gone.hasFirst, gone.reserve = true, true, true
			gone.cls = &classAgg{}
			got := next()
			if got != gone {
				t.Fatal("the next request did not take the returned record")
			}
			want := track{req: &reqs[1], seq: 1}
			want.node.Value = got
			if *got != want {
				t.Errorf("reissued record\n got %+v\nwant %+v", *got, want)
			}
		})
	}
}

// TestRecycleRefusesLiveRecord: a record some tree or KV sequence can still
// reach does not go back to the free list — returning one panics, since a
// later arrival would reissue a record the run still uses.
func TestRecycleRefusesLiveRecord(t *testing.T) {
	s := replicaWith(t, []Request{{ID: 1, PromptLen: 8, OutputLen: 4}, {ID: 2, PromptLen: 8, OutputLen: 4}}, stubKV{},
		ServerConfig{MaxBatch: 1})
	if _, err := s.admit(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*track{s.running[0], s.ready.Min().Value} { // holding KV, queued
		func() {
			defer func() {
				if got := recover(); got != "serve: recycled record still queued or holding KV" {
					t.Errorf("recycling request %d: panic %v", rec.req.ID, got)
				}
			}()
			s.recycle(rec)
		}()
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
// request has one record while it is in the run and done marks it; a
// scheduler bug that ran a finished record again is reported at the
// completion, in one line.
func TestSecondCompletionPanics(t *testing.T) {
	completions := 0
	s := replicaWith(t, []Request{{ID: 7, PromptLen: 8, OutputLen: 1}}, stubKV{},
		ServerConfig{MaxBatch: 1, OnComplete: func(Request) { completions++ }})
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
