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
