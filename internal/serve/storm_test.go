package serve

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestPreemptionStormStepsEachSequenceExactlyOnce: under a forced preemption
// storm, every sequence that is in the batch when a step starts generates
// exactly one token in that step — unless the step evicts it, in which case
// its storage is gone — and the manager's logical total is the sum of the
// live sequences' fills after every step. The test drives the server's own
// admit/step methods (the same ones Serve's run loop uses) so it can observe
// step boundaries, reading each sequence's fill from the slot table.
func TestPreemptionStormStepsEachSequenceExactlyOnce(t *testing.T) {
	// Three priority tiers colliding in a pool that holds only a fraction
	// of the working set: evictions happen mid-step, repeatedly.
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{
			ID: i, Class: []string{"bulk", "std", "gold"}[i%3], Priority: i % 3,
			PromptLen: 16, OutputLen: 64 + 8*(i%4),
		})
	}
	inner, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 28)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()

	s := replicaWith(t, reqs, inner, ServerConfig{MaxBatch: 8})

	type snap struct {
		a      *track
		handle SeqHandle
		tokens int
	}
	steps := 0
	for s.pendingLen() > 0 || len(s.running) > 0 {
		prefill, err := s.admit()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.running) == 0 {
			if err := s.jumpToNextArrival(); err != nil {
				t.Fatal(err)
			}
			continue
		}

		batch := make([]snap, 0, len(s.running))
		for _, a := range s.running {
			batch = append(batch, snap{a: a, handle: a.handle, tokens: inner.seq(a.handle).tokens})
		}
		if err := s.step(prefill); err != nil {
			t.Fatal(err)
		}
		steps++

		for _, sn := range batch {
			switch a := sn.a; {
			case a.done == s.now:
				if sn.tokens != a.req.TotalTokens()-1 {
					t.Fatalf("step %d: request %d completed with %d of %d tokens stored", steps, a.req.ID, sn.tokens+1, a.req.TotalTokens())
				}
			case a.handle == 0:
				if inner.seq(sn.handle) != nil {
					t.Fatalf("step %d: evicted request %d still holds its slot", steps, a.req.ID)
				}
			default:
				if got := inner.seq(a.handle).tokens - sn.tokens; got != 1 {
					t.Fatalf("step %d: request %d decoded %d tokens, want exactly 1", steps, a.req.ID, got)
				}
			}
		}
		// No decode outside the step's batch: admissions only happen
		// between steps.
		live := 0
		for _, a := range s.running {
			live += inner.seq(a.handle).tokens
		}
		if want := int64(live) * inner.perToken; inner.LogicalBytes() != want {
			t.Fatalf("step %d: %d logical bytes, the live sequences hold %d", steps, inner.LogicalBytes(), want)
		}
		if steps > 100000 {
			t.Fatal("storm run does not terminate")
		}
	}
	s.finish()

	if s.rep.Served != len(reqs) {
		t.Fatalf("served %d of %d", s.rep.Served, len(reqs))
	}
	if s.rep.Preemptions < 10 {
		t.Fatalf("only %d preemptions; the testbed no longer forces a storm", s.rep.Preemptions)
	}
	if used := inner.UsedBytes(); used != 0 {
		t.Fatalf("%d bytes still held after completion", used)
	}

	// The manually-driven loop is the same machinery Serve runs: a fresh
	// end-to-end run over the identical input must produce the identical
	// report.
	inner2, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 28)
	if err != nil {
		t.Fatal(err)
	}
	defer inner2.Close()
	rep, err := Serve(reqs, inner2, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != s.rep.Served || rep.Steps != s.rep.Steps ||
		rep.Preemptions != s.rep.Preemptions || rep.Duration != s.rep.Duration {
		t.Fatalf("driven run diverged from Serve: %+v vs %+v", s.rep, rep)
	}
}

// TestStormVictimOrderInvariant: across an entire storm, no eviction may
// ever claim a victim that outranks the sequence it was evicted for — the
// SLO guarantee preemptFor's victim choice enforces. The gold class (highest priority, admitted under
// pressure) must finish with zero preemptions while the storm rages below
// it.
func TestStormVictimOrderInvariant(t *testing.T) {
	var reqs []Request
	for i := 0; i < 9; i++ {
		pri := i % 3
		reqs = append(reqs, Request{
			ID: i, Class: []string{"bulk", "std", "gold"}[pri], Priority: pri,
			PromptLen: 16, OutputLen: 96,
		})
	}
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != len(reqs) {
		t.Fatalf("served %d of %d", rep.Served, len(reqs))
	}
	if rep.Preemptions == 0 {
		t.Fatal("no preemptions; pool no longer under pressure")
	}
	if g := rep.Class("gold"); g == nil || g.Preemptions != 0 {
		t.Fatalf("gold class preempted with lower-priority victims in the batch: %+v", g)
	}
}
