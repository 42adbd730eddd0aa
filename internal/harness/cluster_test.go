package harness

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// jobSpec is the data-parallel job the runJob tests share.
func jobSpec(world, batch int) workload.Spec {
	return workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyLR, World: world, Batch: batch}
}

// TestClusterLockstep: the job advances at the slowest rank's pace. Rank 0
// of a per-rank-shapes job draws the same shape stream as every rank of the
// shared-shapes job, so the barrier can only make the per-rank job slower.
func TestClusterLockstep(t *testing.T) {
	e := NewEnv()
	perRank := e.runJob(jobSpec(4, 16), AllocGMLake, false, 5)
	shared := e.runJob(jobSpec(4, 16), AllocGMLake, true, 5)
	if perRank.steps != 5 || shared.steps != 5 {
		t.Fatalf("steps = %d and %d, want 5", perRank.steps, shared.steps)
	}
	if shared.elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
	if perRank.elapsed <= shared.elapsed {
		t.Fatalf("per-rank job took %v, rank 0 alone takes %v: no barrier on the slowest rank",
			perRank.elapsed, shared.elapsed)
	}
}

func TestSharedShapesAreSymmetric(t *testing.T) {
	s := NewEnv().runJob(jobSpec(4, 16), AllocCaching, true, 6)
	if s.worstReserved != s.leastReserved {
		t.Fatalf("shared shapes produced asymmetric ranks: worst %d least %d",
			s.worstReserved, s.leastReserved)
	}
	if got := s.skew(); got != 1 {
		t.Fatalf("skew = %v, want 1", got)
	}
}

func TestPerRankShapesSkewReserved(t *testing.T) {
	s := NewEnv().runJob(jobSpec(4, 16), AllocCaching, false, 12)
	if s.worstReserved <= s.leastReserved {
		t.Fatal("per-rank shape streams produced identical ranks; seeds not varied")
	}
	if s.skew() <= 1.0 {
		t.Fatalf("skew = %v, want > 1", s.skew())
	}
}

func TestGMLakeShrinksRankSkew(t *testing.T) {
	// GMLake's reserved tracks active, so rank-to-rank variance shrinks
	// versus the caching allocator's packing-history-dependent reserved.
	e := NewEnv()
	base := e.runJob(jobSpec(4, 16), AllocCaching, false, 12)
	gml := e.runJob(jobSpec(4, 16), AllocGMLake, false, 12)
	if base.steps != 12 || gml.steps != 12 {
		t.Fatalf("steps = %d and %d, want 12", base.steps, gml.steps)
	}
	if gml.worstReserved >= base.worstReserved {
		t.Fatalf("worst-rank reserved: gmlake %d not below caching %d",
			gml.worstReserved, base.worstReserved)
	}
}

func TestClusterOOMPropagates(t *testing.T) {
	e := NewEnv()
	e.Capacity = 4 * sim.GiB
	if s := e.runJob(jobSpec(2, 64), AllocCaching, false, 1); s.steps != 0 {
		t.Fatal("expected an OOM somewhere on a 4 GiB device")
	}
}

// TestUnknownAllocator: ranks are built by newRig, which refuses a name
// outside conf's backend table.
func TestUnknownAllocator(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "bogus") {
			t.Fatalf("unknown allocator accepted (recovered %q)", msg)
		}
	}()
	NewEnv().runJob(jobSpec(1, 1), "bogus", true, 1)
}

func TestSummaryFields(t *testing.T) {
	s := NewEnv().runJob(jobSpec(2, 8), AllocGMLake, true, 3)
	if s.steps != 3 {
		t.Fatalf("summary %+v", s)
	}
	if s.worstReserved < s.meanReserved || s.meanReserved < s.leastReserved {
		t.Fatalf("reserved ordering broken: %+v", s)
	}
	if s.minUtil <= 0 || s.minUtil > 1 {
		t.Fatalf("minUtil = %v", s.minUtil)
	}
	if s.elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}
