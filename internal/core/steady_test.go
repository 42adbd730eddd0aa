package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSteadyStateExactRatio pins what the package comment's "Convergence"
// section records: Trainer-LRO under the default configuration (the
// benchmark's train-lro: 60 converge steps, then 63 timed ones) serves steps
// 60–123 almost entirely from S1 and maps no new memory, although the ratio
// cumulative since Setup — the benchmark's core.exact_hit_ratio — stays near
// 0.94.
func TestSteadyStateExactRatio(t *testing.T) {
	a, drv := newAllocator(80*sim.GiB, core.DefaultConfig())
	tr, err := workload.NewTrainer(workload.Spec{
		Model: model.OPT13B, Strategy: workload.StrategyLRO, World: 4, Batch: 24, Seed: 7,
	}, a, drv.Clock())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Setup(); err != nil {
		t.Fatal(err)
	}
	var at60 [4]int64
	for i := 0; i < 123; i++ {
		if i == 60 {
			at60[0], at60[1], at60[2], at60[3] = a.StrategyCounts()
		}
		if err := tr.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	s1, s2, s3, s4 := a.StrategyCounts()
	total := float64(s1 + s2 + s3 + s4)
	t.Logf("cumulative S1..S4 %d/%d/%d/%d, exact ratio %.4f", s1, s2, s3, s4, float64(s1)/total)
	s1, s2, s3, s4 = s1-at60[0], s2-at60[1], s3-at60[2], s4-at60[3]
	ratio := float64(s1) / float64(s1+s2+s3+s4)
	t.Logf("steps 60–123 S1..S4 %d/%d/%d/%d, exact ratio %.4f", s1, s2, s3, s4, ratio)
	if ratio < 0.98 || s4 != 0 {
		t.Fatalf("steady state: exact ratio %.4f (want >= 0.98), %d S4 allocations (want 0)", ratio, s4)
	}
}
