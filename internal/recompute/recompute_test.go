package recompute

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// uniformModel builds n identical layers.
func uniformModel(n int, act, ckpt int64, fwd time.Duration) Model {
	layers := make([]LayerCost, n)
	for i := range layers {
		layers[i] = LayerCost{Activation: act, Checkpoint: ckpt, Forward: fwd}
	}
	return Model{Layers: layers}
}

func TestNoRecomputeStoresEverything(t *testing.T) {
	m := uniformModel(10, 100, 10, time.Millisecond)
	r := m.Evaluate(NoRecompute())
	if r.PeakBytes != 1000 || r.StoredBytes != 1000 {
		t.Fatalf("peak=%d stored=%d, want 1000/1000", r.PeakBytes, r.StoredBytes)
	}
	if r.ExtraTime != 0 || r.Segments != 0 {
		t.Fatalf("store-all plan has extra=%v segments=%d", r.ExtraTime, r.Segments)
	}
}

func TestUniformSegmentation(t *testing.T) {
	p, err := Uniform(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 6, 9}
	if len(p.Starts) != len(want) {
		t.Fatalf("starts = %v", p.Starts)
	}
	for i, s := range want {
		if p.Starts[i] != s {
			t.Fatalf("starts = %v, want %v", p.Starts, want)
		}
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := Uniform(0, 1); err == nil {
		t.Fatal("accepted zero layers")
	}
	if _, err := Uniform(5, 0); err == nil {
		t.Fatal("accepted zero segment length")
	}
}

func TestEvaluateUniformPlan(t *testing.T) {
	// 12 layers of 100 B activations, 10 B checkpoints, 1 ms forward,
	// segments of 4: peak = 3 checkpoints + one segment (400) = 430.
	m := uniformModel(12, 100, 10, time.Millisecond)
	p, _ := Uniform(12, 4)
	r := m.Evaluate(p)
	if r.PeakBytes != 430 {
		t.Fatalf("peak = %d, want 430", r.PeakBytes)
	}
	if r.StoredBytes != 30 {
		t.Fatalf("stored = %d, want 30", r.StoredBytes)
	}
	if r.ExtraTime != 12*time.Millisecond {
		t.Fatalf("extra = %v, want 12ms (full forward again)", r.ExtraTime)
	}
	if r.Segments != 3 {
		t.Fatalf("segments = %d", r.Segments)
	}
}

func TestSqrtNRule(t *testing.T) {
	p, err := SqrtN(48)
	if err != nil {
		t.Fatal(err)
	}
	segLen := int(math.Ceil(math.Sqrt(48))) // 7
	if p.Starts[1]-p.Starts[0] != segLen {
		t.Fatalf("segment length %d, want %d", p.Starts[1], segLen)
	}
	m := uniformModel(48, 1000, 100, time.Millisecond)
	full := m.Evaluate(NoRecompute()).PeakBytes
	ck := m.Evaluate(p).PeakBytes
	if ck*3 > full {
		t.Fatalf("sqrtN peak %d not well below store-all %d", ck, full)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Recompute: true},                         // no segments
		{Recompute: true, Starts: []int{1}},       // first not 0
		{Recompute: true, Starts: []int{0, 0}},    // not ascending
		{Recompute: true, Starts: []int{0, 99}},   // beyond layers
		{Recompute: true, Starts: []int{0, 3, 2}}, // descending tail
	}
	for i, p := range cases {
		if err := p.Validate(10); err == nil {
			t.Fatalf("case %d: invalid plan accepted: %+v", i, p)
		}
	}
	good := Plan{Recompute: true, Starts: []int{0, 3, 7}}
	if err := good.Validate(10); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestEvaluatePanicsOnInvalidPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate accepted an invalid plan")
		}
	}()
	uniformModel(4, 1, 1, 0).Evaluate(Plan{Recompute: true, Starts: []int{2}})
}

func TestPlanForBudgetPrefersNoRecompute(t *testing.T) {
	m := uniformModel(8, 100, 10, time.Millisecond)
	p, err := m.PlanForBudget(800)
	if err != nil {
		t.Fatal(err)
	}
	if p.Recompute {
		t.Fatal("recomputation chosen although everything fits")
	}
}

func TestPlanForBudgetMeetsBudget(t *testing.T) {
	m := uniformModel(16, 100, 10, time.Millisecond)
	for _, budget := range []int64{1500, 800, 500, 300, 270} {
		p, err := m.PlanForBudget(budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		r := m.Evaluate(p)
		if r.PeakBytes > budget {
			t.Fatalf("budget %d: plan peaks at %d", budget, r.PeakBytes)
		}
	}
}

func TestPlanForBudgetMinimizesSegments(t *testing.T) {
	m := uniformModel(16, 100, 10, time.Millisecond)
	// Budget 560: 4 segments of 4 layers peak at 4*10+400=440; 3 segments
	// of 6 would peak at 3*10+600=630 > 560. Optimal is 4 segments... but
	// a cap of 500 packs 5+5+5+1 giving 4 checkpoints + 500 = 540 ≤ 560
	// with 4 segments too. Either way more than 4 segments is wasteful.
	p, err := m.PlanForBudget(560)
	if err != nil {
		t.Fatal(err)
	}
	if p.Segments() > 4 {
		t.Fatalf("plan uses %d segments, 4 suffice", p.Segments())
	}
}

func TestPlanForBudgetInfeasible(t *testing.T) {
	m := uniformModel(4, 100, 50, 0)
	// Even per-layer: 4 checkpoints (200) + 100 = 300 minimum.
	if _, err := m.PlanForBudget(250); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestPlanForBudgetEmptyModel(t *testing.T) {
	if _, err := (Model{}).PlanForBudget(100); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestHeterogeneousLayersPack(t *testing.T) {
	// A huge middle layer forces its own segment.
	m := Model{Layers: []LayerCost{
		{Activation: 10, Checkpoint: 1},
		{Activation: 10, Checkpoint: 1},
		{Activation: 500, Checkpoint: 1},
		{Activation: 10, Checkpoint: 1},
	}}
	p, err := m.PlanForBudget(520)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Evaluate(p)
	if r.PeakBytes > 520 {
		t.Fatalf("peak %d over budget", r.PeakBytes)
	}
}

// Property: any valid checkpointing plan never exceeds the store-all peak,
// and PlanForBudget's result always meets its budget when it succeeds.
func TestBudgetProperty(t *testing.T) {
	prop := func(nLayers uint8, act uint16, budgetFrac uint8) bool {
		n := int(nLayers)%30 + 1
		a := int64(act)%10000 + 1
		m := uniformModel(n, a, a/10+1, time.Millisecond)
		full := m.Evaluate(NoRecompute()).PeakBytes
		budget := full * (int64(budgetFrac)%100 + 1) / 100

		p, err := m.PlanForBudget(budget)
		if err != nil {
			// Infeasible must really be infeasible.
			finest, _ := Uniform(n, 1)
			return m.Evaluate(finest).PeakBytes > budget
		}
		r := m.Evaluate(p)
		return r.PeakBytes <= budget && r.PeakBytes <= full
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestForModelBuildsPaperModels(t *testing.T) {
	m := ForModel(model.OPT13B, 16)
	if len(m.Layers) != model.OPT13B.Layers {
		t.Fatalf("layers = %d, want %d", len(m.Layers), model.OPT13B.Layers)
	}
	l := m.Layers[0]
	if l.Activation <= 0 || l.Checkpoint <= 0 || l.Forward <= 0 {
		t.Fatalf("degenerate layer cost %+v", l)
	}
	if l.Checkpoint >= l.Activation {
		t.Fatal("checkpoint should be far smaller than full activations")
	}
	// √N on OPT-13B should cut peak activations by at least 2x.
	p, _ := SqrtN(len(m.Layers))
	if r, full := m.Evaluate(p), m.Evaluate(NoRecompute()); r.PeakBytes*2 > full.PeakBytes {
		t.Fatalf("sqrtN peak %s vs full %s", sim.FormatBytes(r.PeakBytes), sim.FormatBytes(full.PeakBytes))
	}
}
