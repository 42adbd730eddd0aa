package pipesim

import (
	"testing"
	"testing/quick"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/sim"
)

func pipeCfg(stages, micro int, sched Schedule) PipelineConfig {
	return PipelineConfig{Stages: stages, MicroBatches: micro, Schedule: sched}
}

func TestGPipeScheduleShape(t *testing.T) {
	ops, err := StageSchedule(pipeCfg(4, 3, GPipe), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{true, 0}, {true, 1}, {true, 2},
		{false, 2}, {false, 1}, {false, 0},
	}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestOneFOneBScheduleShape(t *testing.T) {
	// Stage 2 of 4, 6 microbatches: warmup 2 forwards, then B/F pairs,
	// then drain.
	ops, err := StageSchedule(pipeCfg(4, 6, OneFOneB), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{true, 0}, {true, 1},
		{false, 0}, {true, 2},
		{false, 1}, {true, 3},
		{false, 2}, {true, 4},
		{false, 3}, {true, 5},
		{false, 4}, {false, 5},
	}
	if len(ops) != len(want) {
		t.Fatalf("%d ops: %v", len(ops), ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, ops[i], want[i])
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := StageSchedule(pipeCfg(0, 4, GPipe), 0); err == nil {
		t.Fatal("accepted zero stages")
	}
	if _, err := StageSchedule(pipeCfg(2, 4, GPipe), 2); err == nil {
		t.Fatal("accepted out-of-range stage")
	}
}

// Property: every schedule runs each microbatch's F exactly once before its
// B, ends with nothing in flight, and its in-flight peak matches the
// closed form peakMicrobatchesInFlight.
func TestScheduleProperty(t *testing.T) {
	prop := func(stagesRaw, microRaw, stageRaw uint8, oneF bool) bool {
		stages := int(stagesRaw)%12 + 1
		micro := int(microRaw)%24 + 1
		stage := int(stageRaw) % stages
		sched := GPipe
		if oneF {
			sched = OneFOneB
		}
		cfg := pipeCfg(stages, micro, sched)
		ops, err := StageSchedule(cfg, stage)
		if err != nil {
			return false
		}
		if len(ops) != 2*micro {
			return false
		}
		inFlight := map[int]bool{}
		peak := 0
		for _, op := range ops {
			if op.Forward {
				if inFlight[op.Microbatch] {
					return false // double forward
				}
				inFlight[op.Microbatch] = true
				if len(inFlight) > peak {
					peak = len(inFlight)
				}
			} else {
				if !inFlight[op.Microbatch] {
					return false // backward before forward
				}
				delete(inFlight, op.Microbatch)
			}
		}
		return len(inFlight) == 0 && peak == peakMicrobatchesInFlight(cfg, stage)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func newStageAlloc(capacity int64, gmlake bool) func(int) memalloc.Allocator {
	return func(int) memalloc.Allocator {
		drv := cuda.NewDriver(gpu.NewDevice("t", capacity), sim.NewClock(), sim.DefaultCostModel())
		if gmlake {
			return core.NewDefault(drv)
		}
		return caching.New(drv)
	}
}

func TestRunCompletesWithoutLeak(t *testing.T) {
	cfg := Config{
		Model:      model.OPT1_3B,
		Pipe:       pipeCfg(4, 8, OneFOneB),
		MicroBatch: 4,
		Steps:      3,
	}
	results, err := Run(cfg, newStageAlloc(40*sim.GiB, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	totalLayers := 0
	for _, r := range results {
		if r.OOM {
			t.Fatalf("stage %d OOM on a 40 GiB device", r.Stage)
		}
		if r.Stats.Active != 0 {
			t.Fatalf("stage %d leaked %d bytes", r.Stage, r.Stats.Active)
		}
		totalLayers += r.Layers
	}
	if totalLayers != model.OPT1_3B.Layers {
		t.Fatalf("stages cover %d layers", totalLayers)
	}
}

func TestRunValidation(t *testing.T) {
	bad := Config{Model: model.OPT1_3B, Pipe: pipeCfg(4, 8, GPipe)}
	if _, err := Run(bad, newStageAlloc(sim.GiB, false)); err == nil {
		t.Fatal("accepted zero microbatch")
	}
	bad = Config{Model: model.OPT1_3B, Pipe: pipeCfg(4, 8, GPipe), MicroBatch: 2, SeqJitter: 1.5}
	if _, err := Run(bad, newStageAlloc(sim.GiB, false)); err == nil {
		t.Fatal("accepted jitter ≥ 1")
	}
}

func TestGPipeHoldsMoreThanOneFOneB(t *testing.T) {
	base := Config{
		Model:      model.OPT1_3B,
		Pipe:       pipeCfg(4, 16, GPipe),
		MicroBatch: 4,
		Steps:      2,
	}
	gp, err := Run(base, newStageAlloc(60*sim.GiB, false))
	if err != nil {
		t.Fatal(err)
	}
	base.Pipe.Schedule = OneFOneB
	ob, err := Run(base, newStageAlloc(60*sim.GiB, false))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0: GPipe buffers 16 microbatches, 1F1B only 4.
	if gp[0].Stats.PeakActive <= ob[0].Stats.PeakActive {
		t.Fatalf("GPipe peak %d not above 1F1B %d", gp[0].Stats.PeakActive, ob[0].Stats.PeakActive)
	}
}

func TestJitterFragmentsCachingNotGMLake(t *testing.T) {
	cfg := Config{
		Model:      model.OPT1_3B,
		Pipe:       pipeCfg(2, 8, OneFOneB),
		MicroBatch: 8,
		SeqJitter:  0.2,
		Steps:      8,
		Seed:       7,
	}
	ca, err := Run(cfg, newStageAlloc(60*sim.GiB, false))
	if err != nil {
		t.Fatal(err)
	}
	gm, err := Run(cfg, newStageAlloc(60*sim.GiB, true))
	if err != nil {
		t.Fatal(err)
	}
	wc, wg := WorstStage(ca), WorstStage(gm)
	if wg.Stats.Utilization() < wc.Stats.Utilization() {
		t.Fatalf("GMLake util %.3f below caching %.3f under jitter",
			wg.Stats.Utilization(), wc.Stats.Utilization())
	}
	if wg.Stats.PeakReserved > wc.Stats.PeakReserved {
		t.Fatalf("GMLake reserved %d above caching %d", wg.Stats.PeakReserved, wc.Stats.PeakReserved)
	}
}

func TestOOMReportedPerStage(t *testing.T) {
	cfg := Config{
		Model:      model.OPT13B,
		Pipe:       pipeCfg(2, 8, GPipe),
		MicroBatch: 8,
		Steps:      1,
	}
	// Far too small for 13B halves: both stages OOM, Run still returns.
	results, err := Run(cfg, newStageAlloc(sim.GiB, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OOM {
			t.Fatalf("stage %d did not OOM on a 1 GiB device", r.Stage)
		}
	}
}

func TestWorstStage(t *testing.T) {
	rs := []StageResult{
		{Stage: 0, Stats: memalloc.Stats{PeakReserved: 10}},
		{Stage: 1, Stats: memalloc.Stats{PeakReserved: 30}},
		{Stage: 2, Stats: memalloc.Stats{PeakReserved: 20}},
	}
	if w := WorstStage(rs); w.Stage != 1 {
		t.Fatalf("worst = %d", w.Stage)
	}
}
