package parallel

import (
	"testing"
	"testing/quick"
)

func TestZeROStage0Replicates(t *testing.T) {
	b, err := ZeROState(1e9, 8, Stage0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Params != 2e9 || b.Grads != 2e9 || b.Optimizer != 12e9 {
		t.Fatalf("stage0 breakdown %+v", b)
	}
	if b.Total() != 16e9 {
		t.Fatalf("total = %d, want 16e9 (16 bytes/param)", b.Total())
	}
}

func TestZeROStagesShardProgressively(t *testing.T) {
	const params, world = int64(1e9), 8
	var prev int64 = 1 << 62
	for _, stage := range []ZeROStage{Stage0, Stage1, Stage2, Stage3} {
		b, err := ZeROState(params, world, stage)
		if err != nil {
			t.Fatal(err)
		}
		if b.Total() >= prev {
			t.Fatalf("%v total %d not below previous stage %d", stage, b.Total(), prev)
		}
		prev = b.Total()
	}
	// Stage 3 with world=8: everything /8.
	b, _ := ZeROState(params, world, Stage3)
	if b.Total() != 2e9 {
		t.Fatalf("stage3 total = %d, want 2e9", b.Total())
	}
}

func TestZeROWorldOneIsFullState(t *testing.T) {
	b, err := ZeROState(1000, 1, Stage3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() != 16*1000 {
		t.Fatalf("world=1 sharded anyway: %+v", b)
	}
}

func TestZeROValidation(t *testing.T) {
	if _, err := ZeROState(0, 4, Stage3); err == nil {
		t.Fatal("accepted zero params")
	}
	if _, err := ZeROState(100, 0, Stage3); err == nil {
		t.Fatal("accepted zero world")
	}
	if _, err := ZeROState(100, 4, ZeROStage(9)); err == nil {
		t.Fatal("accepted unknown stage")
	}
}

func TestZeROStageStrings(t *testing.T) {
	if Stage3.String() != "ZeRO-3" || Stage0.String() != "ZeRO-0" {
		t.Fatalf("%v %v", Stage0, Stage3)
	}
	if ZeROStage(7).String() != "ZeROStage(7)" {
		t.Fatalf("%v", ZeROStage(7))
	}
}

func TestZeROStepCommBytes(t *testing.T) {
	const p = int64(1e6)
	if got := ZeROStepCommBytes(p, 1, Stage3); got != 0 {
		t.Fatalf("single GPU communicates %d", got)
	}
	s0 := ZeROStepCommBytes(p, 8, Stage0)
	s2 := ZeROStepCommBytes(p, 8, Stage2)
	s3 := ZeROStepCommBytes(p, 8, Stage3)
	if s0 != 4*p { // 2 × grad bytes (2p)
		t.Fatalf("stage0 comm = %d, want %d", s0, 4*p)
	}
	if s2 >= s0 {
		t.Fatal("stage2 should communicate less than stage0")
	}
	if s3 <= s0 {
		t.Fatal("stage3 must pay extra parameter gathers")
	}
}

// Property: sharding never loses bytes — world × per-rank shard covers the
// full state (with padding, never less), and higher stages never hold more.
func TestZeROShardCoverageProperty(t *testing.T) {
	prop := func(paramsK uint32, worldRaw uint8) bool {
		params := int64(paramsK)%1e7 + 1
		world := int(worldRaw)%63 + 1
		full, err := ZeROState(params, world, Stage0)
		if err != nil {
			return false
		}
		for _, stage := range []ZeROStage{Stage1, Stage2, Stage3} {
			b, err := ZeROState(params, world, stage)
			if err != nil {
				return false
			}
			if b.Total() > full.Total() {
				return false
			}
			if int64(world)*b.Total() < full.Total() {
				return false // shards don't cover the model
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
