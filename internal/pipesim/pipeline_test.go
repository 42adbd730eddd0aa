package pipesim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// peakMicrobatchesInFlight is the closed form of how many microbatches'
// activations stage (0-based) holds at its worst moment: GPipe buffers
// every microbatch until the flush; under 1F1B earlier stages run ahead by
// their distance to the last stage, bounded by the microbatch count.
// TestScheduleProperty checks StageSchedule's simulated in-flight peak
// against it.
func peakMicrobatchesInFlight(c PipelineConfig, stage int) int {
	if stage < 0 || stage >= c.Stages {
		panic(fmt.Sprintf("pipesim: stage %d of %d", stage, c.Stages))
	}
	if c.Schedule == OneFOneB {
		return min(c.Stages-stage, c.MicroBatches)
	}
	return c.MicroBatches
}

func TestPipelineValidate(t *testing.T) {
	good := PipelineConfig{Stages: 4, MicroBatches: 16, Schedule: OneFOneB}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []PipelineConfig{
		{Stages: 0, MicroBatches: 4},
		{Stages: 4, MicroBatches: 0},
		{Stages: 4, MicroBatches: 4, Schedule: Schedule(9)},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
}

func TestScheduleStrings(t *testing.T) {
	if GPipe.String() != "GPipe" || OneFOneB.String() != "1F1B" {
		t.Fatalf("%v %v", GPipe, OneFOneB)
	}
	if Schedule(5).String() != "Schedule(5)" {
		t.Fatalf("%v", Schedule(5))
	}
}

func TestGPipeBuffersAllMicrobatches(t *testing.T) {
	c := PipelineConfig{Stages: 4, MicroBatches: 16, Schedule: GPipe}
	for s := 0; s < 4; s++ {
		if got := peakMicrobatchesInFlight(c, s); got != 16 {
			t.Fatalf("stage %d in-flight = %d, want 16", s, got)
		}
	}
}

func TestOneFOneBBoundsInFlight(t *testing.T) {
	c := PipelineConfig{Stages: 4, MicroBatches: 16, Schedule: OneFOneB}
	want := []int{4, 3, 2, 1}
	for s, w := range want {
		if got := peakMicrobatchesInFlight(c, s); got != w {
			t.Fatalf("stage %d in-flight = %d, want %d", s, got, w)
		}
	}
}

func TestOneFOneBClampsToMicrobatchCount(t *testing.T) {
	c := PipelineConfig{Stages: 8, MicroBatches: 2, Schedule: OneFOneB}
	if got := peakMicrobatchesInFlight(c, 0); got != 2 {
		t.Fatalf("in-flight %d with only 2 microbatches", got)
	}
}

func TestPeakInFlightPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad stage index")
		}
	}()
	peakMicrobatchesInFlight(PipelineConfig{Stages: 2, MicroBatches: 2}, 2)
}

func TestPartitionLayers(t *testing.T) {
	c := PipelineConfig{Stages: 4, MicroBatches: 4, Schedule: GPipe}
	parts, err := c.PartitionLayers(10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 2, 2}
	sum := 0
	for i, p := range parts {
		if p != want[i] {
			t.Fatalf("partition = %v, want %v", parts, want)
		}
		sum += p
	}
	if sum != 10 {
		t.Fatalf("partition sums to %d", sum)
	}
	if _, err := c.PartitionLayers(3); err == nil {
		t.Fatal("3 layers across 4 stages accepted")
	}
}

// Property: 1F1B never buffers more than GPipe anywhere, and in-flight
// counts are within [1, MicroBatches].
func TestScheduleMemoryProperty(t *testing.T) {
	prop := func(stagesRaw, microRaw uint8) bool {
		stages := int(stagesRaw)%15 + 1
		micro := int(microRaw)%63 + 1
		g := PipelineConfig{Stages: stages, MicroBatches: micro, Schedule: GPipe}
		o := PipelineConfig{Stages: stages, MicroBatches: micro, Schedule: OneFOneB}
		for s := 0; s < stages; s++ {
			gi, oi := peakMicrobatchesInFlight(g, s), peakMicrobatchesInFlight(o, s)
			if oi > gi || oi < 1 || gi > micro {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
