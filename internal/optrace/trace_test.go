package optrace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

func newRecorded(capacity int64) (*Recorder, *sim.Clock) {
	dev := gpu.NewDevice("test", capacity)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	return NewRecorder(caching.New(drv), clock), clock
}

func TestRecorderCapturesEvents(t *testing.T) {
	rec, _ := newRecorded(sim.GiB)
	b1, err := rec.Alloc(10 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := rec.Alloc(20 * sim.MiB)
	rec.Free(b1)
	rec.Free(b2)
	tr := rec.Trace()
	if len(tr.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(tr.Events))
	}
	if tr.Events[0].Op != OpAlloc || tr.Events[0].Size != 10*sim.MiB {
		t.Fatalf("event 0 = %+v", tr.Events[0])
	}
	if tr.Events[2].Op != OpFree || tr.Events[2].ID != tr.Events[0].ID {
		t.Fatalf("free event does not reference its alloc: %+v", tr.Events[2])
	}
	st := tr.Stats()
	if st.Allocs != 2 || st.Frees != 2 || st.Bytes != 30*sim.MiB || st.MeanBytes != 15*sim.MiB {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecorderTimestampsAscend(t *testing.T) {
	rec, clock := newRecorded(sim.GiB)
	b, _ := rec.Alloc(sim.MiB)
	clock.Advance(5 * 1e6)
	rec.Free(b)
	tr := rec.Trace()
	if tr.Events[1].T <= tr.Events[0].T {
		t.Fatal("timestamps not ascending")
	}
}

func TestRecorderFreeUnknownPanics(t *testing.T) {
	rec, _ := newRecorded(sim.GiB)
	defer func() {
		if recover() == nil {
			t.Fatal("Free of foreign buffer did not panic")
		}
	}()
	rec.Free(&memalloc.Buffer{})
}

func TestReplayOnDifferentAllocator(t *testing.T) {
	// Record a stream on the caching allocator, replay on GMLake; both must
	// end clean.
	rec, _ := newRecorded(sim.GiB)
	var live []*memalloc.Buffer
	rng := sim.NewRNG(4)
	for i := 0; i < 200; i++ {
		if rng.Float64() < 0.6 {
			b, err := rec.Alloc(int64(rng.Intn(int(64*sim.MiB)) + 1))
			if err != nil {
				continue
			}
			live = append(live, b)
		} else if len(live) > 0 {
			i := rng.Intn(len(live))
			rec.Free(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
	for _, b := range live {
		rec.Free(b)
	}

	dev := gpu.NewDevice("replay", sim.GiB)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	gml := core.NewDefault(drv)
	if err := Replay(rec.Trace(), gml); err != nil {
		t.Fatal(err)
	}
	if st := gml.Stats(); st.Active != 0 {
		t.Fatalf("replay leaked %d bytes", st.Active)
	}
	if err := gml.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayOOMCleansUp(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Op: OpAlloc, ID: 1, Size: 30 * sim.MiB},
		{Op: OpAlloc, ID: 2, Size: 100 * sim.MiB}, // exceeds the 64 MiB device
	}}
	dev := gpu.NewDevice("small", 64*sim.MiB)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	alloc := caching.New(drv)
	if err := Replay(tr, alloc); err == nil {
		t.Fatal("replay over capacity succeeded")
	}
	if st := alloc.Stats(); st.Active != 0 {
		t.Fatalf("failed replay leaked %d bytes", st.Active)
	}
}

func TestReplayUnknownFree(t *testing.T) {
	tr := &Trace{Events: []Event{{Op: OpFree, ID: 99}}}
	dev := gpu.NewDevice("x", sim.GiB)
	clock := sim.NewClock()
	drv := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
	if err := Replay(tr, caching.New(drv)); err == nil {
		t.Fatal("replay with dangling free succeeded")
	}
}

func TestRecorderDelegates(t *testing.T) {
	rec, _ := newRecorded(sim.GiB)
	if rec.Name() != "caching+trace" {
		t.Fatalf("Name = %q", rec.Name())
	}
	b, _ := rec.Alloc(10 * sim.MiB)
	rec.Free(b)
	if rec.Stats().AllocCount != 1 {
		t.Fatal("Stats not delegated")
	}
	rec.EmptyCache()
	if rec.Stats().Reserved != 0 {
		t.Fatal("EmptyCache not delegated")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := &Trace{Events: []Event{
		{Op: OpAlloc, ID: 1, Size: 4 * sim.MiB, T: time.Millisecond},
		{Op: OpAlloc, ID: 2, Size: 8 * sim.MiB, T: 2 * time.Millisecond},
		{Op: OpFree, ID: 1, T: 3 * time.Millisecond},
		{Op: OpFree, ID: 2, T: 4 * time.Millisecond},
	}}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatalf("%d events", len(got.Events))
	}
	for i := range orig.Events {
		if got.Events[i] != orig.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], orig.Events[i])
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ReadJSON(strings.NewReader(`{"format":"other","version":1}`)); err == nil {
		t.Fatal("accepted wrong format")
	}
	if _, err := ReadJSON(strings.NewReader(`{"format":"gmlake-trace","version":99}`)); err == nil {
		t.Fatal("accepted wrong version")
	}
	// Structurally bad streams.
	bad := `{"format":"gmlake-trace","version":1,"events":[{"Op":1,"ID":7}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("accepted free of unknown id")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []Trace{
		{Events: []Event{{Op: OpAlloc, ID: 1, Size: 0}}},                                           // zero size
		{Events: []Event{{Op: OpAlloc, ID: 1, Size: 4}, {Op: OpAlloc, ID: 1, Size: 4}}},            // dup id
		{Events: []Event{{Op: Op(9), ID: 1}}},                                                      // unknown op
		{Events: []Event{{Op: OpAlloc, ID: 1, Size: 4}, {Op: OpFree, ID: 1}, {Op: OpFree, ID: 1}}}, // double free
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestValidateRefusesOversizeAlloc: an alloc above memalloc.MaxAllocSize is
// refused with its event's index; one at the limit passes.
func TestValidateRefusesOversizeAlloc(t *testing.T) {
	for _, size := range []int64{memalloc.MaxAllocSize + 1, math.MaxInt64} {
		tr := Trace{Events: []Event{{Op: OpAlloc, ID: 1, Size: 4}, {Op: OpFree, ID: 1}, {Op: OpAlloc, ID: 2, Size: size}}}
		want := fmt.Sprintf("optrace: event 2: alloc of %d bytes is above the %d-byte request limit", size, int64(memalloc.MaxAllocSize))
		if err := tr.Validate(); err == nil || err.Error() != want {
			t.Errorf("Validate of a %d-byte alloc = %v, want %q", size, err, want)
		}
	}
	tr := Trace{Events: []Event{{Op: OpAlloc, ID: 1, Size: memalloc.MaxAllocSize}}}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate refused an alloc at the limit: %v", err)
	}
}

func TestRecordedTraceSurvivesJSONAndReplays(t *testing.T) {
	clock := sim.NewClock()
	dev := gpu.NewDevice("t", sim.GiB)
	rec := NewRecorder(caching.New(cuda.NewDriver(dev, clock, sim.DefaultCostModel())), clock)
	b1, _ := rec.Alloc(16 * sim.MiB)
	b2, _ := rec.Alloc(32 * sim.MiB)
	rec.Free(b1)
	rec.Free(b2)

	var buf bytes.Buffer
	if err := rec.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	clock2 := sim.NewClock()
	dev2 := gpu.NewDevice("t2", sim.GiB)
	target := caching.New(cuda.NewDriver(dev2, clock2, sim.DefaultCostModel()))
	if err := Replay(loaded, target); err != nil {
		t.Fatal(err)
	}
	if target.Stats().Active != 0 {
		t.Fatal("replay leaked")
	}
}
