package stream

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestLaunchAdvancesFrontierNotHost(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock)
	s.Launch(DefaultStream, 10*time.Millisecond)
	if clock.Now() != 0 {
		t.Fatalf("host clock moved on launch: %v", clock.Now())
	}
	if !s.Busy(DefaultStream) {
		t.Fatal("stream should be busy after launch")
	}
	s.Synchronize(DefaultStream)
	if got := clock.Now(); got != 10*time.Millisecond {
		t.Fatalf("Synchronize advanced clock to %v, want 10ms", got)
	}
	if s.Busy(DefaultStream) {
		t.Fatal("stream still busy after synchronize")
	}
}

func TestLaunchesOnOneStreamAreFIFO(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock)
	s.Launch(DefaultStream, 3*time.Millisecond)
	s.Launch(DefaultStream, 4*time.Millisecond)
	s.Synchronize(DefaultStream)
	if got := clock.Now(); got != 7*time.Millisecond {
		t.Fatalf("frontier %v, want 7ms (serial execution)", got)
	}
}

func TestStreamsRunConcurrently(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock)
	s2 := s.NewStream()
	s.Launch(DefaultStream, 5*time.Millisecond)
	s.Launch(s2, 8*time.Millisecond)
	s.SynchronizeAll()
	if got := clock.Now(); got != 8*time.Millisecond {
		t.Fatalf("device sync at %v, want 8ms (overlap, not 13ms)", got)
	}
}

func TestNewStreamStartsAtHostTime(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock)
	clock.Advance(time.Second)
	id := s.NewStream()
	if s.Busy(id) {
		t.Fatal("fresh stream must be idle")
	}
	s.Launch(id, time.Millisecond)
	s.Synchronize(id)
	if got := clock.Now(); got != time.Second+time.Millisecond {
		t.Fatalf("clock %v, want 1.001s", got)
	}
}

func TestEventRecordQuerySync(t *testing.T) {
	clock := sim.NewClock()
	s := NewScheduler(clock)
	s.Launch(DefaultStream, 6*time.Millisecond)
	e := s.Record(DefaultStream)
	if e.Done(clock) {
		t.Fatal("event done while stream busy")
	}
	// Work enqueued after the record does not delay the event.
	s.Launch(DefaultStream, time.Hour)
	e.Sync(clock)
	if got := clock.Now(); got != 6*time.Millisecond {
		t.Fatalf("event sync at %v, want 6ms", got)
	}
	if !e.Done(clock) {
		t.Fatal("event not done after sync")
	}
}

func TestZeroEventIsComplete(t *testing.T) {
	clock := sim.NewClock()
	var e Event
	if !e.Done(clock) {
		t.Fatal("zero event must read complete")
	}
	e.Sync(clock) // must not advance
	if clock.Now() != 0 {
		t.Fatal("zero event sync moved the clock")
	}
}

func TestEventsRecordedCounter(t *testing.T) {
	s := NewScheduler(sim.NewClock())
	s.Record(DefaultStream)
	s.Record(DefaultStream)
	if got := s.EventsRecorded(); got != 2 {
		t.Fatalf("EventsRecorded = %d, want 2", got)
	}
}

func TestUnknownStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown stream")
		}
	}()
	NewScheduler(sim.NewClock()).Launch(ID(9), time.Millisecond)
}

func TestNegativeLaunchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative duration")
		}
	}()
	NewScheduler(sim.NewClock()).Launch(DefaultStream, -time.Millisecond)
}

// Property: an event never completes before all work enqueued prior to its
// record, and always completes once the host syncs the stream.
func TestEventCompletionProperty(t *testing.T) {
	prop := func(durs []uint16, recordAfter uint8) bool {
		clock := sim.NewClock()
		s := NewScheduler(clock)
		var before time.Duration
		n := int(recordAfter) % (len(durs) + 1)
		for i, d := range durs {
			dd := time.Duration(d) * time.Microsecond
			s.Launch(DefaultStream, dd)
			if i < n {
				before += dd
			}
		}
		var e Event
		// Re-run: record after the first n launches.
		clock2 := sim.NewClock()
		s2 := NewScheduler(clock2)
		for i, d := range durs {
			if i == n {
				e = s2.Record(DefaultStream)
			}
			s2.Launch(DefaultStream, time.Duration(d)*time.Microsecond)
		}
		if n == len(durs) {
			e = s2.Record(DefaultStream)
		}
		if e.CompletesAt() != before {
			return false
		}
		s2.Synchronize(DefaultStream)
		return e.Done(clock2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
