package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// The rows of TestParseFaultPlan, shared with FuzzParseFaultPlan's seeds.
const goodFaultPlan = "crash@t=12s:r1/restart@t=14s:r1/crash@t=2s:r0"

var badFaultPlans = []string{
	"", "///", "crash", "crash@12s:r1", "reboot@t=1s:r0", "crash@t=1s:x0",
	"crash@t=-1s:r0", "crash@t=1s:r-1", "crash@t=1s:r0.5", "crash@t=zz:r0",
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan(goodFaultPlan)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []FaultEvent{
		{At: 12 * time.Second, Kind: FaultCrash, Replica: 1},
		{At: 14 * time.Second, Kind: FaultRestart, Replica: 1},
		{At: 2 * time.Second, Kind: FaultCrash, Replica: 0},
	}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan %+v, want %+v", plan, want)
	}
	for _, bad := range badFaultPlans {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q): expected error", bad)
		}
	}
}

// FuzzParseFaultPlan: no string panics the plan parser, a plan it accepts
// holds only non-negative times and replica indexes, and no accepted plan
// panics the validation against a fleet bound — which, when it passes too,
// has kept every event inside the fleet.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add(goodFaultPlan, 2)
	f.Add(goodFaultPlan, 1)
	f.Add("crash@t=0s:r0/crash@t=0s:r1", 2)
	f.Add(" crash@t=1.5h:r3 // restart@t=1e3ms:r3 ", 4)
	for _, bad := range badFaultPlans {
		f.Add(bad, 2)
	}
	f.Fuzz(func(t *testing.T, s string, fleetMax int) {
		plan, err := ParseFaultPlan(s)
		if err != nil {
			return
		}
		if len(plan) == 0 {
			t.Fatalf("ParseFaultPlan(%q) accepted an empty plan", s)
		}
		for _, e := range plan {
			if e.At < 0 || e.Replica < 0 || (e.Kind != FaultCrash && e.Kind != FaultRestart) {
				t.Fatalf("ParseFaultPlan(%q) accepted %+v", s, e)
			}
		}
		if (FaultConfig{Plan: plan}).validate(fleetMax) != nil {
			return
		}
		for _, e := range plan {
			if e.Replica >= fleetMax {
				t.Fatalf("validate(%d) accepted %+v from %q", fleetMax, e, s)
			}
		}
	})
}

func TestFaultConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		fc   FaultConfig
		ok   bool
	}{
		{"zero", FaultConfig{}, true},
		{"mttf+mttr", FaultConfig{MTTF: time.Second, MTTR: 100 * time.Millisecond}, true},
		{"mttf-alone", FaultConfig{MTTF: time.Second}, false},
		{"mttr-alone", FaultConfig{MTTR: time.Second}, false},
		{"negative-mttf", FaultConfig{MTTF: -time.Second, MTTR: time.Second}, false},
		{"plan", FaultConfig{Plan: []FaultEvent{{At: time.Second, Kind: FaultCrash, Replica: 0}}}, true},
		{"plan-and-mttf", FaultConfig{MTTF: time.Second, MTTR: time.Second,
			Plan: []FaultEvent{{At: time.Second, Kind: FaultCrash}}}, false},
		{"plan-replica-out-of-range", FaultConfig{Plan: []FaultEvent{{At: time.Second, Kind: FaultCrash, Replica: 2}}}, false},
		{"plan-restart-first", FaultConfig{Plan: []FaultEvent{{At: time.Second, Kind: FaultRestart, Replica: 0}}}, false},
		{"plan-double-crash", FaultConfig{Plan: []FaultEvent{
			{At: time.Second, Kind: FaultCrash, Replica: 0},
			{At: 2 * time.Second, Kind: FaultCrash, Replica: 0}}}, false},
		{"plan-same-instant", FaultConfig{Plan: []FaultEvent{
			{At: time.Second, Kind: FaultCrash, Replica: 0},
			{At: time.Second, Kind: FaultRestart, Replica: 0}}}, false},
		{"plan-alternates", FaultConfig{Plan: []FaultEvent{
			{At: time.Second, Kind: FaultCrash, Replica: 0},
			{At: 2 * time.Second, Kind: FaultRestart, Replica: 0},
			{At: 3 * time.Second, Kind: FaultCrash, Replica: 0}}}, true},
	}
	for _, tc := range cases {
		err := tc.fc.validate(2)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRecoveryConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		rc   RecoveryConfig
		ok   bool
	}{
		{"zero", RecoveryConfig{}, true},
		{"full", RecoveryConfig{Retries: 3, Backoff: 1.5}, true},
		{"negative-retries", RecoveryConfig{Retries: -1}, false},
		{"backoff-below-one", RecoveryConfig{Backoff: 0.5}, false},
	} {
		err := tc.rc.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestMTTFStreamDeterministic pins the seeded fault source: identical
// configuration, identical event sequence; different seeds, different ones.
func TestMTTFStreamDeterministic(t *testing.T) {
	draw := func(seed uint64) []FaultEvent {
		f := newFaultSource(FaultConfig{MTTF: time.Second, MTTR: 100 * time.Millisecond, Seed: seed}, 3)
		out := make([]FaultEvent, 0, 20)
		for i := 0; i < 20; i++ {
			out = append(out, f.pop())
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds produced identical fault streams")
	}
	last := map[int]FaultKind{}
	prevAt := map[int]time.Duration{}
	for _, e := range a {
		if k, ok := last[e.Replica]; ok {
			if k == e.Kind {
				t.Fatalf("replica %d: consecutive %v events", e.Replica, e.Kind)
			}
			if e.At <= prevAt[e.Replica] {
				t.Fatalf("replica %d: non-increasing event times", e.Replica)
			}
		} else if e.Kind != FaultCrash {
			t.Fatalf("replica %d: first event %v, want crash", e.Replica, e.Kind)
		}
		last[e.Replica], prevAt[e.Replica] = e.Kind, e.At
	}
}

// scanFaultSource is the fault feed as it was before the heap: the sorted
// plan behind a cursor, or each stream's pending event found by a linear
// scan that breaks ties to the lowest replica. TestFaultHeapMatchesScan
// holds faultSource to it.
type scanFaultSource struct {
	plan       []FaultEvent
	cursor     int
	streams    []scanFaultStream
	mttf, mttr time.Duration
}

type scanFaultStream struct {
	rng  *sim.RNG
	next FaultEvent
}

func newScanFaultSource(fc FaultConfig, fleetMax int) *scanFaultSource {
	if len(fc.Plan) > 0 {
		return &scanFaultSource{plan: sortedPlan(fc.Plan)}
	}
	f := &scanFaultSource{mttf: fc.MTTF, mttr: fc.MTTR, streams: make([]scanFaultStream, fleetMax)}
	for i := range f.streams {
		rng := sim.NewRNG(fc.Seed + 0x9e3779b97f4a7c15*uint64(i+1))
		f.streams[i] = scanFaultStream{rng: rng, next: FaultEvent{At: expDur(rng, fc.MTTF), Kind: FaultCrash, Replica: i}}
	}
	return f
}

func (f *scanFaultSource) earliest() int {
	best := 0
	for i := 1; i < len(f.streams); i++ {
		if f.streams[i].next.At < f.streams[best].next.At {
			best = i
		}
	}
	return best
}

func (f *scanFaultSource) peek() (FaultEvent, bool) {
	if f.streams == nil {
		if f.cursor >= len(f.plan) {
			return FaultEvent{}, false
		}
		return f.plan[f.cursor], true
	}
	return f.streams[f.earliest()].next, true
}

func (f *scanFaultSource) pop() FaultEvent {
	if f.streams == nil {
		e := f.plan[f.cursor]
		f.cursor++
		return e
	}
	st := &f.streams[f.earliest()]
	e := st.next
	if e.Kind == FaultCrash {
		st.next = FaultEvent{At: e.At + expDur(st.rng, f.mttr), Kind: FaultRestart, Replica: e.Replica}
	} else {
		st.next = FaultEvent{At: e.At + expDur(st.rng, f.mttf), Kind: FaultCrash, Replica: e.Replica}
	}
	return e
}

// TestFaultHeapMatchesScan: the keyed heap feeds the same fault events in
// the same order as the scan it replaced, over random MTTF configurations
// (nanosecond means make streams tie at one instant) and random valid
// plans handed over in shuffled order.
func TestFaultHeapMatchesScan(t *testing.T) {
	same := func(what string, fc FaultConfig, fleet, pops int) {
		t.Helper()
		got, want := newFaultSource(fc, fleet), newScanFaultSource(fc, fleet)
		for i := 0; i < pops; i++ {
			g, gok := got.peek()
			w, wok := want.peek()
			if g != w || gok != wok {
				t.Fatalf("%s: peek %d: %+v %v, scan %+v %v", what, i, g, gok, w, wok)
			}
			if !wok {
				return
			}
			if g, w := got.pop(), want.pop(); g != w {
				t.Fatalf("%s: pop %d: %+v, scan %+v", what, i, g, w)
			}
		}
	}
	rng := sim.NewRNG(42)
	for _, fleet := range []int{1, 2, 3, 5, 8, 13, 32, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			unit := time.Millisecond
			if seed == 1 {
				unit = time.Nanosecond
			}
			fc := FaultConfig{
				MTTF: time.Duration(1+rng.Intn(1000)) * unit,
				MTTR: time.Duration(1+rng.Intn(100)) * unit,
				Seed: seed,
			}
			same(fmt.Sprintf("fleet %d mttf %v mttr %v seed %d", fleet, fc.MTTF, fc.MTTR, seed), fc, fleet, 10000)
		}
	}
	for trial := 0; trial < 300; trial++ {
		fleet := 1 + rng.Intn(64)
		var plan []FaultEvent
		for r := 0; r < fleet; r++ {
			var at time.Duration
			for k, n := 0, rng.Intn(6); k < n; k++ {
				at += time.Duration(1+rng.Intn(3)) * time.Second // coarse, so replicas tie
				kind := FaultCrash
				if k%2 == 1 {
					kind = FaultRestart
				}
				plan = append(plan, FaultEvent{At: at, Kind: kind, Replica: r})
			}
		}
		if len(plan) == 0 {
			continue
		}
		for i := len(plan) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			plan[i], plan[j] = plan[j], plan[i]
		}
		fc := FaultConfig{Plan: plan}
		if err := fc.validate(fleet); err != nil {
			t.Fatalf("trial %d: generated plan invalid: %v", trial, err)
		}
		same(fmt.Sprintf("trial %d plan %v", trial, plan), fc, fleet, len(plan)+1)
	}
}

// TestZeroFaultDifferential is the tentpole acceptance gate: with no fault
// events firing, the fault-capable scheduler must reproduce the pre-fault
// cluster byte for byte across dispatch policies, elasticity and stealing —
// whether the fault machinery is absent (zero config), armed with recovery
// knobs that never trigger, or armed with an MTTF so long no crash lands
// inside the run.
func TestZeroFaultDifferential(t *testing.T) {
	reqs := mixedStream(60)
	for _, cfg := range []ClusterConfig{
		{Replicas: 2, Server: ServerConfig{MaxBatch: 4}},
		{Replicas: 3, Dispatch: DispatchJSQ, Server: ServerConfig{MaxBatch: 4}},
		{Replicas: 2, Dispatch: DispatchLeastKV, Server: ServerConfig{MaxBatch: 4}, Steal: true},
		{MinReplicas: 1, MaxReplicas: 3, Server: ServerConfig{MaxBatch: 4}},
		{MinReplicas: 1, MaxReplicas: 3, Server: ServerConfig{MaxBatch: 4}, Steal: true, Dispatch: DispatchJSQ},
	} {
		base, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		armed := cfg
		armed.Recovery = RecoveryConfig{Retries: 3, Backoff: 2}
		got, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), armed)
		if err != nil {
			t.Fatalf("armed recovery: %v", err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("%+v: recovery knobs without faults changed the report", cfg)
		}
		quiet := cfg
		quiet.Faults = FaultConfig{MTTF: 1000 * time.Hour, MTTR: time.Second, Seed: 7}
		got, err = ServeCluster(reqs, chunkedFactory(8*sim.GiB), quiet)
		if err != nil {
			t.Fatalf("quiet faults: %v", err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("%+v: armed-but-silent fault source changed the report", cfg)
		}
		if base.Availability != 1 {
			t.Fatalf("zero-fault availability %v, want exactly 1", base.Availability)
		}
		if base.Goodput != base.Served {
			t.Fatalf("no-deadline goodput %d != served %d", base.Goodput, base.Served)
		}
		if base.Crashes != 0 || base.Restarts != 0 || base.Retries != 0 || base.Lost != 0 || base.Shed != 0 {
			t.Fatalf("zero-fault run reported fault activity: %+v", base.Report)
		}
	}
}

// TestScriptedCrashPreservesTTFT mirrors the preemption contract for
// crashes: a request that streamed its first token before its replica died
// keeps that TTFT through recompute-from-scratch re-dispatch, while its E2E
// stretches past the restart.
func TestScriptedCrashPreservesTTFT(t *testing.T) {
	reqs := []Request{{ID: 0, PromptLen: 32, OutputLen: 200}}
	run := func(plan []FaultEvent, retries int) ClusterReport {
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
			Replicas: 1,
			Server:   ServerConfig{MaxBatch: 2},
			Faults:   FaultConfig{Plan: plan},
			Recovery: RecoveryConfig{Retries: retries},
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	base := run(nil, 0)
	// Crash well after the first token (one step in) but long before the
	// 200-step decode completes; restart shortly after.
	faulty := run([]FaultEvent{
		{At: 2 * time.Second, Kind: FaultCrash, Replica: 0},
		{At: 3 * time.Second, Kind: FaultRestart, Replica: 0},
	}, 1)
	if faulty.Crashes != 1 || faulty.Restarts != 1 || faulty.Retries != 1 {
		t.Fatalf("crash accounting: crashes=%d restarts=%d retries=%d", faulty.Crashes, faulty.Restarts, faulty.Retries)
	}
	if faulty.Served != 1 || faulty.Lost != 0 {
		t.Fatalf("request not recovered: served=%d lost=%d", faulty.Served, faulty.Lost)
	}
	if faulty.TTFT.P50 != base.TTFT.P50 {
		t.Fatalf("TTFT not preserved across crash: %v, fault-free %v", faulty.TTFT.P50, base.TTFT.P50)
	}
	if faulty.E2E.P50 <= base.E2E.P50 {
		t.Fatalf("E2E %v did not stretch past fault-free %v", faulty.E2E.P50, base.E2E.P50)
	}
	if faulty.Availability >= 1 || faulty.Availability <= 0 {
		t.Fatalf("availability %v, want in (0,1)", faulty.Availability)
	}
}

// TestCrashWithoutRetryLosesInflight: the zero-value recovery policy
// abandons in-flight work on a crash, but queued requests are still
// re-dispatched for free.
func TestCrashWithoutRetryLosesInflight(t *testing.T) {
	// Two requests: one decoding when the crash hits, one still queued
	// behind the batch cap.
	reqs := []Request{
		{ID: 0, PromptLen: 32, OutputLen: 400},
		{ID: 1, PromptLen: 32, OutputLen: 20},
	}
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas: 2,
		Server:   ServerConfig{MaxBatch: 1},
		Faults: FaultConfig{Plan: []FaultEvent{
			{At: time.Second, Kind: FaultCrash, Replica: 0},
			{At: 2 * time.Second, Kind: FaultRestart, Replica: 0},
		}},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Lost != 1 {
		t.Fatalf("lost %d in-flight requests, want 1 (report %+v)", rep.Lost, rep.Report)
	}
	if rep.Served != 1 {
		t.Fatalf("served %d, want the queued request recovered", rep.Served)
	}
	if rep.Retries != 0 {
		t.Fatalf("retries %d with a zero-retry policy", rep.Retries)
	}
}

// TestCrashedReplicaKeepsClassOffItsRoster: a class whose only request was
// admitted on a replica that crashed and completed, retried, on another is a
// row of the merged report and of the finishing replica's — not of the
// crashed replica's, which has nothing to say about it.
func TestCrashedReplicaKeepsClassOffItsRoster(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "moved", SLO: "interactive", PromptLen: 32, OutputLen: 100},
		{ID: 1, Class: "stayed", PromptLen: 32, OutputLen: 100},
	}
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas: 2,
		Server:   ServerConfig{MaxBatch: 2},
		Dispatch: DispatchRoundRobin,
		Faults:   FaultConfig{Plan: []FaultEvent{{At: time.Second, Kind: FaultCrash, Replica: 0}}},
		Recovery: RecoveryConfig{Retries: 1},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Retries != 1 || rep.Served != 2 {
		t.Fatalf("retries=%d served=%d, want the crashed request retried and both served", rep.Retries, rep.Served)
	}
	if c := rep.Class("moved"); c == nil || c.Served != 1 || c.SLO != "interactive" || c.MeanKVTokens <= 0 {
		t.Errorf("merged row of the moved class: %+v", c)
	}
	if c := rep.Replicas[1].Class("moved"); c == nil || c.Served != 1 {
		t.Errorf("finishing replica's row of the moved class: %+v", c)
	}
	if c := rep.Replicas[0].Class("moved"); c != nil {
		t.Errorf("crashed replica lists the class it never finished: %+v", c)
	}
	if len(rep.Replicas[0].Classes) != 0 || len(rep.Replicas[1].Classes) != 2 {
		t.Errorf("rosters: crashed replica %+v, survivor %+v", rep.Replicas[0].Classes, rep.Replicas[1].Classes)
	}
}

// TestAllDownParksArrivals: with the only replica down, arrivals park in
// the re-dispatch pool and are served after the restart.
func TestAllDownParksArrivals(t *testing.T) {
	reqs := []Request{
		{ID: 0, PromptLen: 16, OutputLen: 8},
		{ID: 1, PromptLen: 16, OutputLen: 8, ArrivalAt: 1500 * time.Millisecond},
	}
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas: 1,
		Server:   ServerConfig{MaxBatch: 2},
		Faults: FaultConfig{Plan: []FaultEvent{
			{At: time.Second, Kind: FaultCrash, Replica: 0},
			{At: 3 * time.Second, Kind: FaultRestart, Replica: 0},
		}},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Served != 2 {
		t.Fatalf("served %d, want both (one parked during the outage)", rep.Served)
	}
	if e2e := rep.E2E.P99; e2e < 1500*time.Millisecond {
		t.Fatalf("parked arrival E2E %v should straddle the outage", e2e)
	}
}

// TestStrandedPoolSealsWithError: a crash with no scripted restart and no
// retryable target strands displaced requests; the run must terminate with
// a sealed report and a clear error, never loop.
func TestStrandedPoolSealsWithError(t *testing.T) {
	reqs := mixedStream(12)
	rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas: 1,
		Server:   ServerConfig{MaxBatch: 2},
		Faults:   FaultConfig{Plan: []FaultEvent{{At: 200 * time.Millisecond, Kind: FaultCrash, Replica: 0}}},
	})
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("expected stranded-pool error, got %v", err)
	}
	if rep.Crashes != 1 {
		t.Fatalf("sealed report lost the crash: %+v", rep.Report)
	}
	// Every request is accounted for somewhere: served, lost, or in the
	// roster as unserved.
	if got := len(rep.Classes); got == 0 {
		t.Fatal("sealed report carries no class roster")
	}
}

// TestTimeoutGoodputSingleServer exercises deadlines on the plain Serve
// loop: an overloaded server with a tight timeout aborts expired requests,
// splits completions into goodput and late, and never reports more goodput
// than served.
func TestTimeoutGoodputSingleServer(t *testing.T) {
	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{ID: i, PromptLen: 64, OutputLen: 32}
	}
	mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if rep.DeadlineMisses == 0 {
		t.Fatalf("expected deadline misses on an overloaded server: %+v", rep)
	}
	if rep.Goodput > rep.Served {
		t.Fatalf("goodput %d exceeds served %d", rep.Goodput, rep.Served)
	}
	if rep.Goodput+int(rep.DeadlineMisses) < len(reqs)-int(rep.Shed) {
		t.Fatalf("requests unaccounted: goodput=%d misses=%d shed=%d of %d",
			rep.Goodput, rep.DeadlineMisses, rep.Shed, len(reqs))
	}
	if mgr.LogicalBytes() != 0 {
		t.Fatalf("aborted requests leaked KV: %d logical bytes", mgr.LogicalBytes())
	}
}

// TestShedRejectsDoomedRequests: with shedding on, requests whose floor
// cannot meet the deadline are rejected up front and stop competing for
// the batch — so survivors' goodput can only improve.
func TestShedRejectsDoomedRequests(t *testing.T) {
	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{ID: i, PromptLen: 64, OutputLen: 32}
	}
	run := func(shed bool) Report {
		mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
		rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4, Timeout: 2 * time.Second, Shed: shed})
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		return rep
	}
	noShed, withShed := run(false), run(true)
	if withShed.Shed == 0 {
		t.Fatalf("expected shedding under overload: %+v", withShed)
	}
	if withShed.Goodput < noShed.Goodput {
		t.Fatalf("shedding reduced goodput: %d < %d", withShed.Goodput, noShed.Goodput)
	}
	if withShed.Steps > noShed.Steps {
		t.Fatalf("shedding burned more steps: %d > %d", withShed.Steps, noShed.Steps)
	}
	// A request shed at admission never decodes: shed + misses + goodput
	// covers the stream.
	if got := withShed.Goodput + int(withShed.DeadlineMisses) + int(withShed.Shed); got != len(reqs) {
		t.Fatalf("accounting: goodput+misses+shed = %d, want %d", got, len(reqs))
	}
}

// TestShedRequiresTimeout: shedding without a deadline is rejected by both
// the server and the cluster validators.
func TestShedRequiresTimeout(t *testing.T) {
	mgr := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	if _, err := Serve(mixedStream(2), mgr, ServerConfig{MaxBatch: 2, Shed: true}); err == nil {
		t.Fatal("Serve accepted shed without timeout")
	}
	if _, err := ServeCluster(mixedStream(2), chunkedFactory(sim.GiB),
		ClusterConfig{Replicas: 1, Server: ServerConfig{MaxBatch: 2, Shed: true}}); err == nil {
		t.Fatal("ServeCluster accepted shed without timeout")
	}
}

// TestClusterFaultConfigRejected: cluster validation catches bad fault and
// recovery settings before any replica spawns.
func TestClusterFaultConfigRejected(t *testing.T) {
	base := ClusterConfig{Replicas: 2, Server: ServerConfig{MaxBatch: 2}}
	for name, mut := range map[string]func(*ClusterConfig){
		"mttf-alone":     func(c *ClusterConfig) { c.Faults.MTTF = time.Second },
		"plan-too-wide":  func(c *ClusterConfig) { c.Faults.Plan = []FaultEvent{{At: time.Second, Kind: FaultCrash, Replica: 5}} },
		"bad-backoff":    func(c *ClusterConfig) { c.Recovery.Backoff = 0.25 },
		"neg-retries":    func(c *ClusterConfig) { c.Recovery.Retries = -1 },
		"neg-timeout":    func(c *ClusterConfig) { c.Server.Timeout = -time.Second },
		"shed-no-expiry": func(c *ClusterConfig) { c.Server.Shed = true },
	} {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", name)
		}
		if _, err := ServeCluster(mixedStream(2), chunkedFactory(sim.GiB), cfg); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestChaosDeterminism is the chaos suite: a seeded MTTF/MTTR fault process
// over an elastic, stealing, multi-class cluster must (a) produce byte-
// identical reports run after run, and (b) uphold the structural
// invariants — no orphaned KV slots, zero outstanding-KV skew on surviving
// replicas, availability in [0,1], goodput bounded by served.
func TestChaosDeterminism(t *testing.T) {
	reqs := mixedStream(80)
	for _, cfg := range []ClusterConfig{
		{Replicas: 3, Server: ServerConfig{MaxBatch: 4, Timeout: 30 * time.Second},
			Faults:   FaultConfig{MTTF: 2 * time.Second, MTTR: 300 * time.Millisecond, Seed: 11},
			Recovery: RecoveryConfig{Retries: 4, Backoff: 2}},
		{MinReplicas: 1, MaxReplicas: 4, Steal: true, Dispatch: DispatchLeastKV,
			Server:   ServerConfig{MaxBatch: 4, Timeout: 30 * time.Second, Shed: true},
			Faults:   FaultConfig{MTTF: 1500 * time.Millisecond, MTTR: 200 * time.Millisecond, Seed: 3},
			Recovery: RecoveryConfig{Retries: 3, Backoff: 1.5}},
	} {
		var mgrs []CacheManager
		factory := func(i int) CacheManager {
			m := chunkedFactory(8 * sim.GiB)(i)
			mgrs = append(mgrs, m)
			return m
		}
		c, err := newClusterSched(reqs, factory, cfg)
		if err != nil {
			t.Fatalf("sched: %v", err)
		}
		rep, _, err := c.run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if rep.Crashes == 0 || rep.Restarts == 0 {
			t.Fatalf("testbed too calm: crashes=%d restarts=%d — chaos untested", rep.Crashes, rep.Restarts)
		}
		for i, r := range c.fleet {
			if load := r.dispatchedTokens - r.srv.doneTokens; load != 0 {
				t.Errorf("replica %d finished with outstanding-KV estimate %d, want 0", i, load)
			}
		}
		for i, m := range mgrs {
			if lb := m.LogicalBytes(); lb != 0 {
				t.Errorf("manager %d holds %d logical bytes after the run — orphaned KV slots", i, lb)
			}
		}
		if rep.Availability < 0 || rep.Availability > 1 {
			t.Errorf("availability %v outside [0,1]", rep.Availability)
		}
		if rep.Availability >= 1 {
			t.Errorf("availability %v with %d crashes, want < 1", rep.Availability, rep.Crashes)
		}
		if rep.Goodput > rep.Served {
			t.Errorf("goodput %d exceeds served %d", rep.Goodput, rep.Served)
		}
		if total := rep.Served + rep.Lost + int(rep.Shed) + int(rep.DeadlineMisses); total < len(reqs) {
			// DeadlineMisses can double-count a late completion, so this is
			// a lower-bound check: every request ends served, lost, shed,
			// or timed out.
			t.Errorf("only %d of %d requests accounted for", total, len(reqs))
		}

		again, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
		if err != nil {
			t.Fatalf("rerun: %v", err)
		}
		if !reflect.DeepEqual(rep, again) {
			t.Fatal("same seed and fault config produced different reports")
		}
	}
}
