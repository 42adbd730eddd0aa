package serve

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/container"
	"repro/internal/model"
	"repro/internal/sim"
)

// replicaOf builds the one replica of a scheduler over reqs — the shape
// Serve runs — and returns its server and arrive, which releases the next
// request from the scheduler's queue onto the server and returns its track.
// The queue issues every record, so a record a departed request returned
// goes to the next arrival, as in a run.
func replicaOf(t *testing.T, reqs []Request, mgr CacheManager, cfg ServerConfig) (s *server, arrive func() *track) {
	t.Helper()
	c, err := newClusterSched(reqs, func(int) CacheManager { return mgr }, ClusterConfig{Replicas: 1, Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s = c.fleet[0].srv
	return s, func() *track {
		w := c.queue.pop()
		s.push(w, 0)
		return w
	}
}

// replicaWith is replicaOf with every request of reqs released up front.
func replicaWith(t *testing.T, reqs []Request, mgr CacheManager, cfg ServerConfig) *server {
	t.Helper()
	s, arrive := replicaOf(t, reqs, mgr, cfg)
	for range reqs {
		arrive()
	}
	return s
}

func TestServeCompletesAllRequests(t *testing.T) {
	reqs, err := GenRequests(40, GenConfig{MinPrompt: 8, MaxPrompt: 64, MinOutput: 4, MaxOutput: 64}, 7)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 40 {
		t.Fatalf("served %d of 40", rep.Served)
	}
	if mgr.UsedBytes() != 0 {
		t.Fatal("server left sequences allocated")
	}
	if rep.MeanBatch <= 1 || rep.MeanBatch > 8 {
		t.Fatalf("mean batch %.2f implausible", rep.MeanBatch)
	}
	if rep.PeakLogical > rep.PeakUsed {
		t.Fatal("logical exceeded used")
	}
}

// TestServeValidatesConfig: each invalid server setting is reported by name
// and value, behind the replica it belongs to in a cluster (whose first two
// replicas override the batch size).
func TestServeValidatesConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg     ServerConfig
		replica int
		want    string
	}{
		{ServerConfig{}, 2, "max batch 0"},
		{ServerConfig{MaxBatch: 2, Aging: -time.Second}, 0, "negative aging -1s"},
		{ServerConfig{MaxBatch: 2, Timeout: -time.Second}, 0, "negative timeout -1s"},
		{ServerConfig{MaxBatch: 2, Shed: true}, 0, "shed needs a timeout to shed against"},
	} {
		_, err := Serve(nil, NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64), tc.cfg)
		if want := "serve: " + tc.want; fmt.Sprint(err) != want {
			t.Errorf("Serve: %v, want %s", err, want)
		}
		cfg := ClusterConfig{Replicas: 3, Server: tc.cfg, Overrides: []ReplicaOverride{{MaxBatch: 2}, {MaxBatch: 2}}}
		_, err = ServeCluster(nil, chunkedFactory(sim.GiB), cfg)
		if want := fmt.Sprintf("serve: replica %d %s", tc.replica, tc.want); fmt.Sprint(err) != want {
			t.Errorf("ServeCluster: %v, want %s", err, want)
		}
	}
}

func TestServeErrorsWhenSingleRequestCannotFit(t *testing.T) {
	reqs := []Request{{ID: 0, PromptLen: 4096, OutputLen: 1}}
	mgr := NewChunkedKV(newServeAlloc(32*sim.MiB), model.OPT13B, 64)
	if _, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4}); err == nil {
		t.Fatal("impossible request served")
	}
}

func TestServeDefersAdmissionUnderPressure(t *testing.T) {
	// A tiny paged pool forces head-of-line waiting but everything
	// eventually completes.
	reqs, _ := GenRequests(12, GenConfig{MinPrompt: 16, MaxPrompt: 32, MinOutput: 8, MaxOutput: 16}, 3)
	alloc := newServeAlloc(sim.GiB)
	mgr, err := NewPagedKV(alloc, model.OPT1_3B, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 12 {
		t.Fatalf("served %d of 12", rep.Served)
	}
	if rep.AdmitFailures == 0 {
		t.Fatal("expected admission pressure on a 12-block pool")
	}
}

func TestServePreemptsInsteadOfFailing(t *testing.T) {
	// Pool sized so concurrent decodes eventually exhaust blocks
	// mid-flight: preemption must kick in and all requests still finish.
	reqs := []Request{
		{ID: 0, PromptLen: 16, OutputLen: 64},
		{ID: 1, PromptLen: 16, OutputLen: 64},
		{ID: 2, PromptLen: 16, OutputLen: 64},
	}
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 3 {
		t.Fatalf("served %d of 3", rep.Served)
	}
	if rep.Preemptions == 0 {
		t.Fatal("expected at least one preemption on a 7-block pool")
	}
}

func TestServeWasteContrastPagedVsContiguous(t *testing.T) {
	reqs, _ := GenRequests(30, GenConfig{MinPrompt: 16, MaxPrompt: 128, MinOutput: 8, MaxOutput: 256}, 11)

	contig := NewContiguousKV(newServeAlloc(16*sim.GiB), model.OPT1_3B, 512)
	repC, err := Serve(reqs, contig, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	paged, err := NewPagedKV(newServeAlloc(16*sim.GiB), model.OPT1_3B, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	repP, err := Serve(reqs, paged, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if repC.MeanWaste < 2*repP.MeanWaste {
		t.Fatalf("contiguous waste %.3f not far above paged %.3f (vLLM's headline effect)",
			repC.MeanWaste, repP.MeanWaste)
	}
	if repP.Utilization() < 0.8 {
		t.Fatalf("paged utilization %.2f too low", repP.Utilization())
	}
}

func TestReportUtilizationEmptyRun(t *testing.T) {
	if (Report{}).Utilization() != 1 {
		t.Fatal("empty report utilization should be 1")
	}
}

// TestServeRandomMixesProperty serves random request mixes on all three
// policies; every run must complete all requests and leave the manager
// empty.
func TestServeRandomMixesProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		mix := GenConfig{
			MinPrompt: 4 + int(seed), MaxPrompt: 64 + 8*int(seed),
			MinOutput: 2, MaxOutput: 48,
		}
		reqs, err := GenRequests(25, mix, seed)
		if err != nil {
			t.Fatal(err)
		}
		mgrs := []CacheManager{
			NewContiguousKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 512),
			NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 32),
		}
		if paged, err := NewPagedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 16, 1024); err == nil {
			mgrs = append(mgrs, paged)
		} else {
			t.Fatal(err)
		}
		for _, mgr := range mgrs {
			rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 6})
			if err != nil {
				t.Fatalf("seed %d %T: %v", seed, mgr, err)
			}
			if rep.Served != len(reqs) {
				t.Fatalf("seed %d %T: served %d/%d", seed, mgr, rep.Served, len(reqs))
			}
			if mgr.UsedBytes() != 0 || mgr.LogicalBytes() != 0 {
				t.Fatalf("seed %d %T: manager not drained", seed, mgr)
			}
			if rep.MeanWaste < 0 || rep.MeanWaste > 1 {
				t.Fatalf("seed %d %T: waste %v", seed, mgr, rep.MeanWaste)
			}
		}
	}
}

// TestSummarizeNearestRankBoundaries pins the exact-integer nearest-rank
// index (rank = ceil(n·pct/100)) at the sample counts where the old float
// formulation leaned on its epsilon: tiny n, n where 0.95·n is not exactly
// representable, and n large enough that a float product's error can cross
// an integer boundary.
func TestSummarizeNearestRankBoundaries(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Microsecond // value = 1-based rank
		}
		return s
	}
	cases := []struct {
		n             int
		p50, p95, p99 int // expected 1-based ranks
	}{
		{1, 1, 1, 1},
		{2, 1, 2, 2},
		{20, 10, 19, 20},
		{100, 50, 95, 99},
		{1000000, 500000, 950000, 990000},
	}
	for _, c := range cases {
		got := summarize(mk(c.n))
		want := LatencySummary{
			P50: time.Duration(c.p50) * time.Microsecond,
			P95: time.Duration(c.p95) * time.Microsecond,
			P99: time.Duration(c.p99) * time.Microsecond,
		}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", c.n, got, want)
		}
	}
}

// TestErrorReportSealedOnImpossibleAdmission: when a request that fits
// nowhere arrives after real work completed, the error-path Report must
// still carry the duration, served counts, class rows and percentiles of
// that completed work.
func TestErrorReportSealedOnImpossibleAdmission(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 4},
		{ID: 1, Class: "ok", PromptLen: 16, OutputLen: 4},
		{ID: 2, Class: "huge", PromptLen: 100000, OutputLen: 4, ArrivalAt: 10 * time.Second},
	}
	mgr := NewChunkedKV(newServeAlloc(sim.GiB/4), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4})
	if err == nil {
		t.Fatal("expected an admission error for the unservable request")
	}
	if rep.Served != 2 || rep.Steps == 0 {
		t.Fatalf("sealed report lost completed work: served %d, steps %d", rep.Served, rep.Steps)
	}
	if rep.Duration <= 0 || rep.MeanBatch <= 0 {
		t.Fatalf("sealed report has zeroed run stats: %+v", rep)
	}
	ok := rep.Class("ok")
	if ok == nil || ok.Served != 2 || ok.TTFT.P99 <= 0 || ok.E2E.P99 <= 0 {
		t.Fatalf("sealed report lost the completed class: %+v", ok)
	}
	if huge := rep.Class("huge"); huge == nil || huge.Served != 0 {
		t.Fatalf("unserved class misreported: %+v", huge)
	}
	if rep.E2E.P50 <= 0 {
		t.Fatal("aggregate percentiles zeroed on the error path")
	}
}

// TestErrorReportSealedOnStuckDecode: a request that admits but cannot
// finish decoding alone (output outgrows the pool with nothing to preempt)
// errors out mid-decode; the sealed report keeps earlier completions and the
// stuck request's TTFT — it produced tokens — while not counting it served.
func TestErrorReportSealedOnStuckDecode(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 4},
		{ID: 1, Class: "doomed", PromptLen: 16, OutputLen: 100000, ArrivalAt: 5 * time.Second},
	}
	mgr := NewChunkedKV(newServeAlloc(sim.GiB/4), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4})
	if err == nil {
		t.Fatal("expected a stuck-mid-decode error")
	}
	if rep.Served != 1 || rep.Duration <= 0 {
		t.Fatalf("sealed report wrong: served %d, duration %v", rep.Served, rep.Duration)
	}
	doomed := rep.Class("doomed")
	if doomed == nil || doomed.Served != 0 {
		t.Fatalf("stuck request misreported: %+v", doomed)
	}
	if doomed.TTFT.P50 <= 0 {
		t.Fatal("stuck request generated tokens; its TTFT sample must be kept")
	}
	if doomed.E2E != (LatencySummary{}) {
		t.Fatal("unfinished request must not contribute an E2E sample")
	}
}

// TestAdmitFailuresCountsDistinctRequests: one head-of-line request blocked
// across many steps is one admission failure, not one per step; the per-step
// view lives in BlockedSteps.
func TestAdmitFailuresCountsDistinctRequests(t *testing.T) {
	// An 8-block pool: the first request's 80-token prompt takes 5 blocks,
	// so the identical second request (5 blocks) blocks until the first
	// completes ~32 steps later.
	reqs := []Request{
		{ID: 0, PromptLen: 80, OutputLen: 32},
		{ID: 1, PromptLen: 80, OutputLen: 32},
	}
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 {
		t.Fatalf("served %d of 2", rep.Served)
	}
	if rep.AdmitFailures != 1 {
		t.Fatalf("AdmitFailures = %d, want 1 distinct blocked request", rep.AdmitFailures)
	}
	if rep.BlockedSteps < 5 {
		t.Fatalf("BlockedSteps = %d, want the multi-step wait visible", rep.BlockedSteps)
	}
}

// TestTTFTPreservedAcrossPreemption: recompute-preemption requeues the whole
// sequence, but the first token already streamed to the client — the TTFT
// recorded at first decode must survive eviction, requeue and re-admission
// untouched. The test drives the server's own loop methods so it can watch
// first-token times step by step and catch sequences waiting in the pending
// set again after having produced tokens.
func TestTTFTPreservedAcrossPreemption(t *testing.T) {
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{
			ID: i, Class: []string{"bulk", "std", "gold"}[i%3], Priority: i % 3,
			PromptLen: 16, OutputLen: 64 + 8*(i%4),
		})
	}
	mgr, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 28)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	s := replicaWith(t, reqs, mgr, ServerConfig{MaxBatch: 8})

	firstSeen := map[*track]time.Duration{}
	requeuedAfterFirst := map[*track]bool{}
	for s.pendingLen() > 0 || len(s.running) > 0 {
		if err := s.runOnce(); err != nil {
			t.Fatal(err)
		}
		// Visit every live track (the server retains no per-request records
		// after completion): the running batch plus both pending indexes.
		seeFirst := func(rec *track) {
			if rec.hasFirst {
				if _, ok := firstSeen[rec]; !ok {
					firstSeen[rec] = rec.firstToken
				}
			}
		}
		for _, a := range s.running {
			seeFirst(a)
		}
		s.ready.Ascend(func(n *container.Node[*track]) bool {
			seeFirst(n.Value)
			return true
		})
		s.future.each(seeFirst)
		// A record with a first token sitting in the pending set again was
		// preempted after it started streaming.
		s.ready.Ascend(func(n *container.Node[*track]) bool {
			if n.Value.hasFirst {
				requeuedAfterFirst[n.Value] = true
			}
			return true
		})
	}
	s.finish()

	if len(requeuedAfterFirst) == 0 {
		t.Fatal("no sequence was preempted after its first token; testbed no longer exercises the invariant")
	}
	for rec, first := range firstSeen {
		if rec.firstToken != first {
			t.Fatalf("request %d: firstToken moved from %v to %v across preemption",
				rec.req.ID, first, rec.firstToken)
		}
	}
	if s.rep.Served != len(reqs) {
		t.Fatalf("served %d of %d", s.rep.Served, len(reqs))
	}
}

// TestReadyOrderAtExtremeRanks fills a server's ready tree with aged ranks
// at both ends of int64, where negating a rank would overflow: the tree
// must hand out the highest rank first, same-rank requests by ticket, with
// aging on (rank Priority·Aging − ArrivalAt) and off (the bare priority).
func TestReadyOrderAtExtremeRanks(t *testing.T) {
	reqs := []Request{
		{ID: 0, Priority: math.MinInt64},
		{ID: 1, Priority: math.MaxInt64},
		{ID: 2, Priority: 0, ArrivalAt: 5},
		{ID: 3, Priority: math.MaxInt64},
		{ID: 4, Priority: math.MinInt64 + 1},
		{ID: 5, Priority: math.MinInt64},
		{ID: 6, Priority: -1},
		{ID: 7, Priority: 0},
	}
	for _, tc := range []struct {
		aging time.Duration
		want  []int
	}{
		{time.Nanosecond, []int{1, 3, 7, 6, 2, 4, 0, 5}}, // request 2 aged to rank −5
		{0, []int{1, 3, 2, 7, 6, 4, 0, 5}},
	} {
		s := newServer(NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64),
			ServerConfig{MaxBatch: 1, Aging: tc.aging})
		var spare container.Spares[track]
		for i := range reqs {
			s.push(newTrack(&spare, &reqs[i], int64(i)), 5)
		}
		var got []int
		for n := s.ready.Min(); n != nil; n = s.ready.Min() {
			got = append(got, n.Value.req.ID)
			s.ready.Delete(n)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("aging %v: ready order %v, want %v", tc.aging, got, tc.want)
		}
	}
}

// TestMaxBatchCappedAtRequests: a replica never runs more sequences than
// the run has requests, so a batch bound far above the request count serves
// exactly what the request count serves, and the server's event and track
// lists are sized by the requests, not by the bound.
func TestMaxBatchCappedAtRequests(t *testing.T) {
	reqs, err := GenRequests(10, GenConfig{MinPrompt: 8, MaxPrompt: 64, MinOutput: 4, MaxOutput: 64}, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxBatch int) Report {
		cfg := ServerConfig{MaxBatch: maxBatch, Timeout: time.Hour}
		rep, err := Serve(reqs, NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if got, want := run(1<<20), run(10); !reflect.DeepEqual(got, want) {
		t.Errorf("MaxBatch 1<<20 report %+v,\nMaxBatch 10 report %+v", got, want)
	}
	s := replicaWith(t, reqs, NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64),
		ServerConfig{MaxBatch: 1 << 20, Timeout: time.Hour})
	for name, c := range map[string]int{"events": cap(s.events), "deadlines": cap(s.deadlines),
		"due": cap(s.due), "ending": cap(s.ending)} {
		if c > 2*len(reqs) {
			t.Errorf("%s capacity %d for %d requests", name, c, len(reqs))
		}
	}
}

// TestRecordSizes pins the two records the serving loop moves most: a
// request's track, one per request in flight (144 bytes, a Go size class of
// its own), and a batch index entry, copied on every filing. Outgrowing
// either shows up in the benchmark's bytes_per_item and ns_per_item.
func TestRecordSizes(t *testing.T) {
	if size := unsafe.Sizeof(track{}); size > 144 {
		t.Errorf("track is %d bytes, budget 144", size)
	}
	if size := unsafe.Sizeof(batchEvent{}); size != 16 {
		t.Errorf("batchEvent is %d bytes, want 16", size)
	}
}
