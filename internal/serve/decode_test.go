package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/sim"
)

// The reference loop's observations: the token-steps it summed step by step,
// how often a sequence yielded its own slot, each admission's tokens still to
// decode, counted down one Append at a time, and the servers it stepped.
var (
	refTokenSteps, refYields int64
	refRemaining             map[*track]refAdmission
	refServers               []*server
)

// refAdmission tells one admission of a track from another by the server
// it is on and its admission order there.
type refAdmission struct {
	on        *server
	order     int64
	remaining int
}

// refStep is the single-step decode loop the event-driven step replaced,
// kept as its oracle: every running sequence appends one token per step
// through CacheManager.Append, in batch order, preempting when an Append hits
// the memory wall, and the end of the step scans the whole batch for first
// tokens, completions and deadline misses. It shares admission, eviction and
// completion with the server; it owns nothing of the event index.
func (s *server) refStep(prefillTokens int64) error {
	if !slices.Contains(refServers, s) {
		refServers = append(refServers, s)
	}
	s.rep.Steps++
	s.batchSum += int64(len(s.running))

	for _, a := range append([]*track(nil), s.running...) {
		if a.handle == 0 {
			continue // evicted earlier in the step
		}
		if r := refRemaining[a]; r.on != s || r.order != a.admitOrder {
			refRemaining[a] = refAdmission{s, a.admitOrder, a.req.OutputLen}
		}
		err := s.mgr.Append(a.handle)
		for err != nil {
			if !s.preemptFor(a) {
				if len(s.running) == 1 {
					return fmt.Errorf("serve: request %d stuck mid-decode: %w", a.req.ID, err)
				}
				refYields++
				s.evict(a)
				break
			}
			err = s.mgr.Append(a.handle)
		}
		if a.handle != 0 {
			r := refRemaining[a]
			r.remaining--
			refRemaining[a] = r
		}
	}
	s.tick++
	s.now += stepTime + time.Duration(prefillTokens)*prefillTokenTime

	if u := s.mgr.UsedBytes(); u > s.rep.PeakUsed {
		s.rep.PeakUsed = u
	}
	if l := s.mgr.LogicalBytes(); l > s.rep.PeakLogical {
		s.rep.PeakLogical = l
	}
	s.wasteSum += WasteRatio(s.mgr)

	for i := len(s.running) - 1; i >= 0; i-- {
		a := s.running[i]
		if !a.hasFirst {
			a.hasFirst, a.firstToken = true, s.now
		}
		remaining := refRemaining[a].remaining
		refTokenSteps += int64(a.req.PromptLen + a.req.OutputLen - remaining)
		switch {
		case remaining == 0:
			s.complete(a)
		case s.cfg.Timeout > 0 && s.now > s.deadline(a):
			s.rep.DeadlineMisses++
			s.leave(a)
			s.drop(a)
		}
	}
	return nil
}

// withReference runs f with the reference loop in place of the event-driven
// step.
func withReference(f func()) {
	decode = (*server).refStep
	defer func() { decode = (*server).step }()
	refTokenSteps, refYields, refRemaining, refServers = 0, 0, map[*track]refAdmission{}, nil
	f()
}

// refSettled is the token-steps the servers the reference loop stepped
// settled in closed form; a server that never stepped settled none.
func refSettled() (n int64) {
	for _, s := range refServers {
		n += s.totalTokenSteps
	}
	return n
}

// callLog folds every allocator call of a run, with its size, and every
// completion into one hash: the event-driven step must make the reference's
// calls in the reference's order.
type callLog uint64

func (l *callLog) add(op byte, n int64) {
	*l = (*l ^ callLog(op)) * 1099511628211
	*l = (*l ^ callLog(n)) * 1099511628211
}

// loggedAlloc records its allocator's calls in log.
type loggedAlloc struct {
	memalloc.Allocator
	log *callLog
}

func (a loggedAlloc) Alloc(size int64) (*memalloc.Buffer, error) {
	a.log.add('a', size)
	return a.Allocator.Alloc(size)
}

func (a loggedAlloc) Free(b *memalloc.Buffer) {
	a.log.add('f', b.BlockSize)
	a.Allocator.Free(b)
}

// decodeRigs are the managers the oracle is compared over: the three
// policies, each over the caching allocator and over GMLake, recording
// their allocator calls in a log.
func decodeRigs() []struct {
	name string
	mk   func(capacity int64, log *callLog) CacheManager
} {
	perToken := KVBytesPerToken(model.OPT1_3B)
	allocs := []struct {
		name string
		mk   func(*cuda.Driver) memalloc.Allocator
	}{
		{"caching", func(d *cuda.Driver) memalloc.Allocator { return caching.New(d) }},
		{"gmlake", func(d *cuda.Driver) memalloc.Allocator { return core.NewDefault(d) }},
	}
	policies := []struct {
		name string
		mk   func(a memalloc.Allocator, capacity int64) CacheManager
	}{
		{"contiguous", func(a memalloc.Allocator, _ int64) CacheManager { return NewContiguousKV(a, model.OPT1_3B, 256) }},
		{"paged", func(a memalloc.Allocator, capacity int64) CacheManager {
			p, err := NewPagedKV(a, model.OPT1_3B, 16, int(capacity/(16*perToken))*3/4)
			if err != nil {
				panic(err)
			}
			return p
		}},
		{"chunked", func(a memalloc.Allocator, _ int64) CacheManager { return NewChunkedKV(a, model.OPT1_3B, 64) }},
	}
	var rigs []struct {
		name string
		mk   func(capacity int64, log *callLog) CacheManager
	}
	for _, p := range policies {
		for _, al := range allocs {
			rigs = append(rigs, struct {
				name string
				mk   func(capacity int64, log *callLog) CacheManager
			}{p.name + "-" + al.name, func(capacity int64, log *callLog) CacheManager {
				d := cuda.NewDriver(gpu.NewDevice("t", capacity), sim.NewClock(), sim.DefaultCostModel())
				return p.mk(loggedAlloc{al.mk(d), log}, capacity)
			}})
		}
	}
	return rigs
}

// TestEventDecodeMatchesReference: Serve and ServeCluster with the
// event-driven step return the very Report and ClusterReport — every float
// included — and the very error that the single-step reference loop does,
// after the very allocator calls and completions in the very order,
// over the three policies on the caching allocator and on GMLake, on pools
// tight enough to preempt, yield and fail stuck, and over every
// configuration of the cluster golden matrix (aging, timeouts with
// shedding, prefix reuse, crashes, steals, elastic fleets). The token-steps
// the server settles in closed form equal what the reference summed step by
// step.
func TestEventDecodeMatchesReference(t *testing.T) {
	pools := []int64{sim.GiB / 8, 8 * sim.GiB}
	streams := append(clusterGoldenStreams(), goldenStream{"stuck", []Request{
		{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 40},
		{ID: 1, Class: "long", PromptLen: 600, OutputLen: 200, ArrivalAt: time.Second},
	}})
	servers := []ServerConfig{
		{MaxBatch: 4},
		{MaxBatch: 6, Aging: time.Second},
		{MaxBatch: 5, Timeout: 3 * time.Second, Shed: true},
		{MaxBatch: 4, PrefixReuse: true, Timeout: 8 * time.Second},
	}
	var seen struct{ preempt, yield, stuck, missed, shed, hit, crash, steal, spawn bool }
	note := func(rep Report, err error) {
		seen.preempt = seen.preempt || rep.Preemptions > 0
		seen.stuck = seen.stuck || err != nil && strings.Contains(err.Error(), "stuck mid-decode")
		seen.missed = seen.missed || rep.DeadlineMisses > 0
		seen.shed = seen.shed || rep.Shed > 0
		seen.hit = seen.hit || rep.PrefixHits > 0
		seen.crash = seen.crash || rep.Crashes > 0
	}
	var gotLog, wantLog callLog
	logged := func(cfg ServerConfig, log *callLog) ServerConfig {
		cfg.OnComplete = func(r Request) { log.add('c', int64(r.ID)) }
		return cfg
	}
	check := func(cell string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if gotLog != wantLog {
			t.Errorf("%s: allocator calls or completions differ from the reference's", cell)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, reference %v", cell, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report differs from the reference\n got %+v\nwant %+v", cell, got, want)
		}
		if settled := refSettled(); settled != refTokenSteps {
			t.Errorf("%s: %d token-steps settled, the reference summed %d", cell, settled, refTokenSteps)
		}
		seen.yield = seen.yield || refYields > 0
	}

	for _, rig := range decodeRigs() {
		for _, pool := range pools {
			for _, st := range streams {
				for i, cfg := range servers {
					cell := fmt.Sprintf("%s/%d MiB/%s/serve-%d", rig.name, pool/sim.MiB, st.name, i)
					gotLog, wantLog = 0, 0
					got, gotErr := Serve(st.reqs, rig.mk(pool, &gotLog), logged(cfg, &gotLog))
					var want Report
					var wantErr error
					withReference(func() {
						want, wantErr = Serve(st.reqs, rig.mk(pool, &wantLog), logged(cfg, &wantLog))
					})
					check(cell, got, want, gotErr, wantErr)
					note(got, gotErr)
				}
				for _, c := range clusterGoldenConfigs() {
					cell := fmt.Sprintf("%s/%d MiB/%s/%s", rig.name, pool/sim.MiB, st.name, c.name)
					gotLog, wantLog = 0, 0
					run := func(log *callLog) ClusterConfig {
						cfg := c.cfg
						cfg.Server = logged(cfg.Server, log)
						return cfg
					}
					got, gotErr := ServeCluster(st.reqs, func(int) CacheManager { return rig.mk(pool, &gotLog) }, run(&gotLog))
					var want ClusterReport
					var wantErr error
					withReference(func() {
						want, wantErr = ServeCluster(st.reqs, func(int) CacheManager { return rig.mk(pool, &wantLog) }, run(&wantLog))
					})
					check(cell, got, want, gotErr, wantErr)
					note(got.Report, gotErr)
					for _, n := range got.Stolen {
						seen.steal = seen.steal || n > 0
					}
					seen.spawn = seen.spawn || got.Spawns > 0
				}
			}
		}
	}
	if !(seen.preempt && seen.yield && seen.stuck && seen.missed && seen.shed && seen.hit && seen.crash && seen.steal && seen.spawn) {
		t.Errorf("the matrix no longer reaches every path: %+v", seen)
	}
}

// countingKV counts what a server asks of its cache manager: every call, and
// among them the successful admissions and the calls that store or reserve
// tokens — split into those that grew storage and those that failed.
type countingKV struct {
	CacheManager
	calls, admits, stores, grows, fails int
}

func (c *countingKV) Admit(r Request) (SeqHandle, error) {
	c.calls++
	h, err := c.CacheManager.Admit(r)
	if err == nil {
		c.admits++
	}
	return h, err
}

func (c *countingKV) Append(h SeqHandle) error {
	c.calls++
	c.stores++
	return c.CacheManager.Append(h)
}

func (c *countingKV) Reserve(h SeqHandle) (int, error) {
	c.calls++
	c.stores++
	used := c.CacheManager.UsedBytes()
	room, err := c.CacheManager.Reserve(h)
	switch {
	case err != nil:
		c.fails++
	case c.CacheManager.UsedBytes() > used:
		c.grows++
	}
	return room, err
}

func (c *countingKV) Decode()             { c.calls++; c.CacheManager.Decode() }
func (c *countingKV) Release(h SeqHandle) { c.calls++; c.CacheManager.Release(h) }
func (c *countingKV) UsedBytes() int64    { c.calls++; return c.CacheManager.UsedBytes() }
func (c *countingKV) LogicalBytes() int64 { c.calls++; return c.CacheManager.LogicalBytes() }

// TestManagerCallsScaleWithEvents: over a Serve run that preempts, the calls
// that store or reserve tokens are at most one per admission, one per chunk
// boundary and one per preemption retry — far below one per output token,
// which is what the server used to pay.
func TestManagerCallsScaleWithEvents(t *testing.T) {
	var reqs []Request
	tokens := 0
	for i := 0; i < 120; i++ {
		r := Request{ID: i, Priority: i % 2, PromptLen: 32 + (i*37)%64, OutputLen: 100 + (i*53)%200,
			ArrivalAt: time.Duration(i) * 50 * time.Millisecond}
		tokens += r.OutputLen
		reqs = append(reqs, r)
	}
	kv := &countingKV{CacheManager: NewChunkedKV(newServeAlloc(sim.GiB/2), model.OPT1_3B, 64)}
	rep, err := Serve(reqs, kv, ServerConfig{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != len(reqs) || rep.Preemptions == 0 {
		t.Fatalf("served %d of %d with %d preemptions; the pool no longer preempts", rep.Served, len(reqs), rep.Preemptions)
	}
	if bound := kv.admits + kv.grows + kv.fails; kv.stores > bound {
		t.Errorf("%d store/reserve calls, above %d admissions + %d chunk boundaries + %d preemption retries",
			kv.stores, kv.admits, kv.grows, kv.fails)
	}
	if kv.stores*10 > tokens {
		t.Errorf("%d store/reserve calls for %d output tokens", kv.stores, tokens)
	}
}

// TestStepWithoutEventsIsConstant: once a full batch has reserved its first
// chunk, a step in which no sequence reaches a boundary, completes or misses
// a deadline makes the same few manager calls whatever the batch size.
func TestStepWithoutEventsIsConstant(t *testing.T) {
	for _, batch := range []int{1, 8, 64} {
		reqs := make([]Request, batch)
		for i := range reqs {
			reqs[i] = Request{ID: i, PromptLen: 16 + i, OutputLen: 400}
		}
		kv := &countingKV{CacheManager: NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 512)}
		s := replicaWith(t, reqs, kv, ServerConfig{MaxBatch: batch})
		for step := 0; step < 300; step++ {
			before, stores := kv.calls, kv.stores
			prefill, err := s.admit()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.step(prefill); err != nil {
				t.Fatal(err)
			}
			if step == 0 {
				continue // admissions and first reservations
			}
			if got := kv.calls - before; got > 5 || kv.stores != stores {
				t.Fatalf("batch %d, step %d: %d manager calls, %d of them storing", batch, step, got, kv.stores-stores)
			}
		}
		if len(s.running) != batch {
			t.Fatalf("batch %d: %d still running", batch, len(s.running))
		}
	}
}

// TestServeRejectsNonPositiveTokens: both entry points reject a request with
// nothing to prefill or nothing to decode before serving anything. A
// negative output length used to decode until the pool ran out and fail as
// "stuck mid-decode"; a zero one was counted as served, with a TTFT for a
// token it never generated.
func TestServeRejectsNonPositiveTokens(t *testing.T) {
	for _, tc := range []struct {
		bad  Request
		want string
	}{
		{Request{ID: 3, PromptLen: 16, OutputLen: -1}, "serve: request 3 has -1 output tokens"},
		{Request{ID: 3, PromptLen: 16, OutputLen: 0}, "serve: request 3 has 0 output tokens"},
		{Request{ID: 3, PromptLen: 0, OutputLen: 8}, "serve: request 3 has 0 prompt tokens"},
	} {
		reqs := append(mixedStream(3), tc.bad)
		_, err := Serve(reqs, NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64), ServerConfig{MaxBatch: 4})
		if fmt.Sprint(err) != tc.want {
			t.Errorf("Serve: %v, want %s", err, tc.want)
		}
		_, err = ServeCluster(reqs, chunkedFactory(sim.GiB), ClusterConfig{Replicas: 2, Server: ServerConfig{MaxBatch: 4}})
		if fmt.Sprint(err) != tc.want {
			t.Errorf("ServeCluster: %v, want %s", err, tc.want)
		}
	}
}

// TestServeRejectsOversizedRequests: a prompt or an output past
// MaxRequestTokens is refused before anything is served, under every
// manager. A MaxInt prompt used to wrap TotalTokens negative, so contiguous
// admitted it and stepped forever, paged's block count wrapped into a slice
// panic and chunked asked its allocator for a negative size.
func TestServeRejectsOversizedRequests(t *testing.T) {
	managers := []struct {
		name string
		mk   func() CacheManager
	}{
		{"contiguous", func() CacheManager { return NewContiguousKV(newServeAlloc(sim.GiB), model.OPT1_3B, 512) }},
		{"paged", func() CacheManager {
			p, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"chunked", func() CacheManager { return NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64) }},
	}
	for _, bad := range []Request{
		{ID: 3, PromptLen: math.MaxInt, OutputLen: 4},
		{ID: 3, PromptLen: 10, OutputLen: math.MaxInt},
	} {
		want := fmt.Sprintf("serve: request 3 has %d prompt and %d output tokens, past the bound of %d each",
			bad.PromptLen, bad.OutputLen, MaxRequestTokens)
		for _, m := range managers {
			_, err := Serve(append(mixedStream(3), bad), m.mk(), ServerConfig{MaxBatch: 4})
			if fmt.Sprint(err) != want {
				t.Errorf("%s: %v, want %s", m.name, err, want)
			}
		}
	}
	if _, err := arrivalOrder([]Request{{PromptLen: MaxRequestTokens, OutputLen: MaxRequestTokens}}, 0); err != nil {
		t.Errorf("a request at the bound: %v", err)
	}
}

// TestAgedRankBound: under aging a request's rank is Priority·Aging −
// ArrivalAt, so a priority whose product overflows int64 used to wrap and be
// served last. A priority at the bound keeps its place at the front; one
// past it, on either side, is refused. Without aging nothing is refused.
func TestAgedRankBound(t *testing.T) {
	const aging = time.Second
	top := math.MaxInt64 / int(aging)
	stream := func(priority int) []Request {
		return []Request{
			{ID: 0, Class: "low", PromptLen: 100, OutputLen: 50},
			{ID: 1, Class: "low", PromptLen: 100, OutputLen: 50},
			{ID: 2, Class: "high", Priority: priority, PromptLen: 100, OutputLen: 50},
		}
	}
	run := func(reqs []Request, aging time.Duration) (Report, error) {
		return Serve(reqs, NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64), ServerConfig{MaxBatch: 1, Aging: aging})
	}
	rep, err := run(stream(top), aging)
	if err != nil {
		t.Fatal(err)
	}
	if high, low := rep.Class("high").TTFT.P99, rep.Class("low").TTFT.P50; high >= low {
		t.Errorf("priority %d at the bound: TTFT %v, not before the low class's %v", top, high, low)
	}
	for _, p := range []int{top + 1, -top - 1, math.MinInt} {
		want := fmt.Sprintf("serve: request 2 priority %d overflows its aged rank under aging 1s", p)
		if _, err := run(stream(p), aging); fmt.Sprint(err) != want {
			t.Errorf("priority %d: %v, want %s", p, err, want)
		}
		if _, err := run(stream(p), 0); err != nil {
			t.Errorf("priority %d without aging: %v", p, err)
		}
	}
	if _, err := arrivalOrder([]Request{{Priority: -top, PromptLen: 1, OutputLen: 1}}, aging); err != nil {
		t.Errorf("priority %d at the bound: %v", -top, err)
	}
}
