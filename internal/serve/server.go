package serve

import (
	"fmt"
	"time"

	"repro/internal/container"
)

// Default step costs. Latency is simulated, not measured: one decode step
// across the batch costs StepTime, and every prompt token prefilled in a
// step adds PrefillTokenTime — A100-class magnitudes, enough to turn
// queueing and preemption into TTFT/E2E differences.
const (
	DefaultStepTime         = 30 * time.Millisecond
	DefaultPrefillTokenTime = 100 * time.Microsecond
)

// ServerConfig tunes the continuous-batching loop.
type ServerConfig struct {
	// MaxBatch caps concurrently decoding sequences.
	MaxBatch int

	// StepTime is the simulated duration of one decode step across the
	// batch (0 = DefaultStepTime).
	StepTime time.Duration

	// PrefillTokenTime is the simulated cost per prompt token prefilled
	// during a step (0 = DefaultPrefillTokenTime).
	PrefillTokenTime time.Duration

	// Aging is the priority-aging rate: a waiting request's effective
	// priority rises by one full priority level per Aging of queue wait,
	// so under a permanent high-priority overload a batch-class request
	// eventually outranks freshly arrived interactive ones instead of
	// starving. 0 disables aging (pure static priority, the original
	// behaviour). See (*server).rank for why aging keeps the O(log n)
	// queue indexes.
	Aging time.Duration

	// Timeout is the per-request completion deadline, measured from the
	// request's arrival: a request whose last token has not streamed by
	// ArrivalAt+Timeout has missed its SLO. The deadline is absolute — it
	// does not reset on preemption or crash re-dispatch. Expired requests
	// are aborted lazily (a queued one when admission next considers it, a
	// decoding one at the end of the step that crossed its deadline) and
	// counted in Report.DeadlineMisses; completions past the deadline
	// still count as Served but not as Goodput. 0 disables deadlines:
	// every completion is goodput.
	Timeout time.Duration

	// Shed enables deadline-aware admission shedding (requires Timeout):
	// when admission considers a request whose remaining slack cannot
	// cover even its minimum service time — PrefillTokenTime·PromptLen +
	// StepTime·OutputLen, the cost of running it alone on an idle server —
	// the request is rejected up front (Report.Shed) instead of burning
	// decode steps on a provably missed deadline. Graceful degradation
	// under overload: survivors' goodput rises because doomed requests
	// stop competing for the batch.
	Shed bool

	// OnComplete, when non-nil, is invoked once per request at the virtual
	// instant its last token is generated — the capture hook
	// internal/reqtrace uses to record a served workload back into a
	// request trace. In a cluster every replica inherits the same hook, so
	// the callback must not assume any cross-replica completion order
	// (reqtrace canonicalizes by sorting on arrival). It must not mutate
	// the server.
	OnComplete func(Request)

	// ExactSamples is the exact-retention threshold of every latency digest
	// (aggregate and per-class TTFT/E2E): up to this many raw samples are
	// retained and summarized by the exact nearest-rank rule; one more and
	// the digest spills into a fixed-size mergeable quantile sketch
	// (internal/quantile, 1% relative error), keeping memory flat however
	// long the run. 0 means DefaultExactSamples — large enough that the
	// existing experiment tables stay byte-identical — and a negative value
	// sketches from the first sample.
	ExactSamples int

	// PrefixReuse enables session KV prefix reuse: the server remembers,
	// per SessionID, the context tokens (prompt+output) of the session's
	// last completed turn and lets a follow-up turn whose prompt embeds
	// that context skip that many prompt tokens of prefill — its TTFT
	// drops by exactly the skipped prefill time. Residency is invalidated
	// by recompute-preemption, deadline aborts and sheds of the session's
	// sequence, and cleared wholesale by a crash. The reuse is a compute
	// model only: KV memory is still allocated for the full sequence, so
	// the fragmentation story is untouched. Off (the default) reproduces
	// the session-unaware server exactly, whatever the requests carry.
	PrefixReuse bool
}

// track is the one record of an input request, from the moment it first
// arrives at a server — promoted out of Serve's input cursor, or dispatched
// by the cluster scheduler — to its completion, across every preemption,
// steal and crash re-dispatch in between. Whoever holds the request holds
// this record: a server's future queue, ready index or batch, or the
// cluster's re-dispatch pool; nothing else keeps per-request state.
type track struct {
	// req points into the run's input slice, which Serve and ServeCluster
	// read in place and never write.
	req *Request
	// seq is the FIFO ticket that orders the request against same-rank peers
	// while it waits. A requeued (preempted) request draws a fresh one,
	// putting it behind everything already waiting — exactly the position an
	// append to a pending slice would give it.
	seq int64
	// node links the request into the index of the state it is in — a
	// server's ready tree while it waits, its victim tree while it decodes,
	// never both — embedded, so neither queueing nor admission allocates
	// however often the request is preempted, stolen or re-dispatched.
	node       container.Node[*track]
	firstToken time.Duration
	hasFirst   bool
	// done is the completion time on the virtual clock; it doubles as the
	// completion marker (zero = still unfinished) because completions are
	// recorded strictly after the clock advanced past the first step.
	done time.Duration
	// deferred marks that the request's admission was blocked at least
	// once, so AdmitFailures counts distinct requests, not blocked steps.
	deferred bool
	// retries counts the crash retries granted to the request.
	retries int

	// The state of the current admission, reset by admit: the sequence's KV
	// handle, its output tokens still to decode, its place in the admission
	// order and its class record, cached so the per-step token accounting
	// skips the map.
	handle     SeqHandle
	remaining  int
	admitOrder int64
	cls        *classAgg
	// evicted marks a sequence preempted during the current decode step so
	// the step loop never touches it again.
	evicted bool
}

// newTrack opens the record of req, waiting under ticket seq.
func newTrack(req *Request, seq int64) *track {
	t := &track{req: req, seq: seq}
	t.node.Value = t
	return t
}

func (t *track) class() string {
	if t.req.Class == "" {
		return "default"
	}
	return t.req.Class
}

// server is the continuous-batching loop with its indexed queues. The
// pending set is split by arrival: `future` is a flat cursor over
// not-yet-arrived requests in (ArrivalAt, ticket) order — for Serve, over
// the caller's slice itself (see arrivalQueue) — so promotion and the
// idle-jump are O(1) peeks, and `ready` is a tree
// ordering arrived-unadmitted requests by (aged rank desc, ticket asc)
// — the aged rank is the static priority when aging is off — so the
// admission candidate is its minimum. The running batch keeps a
// slice for deterministic step order plus `victims`, a tree ordered by
// (aged rank asc, admitOrder desc) whose minimum is the preemption victim.
// Queues, trees and batch all hold the requests' tracks themselves.
type server struct {
	mgr CacheManager
	cfg ServerConfig // step costs resolved to their defaults

	now time.Duration
	rep Report
	tally

	future  arrivalQueue
	ready   *container.Tree[*track]
	nextTkt int64

	running  []*track
	victims  *container.Tree[*track]
	admitSeq int64
	// batchScratch is step's reusable snapshot buffer of the running
	// batch — one live allocation instead of one per decode step.
	batchScratch []*track

	// doneTokens is the total tokens (prompt+output) of completed
	// requests — the cluster dispatcher's O(1) source for outstanding
	// KV demand (dispatched tokens − doneTokens).
	doneTokens int64

	// resident maps a SessionID to the context tokens (prompt+output) of
	// its last completed turn; nil when cfg.PrefixReuse is off. Point
	// lookups and deletes only — the map is never ranged, so it stays
	// outside every report-ordering path.
	resident map[string]int
}

// rank is a request's effective scheduling priority with aging applied,
// encoded as a static per-request key. Without aging it is the bare
// priority. With aging the effective priority at time t is
//
//	Priority + (t − ArrivalAt)/Aging
//
// — continuous aging, one full priority level gained per Aging of wait.
// Because every request ages at the same rate, the order of two effective
// priorities is time-invariant:
//
//	pa + (t−aa)/G > pb + (t−ab)/G  ⇔  pa·G − aa > pb·G − ab
//
// and the right-hand side does not mention t. The aged order is therefore a
// fixed per-request integer, and the same O(log n) tree indexes that serve
// static priorities serve aged ones — no re-keying as the clock advances.
// A requeued (preempted) request keeps its original ArrivalAt, so its age
// keeps counting from first arrival across preemptions.
func (s *server) rank(rec *track) int64 {
	if s.cfg.Aging <= 0 {
		return int64(rec.req.Priority)
	}
	return int64(rec.req.Priority)*int64(s.cfg.Aging) - int64(rec.req.ArrivalAt)
}

// victimLess is the preemption order: lowest aged rank first, then most
// recently admitted. It doubles as the eligibility rule — v may be evicted
// in favour of keep iff victimLess(v, keep) — so the tree minimum is both
// the candidate and the proof: if even the minimum is not below keep,
// nothing in the batch is evictable for it. Higher-ranked sequences are
// never evicted (the SLO guarantee, aging included), and same-rank older
// ones are off limits so the oldest sequence of the top rank always makes
// monotonic progress — without that rule two sequences that cannot coexist
// in memory preempt each other forever, each eviction resetting the other's
// decode. Ranks are static (see rank), so the unevictable maximum is fixed
// and the argument survives aging unchanged.
func (s *server) victimLess(a, b *track) bool {
	if ra, rb := s.rank(a), s.rank(b); ra != rb {
		return ra < rb
	}
	return a.admitOrder > b.admitOrder
}

// validate checks one server configuration. where names the replica in a
// cluster's pre-flight ("replica 2 ") and is empty for a single server.
func (cfg ServerConfig) validate(where string) error {
	if cfg.MaxBatch <= 0 {
		return fmt.Errorf("serve: %smax batch %d", where, cfg.MaxBatch)
	}
	if cfg.StepTime < 0 || cfg.PrefillTokenTime < 0 || cfg.Aging < 0 || cfg.Timeout < 0 {
		return fmt.Errorf("serve: %snegative durations in config %+v", where, cfg)
	}
	if cfg.Shed && cfg.Timeout == 0 {
		return fmt.Errorf("serve: shed needs a timeout to shed against")
	}
	return nil
}

// newEmptyServer builds the loop with nothing pending; the cluster scheduler
// places requests one by one.
func newEmptyServer(mgr CacheManager, cfg ServerConfig) (*server, error) {
	if err := cfg.validate(""); err != nil {
		return nil, err
	}
	if cfg.StepTime == 0 {
		cfg.StepTime = DefaultStepTime
	}
	if cfg.PrefillTokenTime == 0 {
		cfg.PrefillTokenTime = DefaultPrefillTokenTime
	}
	s := &server{mgr: mgr, cfg: cfg, tally: newTally(resolveExactSamples(cfg.ExactSamples))}
	s.ready = container.NewTree[*track](func(a, b *track) bool {
		if ra, rb := s.rank(a), s.rank(b); ra != rb {
			return ra > rb
		}
		return a.seq < b.seq
	})
	s.victims = container.NewTree[*track](s.victimLess)
	if cfg.PrefixReuse {
		s.resident = map[string]int{}
	}
	return s, nil
}

// newServer builds the loop over Serve's input, which it reads in place:
// the whole stream is `future`, ticketed by input index, and nothing is
// allocated per request until it arrives. Requeued preemptions draw their
// tickets above the input's.
func newServer(reqs []Request, mgr CacheManager, cfg ServerConfig) (*server, error) {
	s, err := newEmptyServer(mgr, cfg)
	if err != nil {
		return nil, err
	}
	s.future.input = newInputCursor(reqs)
	s.nextTkt = int64(len(reqs))
	return s, nil
}

// ticket draws a fresh FIFO ticket: behind everything already waiting here.
func (s *server) ticket() int64 {
	s.nextTkt++
	return s.nextTkt - 1
}

// push is the only way into the pending set for a request that has a track:
// rec joins `future` or `ready` by its arrival time, under the FIFO ticket
// it carries — a fresh one (ticket) for requeued work, the input position for
// a cluster dispatch (the scheduler reserves [0, n) before the run, so a
// single-replica cluster replays Serve's ticket order whatever order the
// input arrived in), the old one for a queued request that merely moved.
// at is the cluster instant of a hand-over — a steal or a re-dispatch — and
// the receiver's clock advances to it, since before it the request was
// queued elsewhere. An arrival-time dispatch passes 0 and leaves the clock
// alone: a request dispatched to an idle server ahead of that server's
// clock waits in `future`, invisible to stealing until the server gets there.
func (s *server) push(rec *track, at time.Duration) {
	if at > s.now {
		s.now = at
	}
	if rec.req.ArrivalAt > s.now {
		s.future.push(rec)
	} else {
		s.ready.InsertNode(&rec.node)
	}
}

// promoteArrivals moves every request whose arrival time has passed from
// the future queue into the ready index, keeping its ticket.
func (s *server) promoteArrivals() {
	for {
		at, ok := s.future.peek()
		if !ok || at > s.now {
			return
		}
		s.ready.InsertNode(&s.future.popMin().node)
	}
}

// pendingLen is the size of the whole pending set.
func (s *server) pendingLen() int { return s.future.len() + s.ready.Len() }

// deadline is rec's absolute completion deadline; meaningful only when a
// timeout is configured.
func (s *server) deadline(rec *track) time.Duration {
	return rec.req.ArrivalAt + s.cfg.Timeout
}

// minServiceTime is the provable floor on rec's remaining service: the cost
// of prefilling its prompt and decoding every output token alone on an idle
// server. Queueing, batching and preemption only add to it.
func (s *server) minServiceTime(rec *track) time.Duration {
	return time.Duration(rec.req.PromptLen)*s.cfg.PrefillTokenTime + time.Duration(rec.req.OutputLen)*s.cfg.StepTime
}

// drop removes a request that will never be served (expired or shed) from
// the run's outstanding work: its tokens count as done so a cluster
// dispatcher's outstanding-KV gauge (dispatched − done) drains to zero, and
// it joins the class roster — with its TTFT, if it ever streamed a first
// token — exactly like any other unfinished request.
func (s *server) drop(rec *track) {
	s.doneTokens += int64(rec.req.TotalTokens())
	s.invalidateResident(rec.req.SessionID)
	s.recordUnfinished(rec)
}

// admit fills the batch with arrived requests while memory lasts: highest
// priority first, FIFO within a priority. With a timeout configured, each
// candidate is first checked against its deadline — already expired ones
// are aborted, and with shedding on, ones whose remaining slack cannot
// cover their minimum service time are rejected — so a doomed request
// never occupies a batch slot. It returns the prompt tokens prefilled by
// the admissions for this step's cost, and an error when a request cannot
// fit even on an idle server.
func (s *server) admit() (prefillTokens int64, err error) {
	s.promoteArrivals()
	for len(s.running) < s.cfg.MaxBatch {
		n := s.ready.Min()
		if n == nil {
			break
		}
		rec := n.Value
		if s.cfg.Timeout > 0 {
			if s.now > s.deadline(rec) {
				s.ready.Delete(n)
				s.rep.DeadlineMisses++
				s.drop(rec)
				continue
			}
			if s.cfg.Shed && s.now+s.minServiceTime(rec) > s.deadline(rec) {
				s.ready.Delete(n)
				s.rep.Shed++
				s.drop(rec)
				continue
			}
		}
		h, err := s.mgr.Admit(*rec.req)
		if err != nil {
			s.rep.BlockedSteps++
			if !rec.deferred {
				rec.deferred = true
				s.rep.AdmitFailures++
			}
			if len(s.running) == 0 {
				return prefillTokens, fmt.Errorf("serve: request %d does not fit even alone: %w", rec.req.ID, err)
			}
			break // head-of-line waits for capacity
		}
		s.ready.Delete(n)
		s.admitSeq++
		rec.handle, rec.remaining, rec.admitOrder, rec.evicted = h, rec.req.OutputLen, s.admitSeq, false
		rec.cls = s.class(rec.class())
		s.victims.InsertNode(&rec.node)
		s.running = append(s.running, rec)
		prefillTokens += s.prefillNeed(*rec.req)
	}
	return prefillTokens, nil
}

// prefillNeed is the prompt tokens req must actually prefill at admission:
// its full prompt, minus the session prefix still resident when reuse is
// on. Hit/miss/reused accounting happens here, at the admission that
// consumed (or missed) the residency; a request re-admitted after a
// recompute-preemption prefills in full again, because evict invalidated
// its session's entry along with the KV.
func (s *server) prefillNeed(req Request) int64 {
	need := int64(req.PromptLen)
	if !s.cfg.PrefixReuse || req.SessionID == "" {
		return need
	}
	if res := int64(s.resident[req.SessionID]); res > 0 {
		reused := res
		if reused > need {
			reused = need
		}
		s.rep.PrefixHits++
		s.rep.ReusedTokens += reused
		return need - reused
	}
	if req.Turn > 0 {
		s.rep.PrefixMisses++
	}
	return need
}

// invalidateResident drops sid's session residency: recompute-preemption,
// deadline aborts and sheds throw the shared prefix away, so the session's
// next turn prefills in full.
func (s *server) invalidateResident(sid string) {
	if s.cfg.PrefixReuse && sid != "" {
		delete(s.resident, sid)
	}
}

// hasResident reports whether sid's prefix is resident on this server —
// the cluster's session-affinity probe. Safe on a reuse-off server (the
// nil map never holds anything).
func (s *server) hasResident(sid string) bool {
	_, ok := s.resident[sid]
	return ok
}

// jumpToNextArrival advances the idle server's clock to the next pending
// arrival.
func (s *server) jumpToNextArrival() error {
	at, ok := s.future.peek()
	if !ok {
		// Unreachable: an arrived request on an idle server is either
		// admitted or fails hard in admit.
		return fmt.Errorf("serve: idle with %d arrived requests unadmitted", s.ready.Len())
	}
	if at > s.now {
		s.now = at
	}
	return nil
}

// removeFromBatch takes a out of the running set (slice and victim index).
func (s *server) removeFromBatch(a *track) {
	s.victims.Delete(&a.node)
	for i, v := range s.running {
		if v == a {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
	panic("serve: active sequence missing from batch")
}

// evict requeues the sequence in full (vLLM's recompute-preemption),
// releases its KV storage, and marks it so the in-flight decode step skips
// it.
func (s *server) evict(a *track) {
	s.rep.Preemptions++
	a.cls.preempt++
	a.evicted = true
	s.removeFromBatch(a)
	s.mgr.Release(a.handle)
	s.invalidateResident(a.req.SessionID)
	a.seq = s.ticket()
	s.push(a, 0)
}

// preemptFor evicts a victim so keep can grow, or reports that no eligible
// victim exists. The victim tree's minimum is the most evictable sequence;
// it is eligible exactly when it orders below keep (see victimLess).
func (s *server) preemptFor(keep *track) bool {
	n := s.victims.Min()
	if n == nil {
		return false
	}
	if n.Value == keep {
		n = s.victims.Next(n)
		if n == nil {
			return false
		}
	}
	if !s.victimLess(n.Value, keep) {
		return false
	}
	s.evict(n.Value)
	return true
}

// step runs one decode step across the batch: append one token per active
// sequence in admission order, preempting when a mid-decode Append hits the
// memory wall, then advance the clock and do end-of-step bookkeeping
// (first tokens, occupancy, completions).
func (s *server) step(prefillTokens int64) error {
	s.rep.Steps++
	s.batchSum += float64(len(s.running))

	// The step decodes the sequences that were in the batch when it
	// started, in batch order; preemptions during the step mark their
	// victims evicted rather than re-indexing a live slice, so every
	// survivor is appended exactly once and no slot is stepped twice.
	batch := append(s.batchScratch[:0], s.running...)
	s.batchScratch = batch
	for _, a := range batch {
		if a.evicted || a.remaining == 0 {
			continue
		}
		err := s.mgr.Append(a.handle)
		for err != nil {
			if !s.preemptFor(a) {
				if len(s.running) == 1 {
					return fmt.Errorf("serve: request %d stuck mid-decode: %w", a.req.ID, err)
				}
				// No eligible victim (everything else is older or higher
				// priority): yield this slot and wait for capacity.
				s.evict(a)
				break
			}
			err = s.mgr.Append(a.handle)
		}
		if a.evicted {
			continue
		}
		a.remaining--
	}
	s.now += s.cfg.StepTime + time.Duration(prefillTokens)*s.cfg.PrefillTokenTime

	if u := s.mgr.UsedBytes(); u > s.rep.PeakUsed {
		s.rep.PeakUsed = u
	}
	if l := s.mgr.LogicalBytes(); l > s.rep.PeakLogical {
		s.rep.PeakLogical = l
	}
	s.wasteSum += WasteRatio(s.mgr)

	// End-of-step bookkeeping: first tokens, occupancy, completions.
	for i := len(s.running) - 1; i >= 0; i-- {
		a := s.running[i]
		if !a.hasFirst {
			a.hasFirst = true
			a.firstToken = s.now
		}
		tokens := a.req.PromptLen + (a.req.OutputLen - a.remaining)
		a.cls.tokenSteps += float64(tokens)
		s.totalTokenSteps += float64(tokens)
		if a.remaining == 0 {
			if a.done != 0 {
				// One record per request is what makes OnComplete fire once
				// however often a request is retried or re-dispatched.
				panic(fmt.Sprintf("serve: request %d completed twice", a.req.ID))
			}
			s.rep.Served++
			s.doneTokens += int64(tokens)
			a.done = s.now
			s.recordCompletion(a)
			s.removeFromBatch(a)
			s.mgr.Release(a.handle)
			if s.cfg.PrefixReuse && a.req.SessionID != "" {
				// The completed turn's full context becomes the session's
				// resident prefix for the follow-up turn.
				s.resident[a.req.SessionID] = tokens
			}
			if s.cfg.OnComplete != nil {
				s.cfg.OnComplete(*a.req)
			}
		} else if s.cfg.Timeout > 0 && s.now > s.deadline(a) {
			// The step crossed the sequence's deadline mid-decode: abort it
			// rather than keep generating tokens nobody will wait for. It
			// streamed a first token (set just above), so its TTFT survives
			// into the roster via drop.
			s.rep.DeadlineMisses++
			s.removeFromBatch(a)
			s.mgr.Release(a.handle)
			s.drop(a)
		}
	}
	return nil
}

// recordCompletion feeds one completed request into its class's latency
// digests — the streaming replacement for retaining the request's record
// until the end of the run. Completion implies a first token (step sets it
// before checking remaining), so the request contributes one TTFT and one
// E2E sample.
func (s *server) recordCompletion(rec *track) {
	a := s.roster(rec)
	a.served++
	a.ttft.add(rec.firstToken - rec.req.ArrivalAt)
	a.e2e.add(rec.done - rec.req.ArrivalAt)
	if s.cfg.Timeout > 0 && rec.done > s.deadline(rec) {
		s.rep.DeadlineMisses++ // served, but past its deadline: not goodput
	} else {
		s.rep.Goodput++
	}
}

// finish seals the report: duration, step means, per-class rows and latency
// percentiles. On a completed run every request contributed one TTFT and one
// E2E sample as it completed. After a failed run (a request that fits
// nowhere, a stuck decode) it seals what is known — the pending and running
// requests still on the server join the class roster, those that produced a
// first token contribute TTFT — so an error-path Report never carries zeroed
// Duration, Classes or percentile fields for the work that did happen.
// finish must be called at most once: sealing feeds the digests.
func (s *server) finish() {
	s.rep.Duration = s.now
	s.future.each(s.recordUnfinished)
	s.ready.Ascend(func(n *container.Node[*track]) bool {
		s.recordUnfinished(n.Value)
		return true
	})
	for _, a := range s.running {
		s.recordUnfinished(a)
	}
	s.seal(&s.rep)
}

// nextEventTime is when the server can next make progress: now when it has
// running or arrived work, the earliest future arrival when it is idle
// awaiting one, and ok=false when it is fully drained. The cluster
// scheduler interleaves replicas by this time.
func (s *server) nextEventTime() (at time.Duration, ok bool) {
	if len(s.running) > 0 || s.ready.Len() > 0 {
		return s.now, true
	}
	if at, ok := s.future.peek(); ok {
		return max(at, s.now), true
	}
	return 0, false
}

// runOnce executes one iteration of the serving loop — admit, then either
// one decode step or an idle jump to the next arrival — and reports whether
// the server still has work. Serve's run loop and the cluster scheduler
// drive the identical method, so a single-replica cluster reproduces Serve
// step for step.
func (s *server) runOnce() (more bool, err error) {
	if s.pendingLen() == 0 && len(s.running) == 0 {
		return false, nil
	}
	prefillTokens, err := s.admit()
	if err != nil {
		return false, err
	}
	if len(s.running) == 0 {
		if s.pendingLen() == 0 {
			// Admission aborted or shed the last pending requests: the
			// server drained without another step.
			return false, nil
		}
		if err := s.jumpToNextArrival(); err != nil {
			return false, err
		}
		return true, nil
	}
	if err := s.step(prefillTokens); err != nil {
		return false, err
	}
	return true, nil
}

// run drives the loop to completion. The report is sealed on the error
// paths too, so callers always see the duration, class rows and percentiles
// of whatever work completed before the failure.
func (s *server) run() (Report, error) {
	for {
		if more, err := s.runOnce(); err != nil || !more {
			s.finish()
			return s.rep, err
		}
	}
}
