package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/container"
)

// Step costs. Latency is simulated, not measured: one decode step across
// the batch costs stepTime, and every prompt token prefilled in a step adds
// prefillTokenTime — A100-class magnitudes, enough to turn queueing and
// preemption into TTFT/E2E differences.
const (
	stepTime         = 30 * time.Millisecond
	prefillTokenTime = 100 * time.Microsecond
)

// ServerConfig tunes the continuous-batching loop. Its latency digests are
// not a setting: each keeps DefaultExactSamples samples exactly and sketches
// past them (see the package comment).
type ServerConfig struct {
	// MaxBatch caps concurrently decoding sequences.
	MaxBatch int

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
	// cover even its minimum service time — its prompt's prefill plus one
	// decode step per output token, the cost of running it alone on an
	// idle server — the request is rejected up front (Report.Shed) instead
	// of burning decode steps on a provably missed deadline. Graceful
	// degradation under overload: survivors' goodput rises because doomed
	// requests stop competing for the batch.
	Shed bool

	// OnComplete, when non-nil, is invoked once per request at the virtual
	// instant its last token is generated — the capture hook
	// internal/reqtrace uses to record a served workload back into a
	// request trace. In a cluster every replica inherits the same hook, so
	// the callback must not assume any cross-replica completion order
	// (reqtrace canonicalizes by sorting on arrival). It must not mutate
	// the server.
	OnComplete func(Request)

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

// track is the one record of an input request while the request is in the
// run: from the moment the cluster scheduler's queue releases it until it
// leaves — completed, aborted, shed or lost — across every preemption, steal
// and crash re-dispatch in between. Whoever holds the request holds this
// record: a server's future queue, ready index or batch, or the cluster's
// re-dispatch pool; nothing else keeps per-request state. When the request
// leaves, the record goes back to the run's free list (server.recycle) and
// a later arrival's pop reissues it.
type track struct {
	// req points into the run's input slice, which Serve and ServeCluster
	// read in place and never write.
	req *Request
	// seq is the FIFO ticket that orders the request against same-rank peers
	// while it waits. A requeued (preempted) request draws a fresh one,
	// putting it behind everything already waiting — exactly the position an
	// append to a pending slice would give it.
	seq int64
	// node links the request into a server's ready tree while it waits —
	// embedded, so queueing never allocates however often the request is
	// preempted, stolen or re-dispatched.
	node       container.Node[*track]
	firstToken time.Duration
	// done is the completion time on the virtual clock; it doubles as the
	// completion marker (zero = still unfinished) because completions are
	// recorded strictly after the clock advanced past the first step.
	done time.Duration
	// retries counts the crash retries granted to the request.
	retries int

	// The state of the current admission, set by admit: the sequence's KV
	// handle (0 while the request is not in a batch), its place in the
	// admission order, the server's decode tick at admission — it has
	// generated tick − base tokens since — and its class record, cached so
	// settling its token-steps skips the map.
	handle     SeqHandle
	admitOrder int64
	base       int64
	cls        *classAgg
	// reserve marks that its next event is a chunk boundary rather than its
	// last token.
	reserve bool

	hasFirst bool
	// deferred marks that the request's admission was blocked at least
	// once, so AdmitFailures counts distinct requests, not blocked steps.
	deferred bool
}

// newTrack opens the record of req, waiting under ticket seq, on a record
// from spare: every field is overwritten, so nothing of a departed request
// carries over.
func newTrack(spare *container.Spares[track], req *Request, seq int64) *track {
	t := spare.Get()
	*t = track{req: req, seq: seq}
	t.node.Value = t
	return t
}

func (t *track) class() string {
	if t.req.Class == "" {
		return "default"
	}
	return t.req.Class
}

// last is the decode tick of the step that generates t's last token.
func (t *track) last() int64 { return t.base + int64(t.req.OutputLen) - 1 }

// batchEvent is one entry of a server's batch indexes: the sequence
// admitted as order has its next event at decode tick key (see
// track.reserve) or, in the deadline index, its deadline at key. An index
// is ordered latest first, by (key, order): its next event is its last
// entry, so popping is O(1), and filing one is a binary search and a copy of
// the at most two entries per batch slot after it. Entries are dropped
// lazily: one whose sequence has left the batch is discarded when popped
// (see server.lookup).
type batchEvent struct{ key, order int64 }

// popEvent removes and returns the next event of the index q.
func popEvent(q *[]batchEvent) batchEvent {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

// server is the continuous-batching loop of one replica, with its indexed
// queues; the cluster scheduler dispatches every request onto it (push), in
// Serve as in ServeCluster. The pending set is split by arrival: `future` is
// a flat cursor over dispatched, not-yet-arrived requests in (ArrivalAt,
// ticket) order (see arrivalQueue), so promotion and the idle-jump are O(1)
// peeks, and `ready` is a tree ordering arrived-unadmitted requests by (aged
// rank desc, ticket asc) — the aged rank is the static priority when aging
// is off — so the admission candidate is its minimum. The running batch is a
// slice in admission order; the preemption victim, its minimum by
// victimLess, is found by a scan when a reservation hits the memory wall —
// an event — rather than kept in an index every admission pays for. Queues,
// tree and batch all hold the requests' tracks themselves.
//
// Decode is event-driven: the server, not the cache manager, tracks decode
// progress. A running sequence has generated tick − base tokens, and
// `events` holds its next event — the tick it fills its storage (as last
// reported by Reserve) or decodes its last token — so a step touches only
// the sequences with an event, plus O(1) for everyone else.
type server struct {
	mgr CacheManager
	cfg ServerConfig

	now time.Duration
	rep Report
	tally

	future  arrivalQueue
	ready   container.Tree[*track]
	nextTkt int64
	// spare is the run's free list of tracks, owned by the scheduler's
	// queue; every replica of the run shares it.
	spare *container.Spares[track]

	running  []*track
	admitSeq int64
	// tick counts the decode steps that got as far as generating their
	// tokens: Steps, less a step that failed mid-way.
	tick int64
	// events indexes the batch by next event and, with a timeout,
	// deadlines by deadline; due and ending are step's reusable lists of the
	// sequences with an event and of those that leave at its end. freshFrom
	// is admitSeq as of the last step: the admissions after it are the
	// coming step's own — the batch's suffix, due to reserve and to stream
	// a first token.
	events, deadlines []batchEvent
	due, ending       []*track
	freshFrom         int64

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
// keeps counting from first arrival across preemptions. arrivalOrder refuses
// a request whose aged rank would overflow int64 (agedRankFits).
func (s *server) rank(rec *track) int64 {
	if s.cfg.Aging <= 0 {
		return int64(rec.req.Priority)
	}
	return int64(rec.req.Priority)*int64(s.cfg.Aging) - int64(rec.req.ArrivalAt)
}

// victimLess is the preemption order: lowest aged rank first, then most
// recently admitted. It doubles as the eligibility rule — v may be evicted
// in favour of keep iff victimLess(v, keep) — so the batch minimum is both
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

// validate checks one server configuration: replica i's in a cluster's
// pre-flight, or a single server's own (replica -1), whose errors name no
// replica.
func (cfg ServerConfig) validate(replica int) error {
	if cfg.MaxBatch <= 0 {
		return fmt.Errorf("serve: %smax batch %d", replicaPrefix(replica), cfg.MaxBatch)
	}
	names := [...]string{"aging", "timeout"}
	for i, d := range [...]time.Duration{cfg.Aging, cfg.Timeout} {
		if d < 0 {
			return fmt.Errorf("serve: %snegative %s %v", replicaPrefix(replica), names[i], d)
		}
	}
	if cfg.Shed && cfg.Timeout == 0 {
		return fmt.Errorf("serve: %sshed needs a timeout to shed against", replicaPrefix(replica))
	}
	return nil
}

// replicaPrefix names replica i in an error ("replica 2 "; "" for -1). Only
// the error paths format it, so a valid configuration allocates nothing.
func replicaPrefix(replica int) string {
	if replica < 0 {
		return ""
	}
	return fmt.Sprintf("replica %d ", replica)
}

// newServer builds the loop with nothing pending; the cluster scheduler
// places requests one by one. The cluster's pre-flight has already checked
// cfg.
func newServer(mgr CacheManager, cfg ServerConfig) *server {
	s := &server{mgr: mgr, cfg: cfg, tally: newTally(DefaultExactSamples),
		events: make([]batchEvent, 0, 2*cfg.MaxBatch)}
	lists := make([]*track, 2*cfg.MaxBatch) // each holds at most the batch
	s.due, s.ending = lists[:0:cfg.MaxBatch], lists[cfg.MaxBatch:cfg.MaxBatch]
	if cfg.Timeout > 0 {
		s.deadlines = make([]batchEvent, 0, 2*cfg.MaxBatch)
	}
	if cfg.PrefixReuse {
		s.resident = map[string]int{}
	}
	return s
}

// ticket draws a fresh FIFO ticket: behind everything already waiting here.
func (s *server) ticket() int64 {
	s.nextTkt++
	return s.nextTkt - 1
}

// push is the only way into the pending set for a request that has a track:
// rec joins `future` or `ready` by its arrival time, under the FIFO ticket
// it carries — a fresh one (ticket) for requeued work, the input position for
// a dispatch (the scheduler reserves [0, n) before the run, so the FIFO order
// is the input's whatever order the input arrived in), the old one for a
// queued request that merely moved.
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
		s.enqueue(rec)
	}
}

// enqueue links an arrived request into the ready tree. Its key is taken
// here, because the rank depends on this server's Aging: the complemented
// rank puts the highest rank first (^ reverses int64 order without the
// overflow a negation has at the minimum), then the ticket keeps FIFO.
func (s *server) enqueue(rec *track) {
	rec.node.Key = container.Key{Hi: ^s.rank(rec), Lo: rec.seq}
	s.ready.InsertNode(&rec.node)
}

// promoteArrivals moves every request whose arrival time has passed from
// the future queue into the ready index, keeping its ticket.
func (s *server) promoteArrivals() {
	for {
		at, ok := s.future.peek()
		if !ok || at > s.now {
			return
		}
		s.enqueue(s.future.popMin())
	}
}

// pendingLen is the size of the whole pending set.
func (s *server) pendingLen() int { return s.future.len() + s.ready.Len() }

// deadline is rec's absolute completion deadline; meaningful only when a
// timeout is configured. A deadline past the clock's range stays at its end
// instead of wrapping to a negative instant that every request has missed.
func (s *server) deadline(rec *track) time.Duration {
	if rec.req.ArrivalAt > math.MaxInt64-s.cfg.Timeout {
		return math.MaxInt64
	}
	return rec.req.ArrivalAt + s.cfg.Timeout
}

// minServiceTime is the provable floor on rec's remaining service: the cost
// of prefilling its prompt and decoding every output token alone on an idle
// server. Queueing, batching and preemption only add to it.
func (s *server) minServiceTime(rec *track) time.Duration {
	return time.Duration(rec.req.PromptLen)*prefillTokenTime + time.Duration(rec.req.OutputLen)*stepTime
}

// drop removes a request that will never be served (expired or shed) from
// the run's outstanding work: its tokens count as done so a cluster
// dispatcher's outstanding-KV gauge (dispatched − done) drains to zero, and
// it joins the class roster — with its TTFT, if it ever streamed a first
// token — exactly like any other unfinished request. Its record is recycled.
func (s *server) drop(rec *track) {
	s.doneTokens += int64(rec.req.TotalTokens())
	s.invalidateResident(rec.req.SessionID)
	s.recordUnfinished(rec)
	s.recycle(rec)
}

// recycle returns the record of a request that has left the run to the
// run's free list — from drop, complete or a crash loss, the three ways out.
// Nothing may still reach it: no tree holds its node, no KV sequence its
// handle, and its caller reads it no more; a step or admission loop reads
// no list entry twice.
func (s *server) recycle(rec *track) {
	if rec.node.Linked() || rec.handle != 0 {
		panic("serve: recycled record still queued or holding KV")
	}
	s.spare.Put(rec)
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
		rec.handle, rec.admitOrder, rec.base = h, s.admitSeq, s.tick
		rec.cls = s.class(rec.class())
		s.running = append(s.running, rec)
		rec.reserve = true // the manager reports its room at its first token
		if s.cfg.Timeout > 0 {
			s.file(&s.deadlines, batchEvent{int64(s.deadline(rec)), rec.admitOrder})
		}
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

// schedule files a's next event: the reservation at decode tick boundary,
// or its last token if that comes first.
func (s *server) schedule(a *track, boundary int64) {
	last := a.last()
	a.reserve = boundary <= last
	s.file(&s.events, batchEvent{min(boundary, last), a.admitOrder})
}

// file adds e to the index q, before the first entry not later than e. At
// twice the batch size q first drops its dead entries — at least half, since
// a running sequence has at most one live entry — so it never outgrows the
// room newServer made for it, and the append below never allocates.
func (s *server) file(q *[]batchEvent, e batchEvent) {
	if len(*q) == 2*s.cfg.MaxBatch {
		*q = slices.DeleteFunc(*q, func(e batchEvent) bool { return s.lookup(e.order) == nil })
	}
	lo, hi := 0, len(*q)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); (*q)[m].key > e.key || (*q)[m].key == e.key && (*q)[m].order > e.order {
			lo = m + 1
		} else {
			hi = m
		}
	}
	*q = append(*q, batchEvent{})
	copy((*q)[lo+1:], (*q)[lo:])
	(*q)[lo] = e
}

// lookup returns the running sequence admitted as order, nil once it has
// left the batch: the batch is in admission order, and an admission order is
// never reused.
func (s *server) lookup(order int64) *track {
	lo, hi := 0, len(s.running)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.running[m].admitOrder < order {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(s.running) || s.running[lo].admitOrder != order {
		return nil
	}
	return s.running[lo]
}

// settle adds a's token-steps since admission to its class and the run: the
// KV tokens it held at the end of each of the m steps it decoded,
// Σ_{j=1..m} (PromptLen + j), in closed form.
func (s *server) settle(a *track) {
	m := s.tick - a.base
	ts := m*int64(a.req.PromptLen) + m*(m+1)/2
	a.cls.tokenSteps += ts
	s.totalTokenSteps += ts
}

// release ends a's admission: its token-steps are settled and its KV storage
// goes back to the manager.
func (s *server) release(a *track) {
	s.settle(a)
	s.mgr.Release(a.handle)
	a.handle = 0
}

// leave takes a out of the batch: the running slice, then release.
func (s *server) leave(a *track) {
	i := slices.Index(s.running, a)
	if i < 0 {
		panic("serve: active sequence missing from batch")
	}
	s.running = slices.Delete(s.running, i, i+1)
	s.release(a)
}

// evict requeues the sequence in full (vLLM's recompute-preemption) and
// releases its KV storage.
func (s *server) evict(a *track) {
	s.rep.Preemptions++
	a.cls.preempt++
	s.leave(a)
	s.invalidateResident(a.req.SessionID)
	a.seq = s.ticket()
	s.push(a, 0)
}

// preemptFor evicts a victim so keep can grow, or reports that no eligible
// victim exists. The batch's minimum by victimLess, keep aside, is the most
// evictable sequence; it is eligible exactly when it orders below keep.
func (s *server) preemptFor(keep *track) bool {
	var v *track
	for _, a := range s.running {
		if a != keep && (v == nil || s.victimLess(a, v)) {
			v = a
		}
	}
	if v == nil || !s.victimLess(v, keep) {
		return false
	}
	s.evict(v)
	return true
}

// step runs one decode step across the batch, doing work only for the
// sequences with an event: chunk boundaries reserve storage in admission
// order (preempting when that hits the memory wall), one O(1) manager call
// decodes a token for every sequence, the clock advances, the step's
// admissions stream their first token, and completions and deadline aborts
// leave the batch in reverse admission order. A step that would carry the
// clock past its range fails before it changes anything.
func (s *server) step(prefillTokens int64) error {
	took := stepTime + time.Duration(prefillTokens)*prefillTokenTime
	if s.now > math.MaxInt64-took {
		return fmt.Errorf("serve: a %v step at t=%v would run past the clock's range (≈ 292 years)", took, s.now)
	}
	s.rep.Steps++
	s.batchSum += int64(len(s.running))

	// The due events in admission order: the indexed ones, then the step's
	// own admissions, the batch's suffix.
	s.due, s.ending = s.due[:0], s.ending[:0]
	for len(s.events) > 0 && s.events[len(s.events)-1].key == s.tick {
		if a := s.lookup(popEvent(&s.events).order); a != nil {
			s.due = append(s.due, a)
		}
	}
	nFresh := int(s.admitSeq - s.freshFrom)
	s.due = append(s.due, s.running[len(s.running)-nFresh:]...)
	for _, a := range s.due {
		room := 0
		for a.reserve && a.handle != 0 {
			var err error
			if room, err = s.mgr.Reserve(a.handle); err == nil {
				break
			}
			if !s.preemptFor(a) {
				if len(s.running) == 1 {
					return fmt.Errorf("serve: request %d stuck mid-decode: %w", a.req.ID, err)
				}
				// No eligible victim (everything else is older or higher
				// priority): yield this slot and wait for capacity.
				s.evict(a)
			}
		}
		switch {
		case a.handle == 0: // evicted, earlier in the step or just now
		case s.tick < a.last():
			s.schedule(a, s.tick+int64(room))
		default:
			s.ending = append(s.ending, a)
		}
	}
	s.mgr.Decode()
	s.tick++
	s.now += took

	used, logical := s.mgr.UsedBytes(), s.mgr.LogicalBytes()
	s.rep.PeakUsed = max(s.rep.PeakUsed, used)
	s.rep.PeakLogical = max(s.rep.PeakLogical, logical)
	s.wasteSum += wasteRatio(used, logical)

	for _, a := range s.due[len(s.due)-nFresh:] {
		if a.handle != 0 && !a.hasFirst {
			a.hasFirst, a.firstToken = true, s.now
		}
	}
	s.freshFrom = s.admitSeq
	// The step crossed these sequences' deadlines mid-decode: abort them
	// rather than keep generating tokens nobody will wait for — unless the
	// step generated their last token.
	for len(s.deadlines) > 0 && time.Duration(s.deadlines[len(s.deadlines)-1].key) < s.now {
		if a := s.lookup(popEvent(&s.deadlines).order); a != nil && s.tick <= a.last() {
			s.ending = append(s.ending, a)
		}
	}
	slices.SortFunc(s.ending, func(a, b *track) int { return cmp.Compare(b.admitOrder, a.admitOrder) })
	for _, a := range s.ending {
		switch {
		case a.handle == 0: // evicted after its last token was due
		case s.tick > a.last():
			s.complete(a)
		default:
			// It streamed a first token (set above), so its TTFT survives
			// into the roster via drop.
			s.rep.DeadlineMisses++
			s.leave(a)
			s.drop(a)
		}
	}
	return nil
}

// complete records a's last token at the end of the current step; a leaves
// the run and its record is recycled.
func (s *server) complete(a *track) {
	if a.done != 0 {
		// One record per request in the run is what makes OnComplete fire
		// once however often a request is retried or re-dispatched.
		panic(fmt.Sprintf("serve: request %d completed twice", a.req.ID))
	}
	tokens := a.req.TotalTokens()
	s.rep.Served++
	s.doneTokens += int64(tokens)
	a.done = s.now
	s.recordCompletion(a)
	s.leave(a)
	if s.cfg.PrefixReuse && a.req.SessionID != "" {
		// The completed turn's full context becomes the session's
		// resident prefix for the follow-up turn.
		s.resident[a.req.SessionID] = tokens
	}
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(*a.req)
	}
	s.recycle(a)
}

// recordCompletion feeds one completed request into its class's latency
// digests — the streaming replacement for retaining the request's record
// until the end of the run — and lists the class in the report. The class
// record is the one rec's admission on this server cached. Completion
// implies a first token (step sets it before completing anything), so the
// request contributes one TTFT and one E2E sample.
func (s *server) recordCompletion(rec *track) {
	a := rec.cls
	a.list(rec.req.SLO)
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
		s.settle(a)
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
// one decode step or an idle jump to the next arrival. The cluster scheduler
// drives it, one replica event at a time.
func (s *server) runOnce() error {
	prefillTokens, err := s.admit()
	if err != nil {
		return err
	}
	if len(s.running) > 0 {
		return decode(s, prefillTokens)
	}
	if s.pendingLen() == 0 {
		// Admission aborted or shed the last pending requests: the server
		// drained without another step.
		return nil
	}
	return s.jumpToNextArrival()
}

// decode is the step runOnce takes: a variable only so that the package
// tests can put the single-step reference loop in its place.
var decode = (*server).step
