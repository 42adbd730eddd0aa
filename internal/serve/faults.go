package serve

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/container"
	"repro/internal/sim"
)

// FaultKind classifies one fault-plan event.
type FaultKind int

const (
	// FaultCrash kills a replica: its KV cache and in-flight sequences are
	// lost, queued requests are displaced, and it leaves dispatch.
	FaultCrash FaultKind = iota
	// FaultRestart brings a crashed replica back, empty, into dispatch.
	FaultRestart
)

// String names the kind in fault-plan syntax ("crash", "restart").
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scripted replica fault on the cluster's virtual clock.
type FaultEvent struct {
	At      time.Duration
	Kind    FaultKind
	Replica int
}

// FaultConfig injects deterministic replica crash/restart events into a
// cluster run. The zero value injects nothing. Faults come from exactly one
// of two sources:
//
//   - MTTF/MTTR (both must be set together): each replica draws an
//     independent, seeded alternating sequence of exponential time-to-crash
//     (mean MTTF) and time-to-restart (mean MTTR) intervals, starting at
//     t=0. The streams depend only on Seed and the replica index, so the
//     same configuration replays the same fault history byte for byte.
//   - Plan: an explicit scripted schedule (see ParseFaultPlan), for
//     reproducing one specific failure scenario.
//
// Events are injected only at event boundaries of the co-simulation (see
// the package comment's failure-model section), so faulty runs stay as
// deterministic as fault-free ones. A crash aimed at a replica that is
// already down (or was never spawned) is a no-op, as is a restart of a
// replica that is up.
type FaultConfig struct {
	// MTTF is the mean time to failure of one replica (exponential).
	MTTF time.Duration
	// MTTR is the mean time to restart after a crash (exponential).
	MTTR time.Duration
	// Seed seeds the per-replica fault streams (MTTF mode only).
	Seed uint64
	// Plan is the scripted schedule; mutually exclusive with MTTF/MTTR.
	Plan []FaultEvent
}

// Enabled reports whether the configuration injects any faults.
func (fc FaultConfig) Enabled() bool { return fc.MTTF > 0 || len(fc.Plan) > 0 }

// validate checks the configuration against the largest fleet the run could
// instantiate. Scripted plans must alternate crash/restart per replica,
// starting with a crash — two crashes in a row would be aimed at a replica
// that is already down, a silent no-op hiding a mistyped schedule.
func (fc FaultConfig) validate(fleetMax int) error {
	if fc.MTTF < 0 || fc.MTTR < 0 {
		return fmt.Errorf("serve: negative mttf/mttr %v/%v", fc.MTTF, fc.MTTR)
	}
	if (fc.MTTF > 0) != (fc.MTTR > 0) {
		return fmt.Errorf("serve: mttf and mttr must be set together (got %v/%v)", fc.MTTF, fc.MTTR)
	}
	if len(fc.Plan) > 0 && fc.MTTF > 0 {
		return fmt.Errorf("serve: scripted fault plan and mttf/mttr are mutually exclusive")
	}
	last := map[int]FaultKind{}
	seenAt := map[int]time.Duration{}
	for _, e := range sortedPlan(fc.Plan) {
		if e.At < 0 {
			return fmt.Errorf("serve: fault event %v at negative time %v", e.Kind, e.At)
		}
		if e.Kind != FaultCrash && e.Kind != FaultRestart {
			return fmt.Errorf("serve: unknown fault kind %d", int(e.Kind))
		}
		if e.Replica < 0 || e.Replica >= fleetMax {
			return fmt.Errorf("serve: fault event targets replica %d of a fleet of at most %d", e.Replica, fleetMax)
		}
		want := FaultCrash
		if k, ok := last[e.Replica]; ok {
			if at := seenAt[e.Replica]; at == e.At {
				return fmt.Errorf("serve: two fault events for replica %d at %v", e.Replica, e.At)
			}
			if k == FaultCrash {
				want = FaultRestart
			}
		}
		if e.Kind != want {
			return fmt.Errorf("serve: fault plan for replica %d: %v at %v, expected %v (crash/restart must alternate, starting with crash)",
				e.Replica, e.Kind, e.At, want)
		}
		last[e.Replica] = e.Kind
		seenAt[e.Replica] = e.At
	}
	return nil
}

// sortedPlan returns the plan ordered by (time, replica) — the injection
// order. Alternation per replica guarantees a replica never has two events
// at one instant, so the order is total.
func sortedPlan(plan []FaultEvent) []FaultEvent {
	out := append([]FaultEvent(nil), plan...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}

// ParseFaultPlan parses a scripted fault schedule of '/'-separated events:
//
//	crash@t=12s:r1/restart@t=13s:r1/crash@t=20s:r0
//
// Each event is <kind>@t=<duration>:r<replica>, kind one of "crash" or
// "restart". Empty segments are skipped. The parsed plan is not validated
// against a fleet size here — ClusterConfig validation does that, with the
// actual fleet bound in hand.
func ParseFaultPlan(s string) ([]FaultEvent, error) {
	var plan []FaultEvent
	for _, part := range strings.Split(s, "/") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("serve: fault event %q is not <kind>@t=<time>:r<replica>", part)
		}
		var kind FaultKind
		switch kindStr {
		case "crash":
			kind = FaultCrash
		case "restart":
			kind = FaultRestart
		default:
			return nil, fmt.Errorf("serve: unknown fault kind %q in %q (crash, restart)", kindStr, part)
		}
		tStr, rStr, ok := strings.Cut(rest, ":")
		if !ok || !strings.HasPrefix(tStr, "t=") || !strings.HasPrefix(rStr, "r") {
			return nil, fmt.Errorf("serve: fault event %q is not <kind>@t=<time>:r<replica>", part)
		}
		at, err := time.ParseDuration(strings.TrimPrefix(tStr, "t="))
		if err != nil || at < 0 {
			return nil, fmt.Errorf("serve: fault time in %q must be a non-negative duration", part)
		}
		ri, err := strconv.Atoi(strings.TrimPrefix(rStr, "r"))
		if err != nil || ri < 0 {
			return nil, fmt.Errorf("serve: fault replica in %q must be a non-negative integer", part)
		}
		plan = append(plan, FaultEvent{At: at, Kind: kind, Replica: ri})
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("serve: empty fault plan %q", s)
	}
	return plan, nil
}

// Crash-retry defaults (see RecoveryConfig).
const (
	DefaultRetryDelay = 50 * time.Millisecond
	DefaultBackoff    = 2.0
)

// RecoveryConfig tunes how the cluster recovers requests that were decoding
// on a replica when it crashed. Queued (not yet admitted) requests on a
// crashed replica are always re-dispatched immediately and consume no retry
// — they lost nothing but their place in line. Deadlines and admission
// shedding are per-server knobs (ServerConfig.Timeout, ServerConfig.Shed);
// this struct is the cluster-level retry policy.
type RecoveryConfig struct {
	// Retries caps re-dispatch attempts per crashed in-flight request.
	// 0 means no retry: work lost to a crash is abandoned (and counted in
	// ClusterReport.Lost).
	Retries int
	// Backoff is the exponential backoff multiplier, >= 1
	// (0 = DefaultBackoff): retry k of a request re-enters dispatch
	// DefaultRetryDelay·Backoff^(k−1) after the crash. The last retry's
	// delay must be below 2^63 ns, the clock's range.
	Backoff float64
}

func (rc RecoveryConfig) validate() error {
	if rc.Retries < 0 {
		return fmt.Errorf("serve: negative retries %d", rc.Retries)
	}
	if rc.Backoff != 0 && (rc.Backoff < 1 || math.IsNaN(rc.Backoff) || math.IsInf(rc.Backoff, 0)) {
		return fmt.Errorf("serve: backoff %v must be >= 1", rc.Backoff)
	}
	backoff := rc.Backoff
	if backoff == 0 {
		backoff = DefaultBackoff
	}
	// The last retry's delay must be a Duration: past 2^63 ns the
	// conversion in crash would wrap to a negative instant.
	if last := float64(DefaultRetryDelay) * math.Pow(backoff, float64(rc.Retries-1)); rc.Retries > 0 && !(last < 1<<63) {
		return fmt.Errorf("serve: backoff %v delays retry %d by %.3g ns, past the clock's range", backoff, rc.Retries, last)
	}
	return nil
}

// faultSource is the merged, time-ordered feed of fault events for one run:
// one heap keyed (time, replica) holding either the whole scripted plan or
// the pending event of one lazily generated alternating crash/restart
// stream per potential replica. Keys are unique (validate rejects two plan
// events for one replica at one instant; a stream has one pending event),
// so the order is sortedPlan's. peek and pop are deterministic functions of
// the configuration, never of scheduler state.
type faultSource struct {
	pending container.Heap[FaultEvent]
	// rngs[i] draws replica i's successor events in MTTF mode; nil for a
	// scripted plan.
	rngs       []*sim.RNG
	mttf, mttr time.Duration
}

// newFaultSource builds the feed for a fleet of at most fleetMax replicas.
// In MTTF mode every potential replica gets its own stream seeded from
// (Seed, replica index), so the fault history of replica i does not depend
// on how many replicas the autoscaler actually spawned.
func newFaultSource(fc FaultConfig, fleetMax int) *faultSource {
	f := &faultSource{}
	if len(fc.Plan) > 0 {
		for _, e := range fc.Plan {
			f.push(e)
		}
		return f
	}
	f.mttf, f.mttr, f.rngs = fc.MTTF, fc.MTTR, make([]*sim.RNG, fleetMax)
	for i := range f.rngs {
		f.rngs[i] = sim.NewRNG(fc.Seed + 0x9e3779b97f4a7c15*uint64(i+1))
		f.push(FaultEvent{At: expDur(f.rngs[i], fc.MTTF), Kind: FaultCrash, Replica: i})
	}
	return f
}

func (f *faultSource) push(e FaultEvent) {
	f.pending.Push(container.Key{Hi: int64(e.At), Lo: int64(e.Replica)}, e)
}

// peek returns the next fault event without consuming it. MTTF streams are
// endless, so ok is false only for an exhausted scripted plan.
func (f *faultSource) peek() (FaultEvent, bool) {
	if f.pending.Len() == 0 {
		return FaultEvent{}, false
	}
	_, e := f.pending.Peek()
	return e, true
}

// pop consumes the next fault event; in MTTF mode the popped stream draws
// its successor (a restart after a crash, the next crash after a restart).
func (f *faultSource) pop() FaultEvent {
	_, e := f.pending.Pop()
	if f.rngs == nil {
		return e
	}
	rng := f.rngs[e.Replica]
	if e.Kind == FaultCrash {
		f.push(FaultEvent{At: e.At + expDur(rng, f.mttr), Kind: FaultRestart, Replica: e.Replica})
	} else {
		f.push(FaultEvent{At: e.At + expDur(rng, f.mttf), Kind: FaultCrash, Replica: e.Replica})
	}
	return e
}

// expDur draws an exponential duration with the given mean via the inverse
// CDF, floored at 1ns so consecutive events never collapse onto one
// instant.
func expDur(rng *sim.RNG, mean time.Duration) time.Duration {
	d := time.Duration(-math.Log(1-float64(rng.Float64())) * float64(mean))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// freshTicket in a pooled request's ticket slot asks the destination for a
// new one; real tickets are never negative.
const freshTicket int64 = -1

// recovery is the fault-injection and crash-recovery policy with the state
// it alone mutates: the fault feed, the re-dispatch pool and the retry
// accounting. A zero-fault run has none (the scheduler's pointer is nil),
// which keeps every fault path unreachable and the schedule byte-identical
// to a scheduler without them.
type recovery struct {
	faults *faultSource
	// pool holds the requests waiting to re-enter dispatch under the key
	// (earliest cluster instant they may, parked order), parked counting
	// them in. A request that was merely queued — displaced by a crash, or
	// an arrival parked while every replica was down — keeps its FIFO
	// ticket in seq and may re-enter dispatch at once; an in-flight request
	// granted a retry carries freshTicket instead (it draws one at its
	// destination, like a preemption requeue) and waits out its backoff.
	pool   container.Heap[*track]
	parked int64
	// retries and lost count granted and refused retries; the per-request
	// count is track.retries.
	retries int
	lost    int
}

func newRecovery(fc FaultConfig, fleetMax int) *recovery {
	return &recovery{faults: newFaultSource(fc, fleetMax)}
}

// poolLen is the re-dispatch pool's size (0 on a zero-fault run).
func (rc *recovery) poolLen() int {
	if rc == nil {
		return 0
	}
	return rc.pool.Len()
}

// park puts a request in the re-dispatch pool until cluster instant at.
func (rc *recovery) park(w *track, at time.Duration) {
	rc.parked++
	rc.pool.Push(container.Key{Hi: int64(at), Lo: rc.parked}, w)
}

// apply routes one fault event at the current cluster instant. Crashes only
// touch replicas that are up (active or draining); restarts only touch
// crashed ones; anything else — including events aimed at replicas the
// autoscaler never spawned — is a no-op, so MTTF streams and scripted plans
// stay valid whatever the fleet actually did.
func (rc *recovery) apply(c *clusterSched, fe FaultEvent) {
	if fe.Replica >= len(c.fleet) {
		return
	}
	r := c.fleet[fe.Replica]
	switch {
	case fe.Kind == FaultCrash && (r.state == replicaActive || r.state == replicaDraining):
		rc.crash(c, r)
	case fe.Kind == FaultRestart && r.state == replicaDown:
		// The replica rejoins dispatch empty, closing its outage span. One
		// that crashed while draining rejoins as active — its backlog died
		// with it — and the autoscaler is free to drain it again.
		r.downTotal += c.now - r.downSince
		r.state = replicaActive
		r.srv.restart(c.now)
	}
}

// crash kills replica r at the current cluster instant. The server tears
// down its KV and batch (recompute semantics — see (*server).crash);
// displaced queued requests re-enter dispatch through the pool immediately
// and for free, while in-flight ones must win a retry grant — bounded per
// request — or be abandoned as lost. Either way the replica's
// outstanding-KV gauge drains to zero, keeping load-aware dispatch honest
// about the survivors.
func (rc *recovery) crash(c *clusterSched, r *clusterReplica) {
	inflight, queued := r.srv.crash(c.now)
	r.state = replicaDown
	r.downSince = c.now
	r.eventSeq++ // its pending heap entry, if any, is now stale
	r.live = false
	for _, w := range queued {
		r.dispatchedTokens -= int64(w.req.TotalTokens())
		rc.park(w, c.now)
	}
	for _, rec := range inflight {
		r.dispatchedTokens -= int64(rec.req.TotalTokens())
		if k, ok := rc.grant(c.cfg.Recovery, rec); ok {
			// validate keeps the delay inside a Duration; the instant
			// saturates at the clock's end rather than wrap.
			delay := time.Duration(float64(DefaultRetryDelay) * math.Pow(c.cfg.Recovery.Backoff, float64(k-1)))
			at := time.Duration(math.MaxInt64)
			if c.now <= math.MaxInt64-delay {
				at = c.now + delay
			}
			rec.seq = freshTicket
			rc.park(rec, at)
		} else {
			rc.lost++
			// The request dies with the replica that was serving it: it
			// joins that replica's roster (keeping its TTFT if it had
			// already streamed), like any other unfinished request.
			r.srv.recordUnfinished(rec)
			r.srv.recycle(rec)
		}
	}
}

// grant charges one retry for rec against the per-request cap, returning
// the 1-based attempt number when granted.
func (rc *recovery) grant(policy RecoveryConfig, rec *track) (int, bool) {
	if rec.retries >= policy.Retries {
		return 0, false
	}
	rec.retries++
	rc.retries++
	return rec.retries, true
}

// crash models the replica's host dying at cluster instant at: every
// decoding sequence and queued request leaves the server and the cache
// manager releases all KV. The returned slices — inflight in batch order,
// queued in (rank, then arrival) order — are the scheduler's to re-dispatch
// or abandon; the server itself keeps its report, digests and clock, ready
// to be restarted empty.
func (s *server) crash(at time.Duration) (inflight, queued []*track) {
	if at > s.now {
		s.now = at
	}
	for _, a := range s.running {
		s.release(a)
	}
	inflight = append(inflight, s.running...)
	s.running = s.running[:0]
	for {
		n := s.ready.Min()
		if n == nil {
			break
		}
		queued = append(queued, n.Value)
		s.ready.Delete(n)
	}
	for s.future.len() > 0 {
		queued = append(queued, s.future.popMin())
	}
	// The crash lost the whole KV cache, session prefixes included: every
	// residency entry goes at once, so post-restart follow-up turns miss.
	// The map keeps its buckets for the sessions that come back.
	clear(s.resident)
	s.rep.Crashes++
	return inflight, queued
}

// restart reopens a crashed server, empty, at cluster instant at.
func (s *server) restart(at time.Duration) {
	if at > s.now {
		s.now = at
	}
	s.rep.Restarts++
}
