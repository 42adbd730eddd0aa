package serve

import (
	"fmt"
	"time"

	"repro/internal/container"
)

// replicaState tracks one replica's place in the elastic fleet lifecycle.
type replicaState int

const (
	replicaActive   replicaState = iota // receives dispatches
	replicaDraining                     // serving out its backlog, no new work
	replicaStopped                      // drained and out of the fleet
	replicaDown                         // crashed: empty, out of dispatch, awaiting restart
)

// clusterReplica is one replica server plus the scheduler-side bookkeeping
// the dispatch policies and the autoscaler read.
type clusterReplica struct {
	srv      *server
	capacity float64
	state    replicaState
	// spawnAt opens the current busy span on the cluster clock; busy
	// accumulates closed spans (a replica can stop and be re-activated).
	spawnAt time.Duration
	busy    time.Duration
	// assigned counts arrival dispatches, stolen counts re-dispatches won,
	// dispatchedTokens the outstanding-KV numerator for least-kv dispatch.
	assigned         int
	stolen           int
	dispatchedTokens int64

	// downSince opens the current outage on the cluster clock (valid while
	// state == replicaDown); downTotal accumulates closed outages — the
	// numerator of the availability metric.
	downSince time.Duration
	downTotal time.Duration

	// eventSeq versions the replica's entry in the scheduler's event heap:
	// every touch that moves the entry bumps it, so events pushed earlier
	// become stale and are discarded on pop instead of being searched for
	// and removed (lazy invalidation). live reports that the entry under
	// eventSeq is in the heap, keyed by liveAt; whatever kills it clears
	// live.
	eventSeq uint64
	live     bool
	liveAt   time.Duration
}

// evSource names where the scheduler's next event comes from. After evNone,
// the declared order is the precedence among events due at the same instant.
type evSource int

const (
	// evNone: nothing is actionable — the run is over, or stranded.
	evNone evSource = iota
	// evFault: a crash at t kills the replica before the arrival at t lands.
	evFault
	// evPool: displaced requests are older than anything arriving now.
	evPool
	// evArrival: due at or before the next replica step, so the policy sees
	// every replica's state as of the arrival instant — exactly like
	// admission sees arrivals that landed during the previous decode step.
	evArrival
	evStep
)

// clusterSched is the scheduler core: the cluster clock, the admission
// queue, the fleet and its event heap, advanced one event at a time. What
// to do at an event is the policies' business, each holding the state it
// alone mutates; on a zero-fault configuration recovery is nil and the loop
// is the fault-free scheduler, event for event.
type clusterSched struct {
	cfg    ClusterConfig // validated, defaults resolved
	newMgr func(int) CacheManager
	// queue is the cluster admission queue: the input stream in arrival
	// order. Dispatch releases requests in this order but tickets them by
	// input index. It is the one owner of the run's input and of its free
	// list of tracks.
	queue inputCursor
	now   time.Duration // monotonic cluster event clock
	fleet []*clusterReplica

	// events is the single global event spine: one entry per replica with
	// work, the replica's eventSeq under the key (next-event time, replica
	// index), so advancing the co-simulation is an O(log fleet) pop rather
	// than a scan of every replica's clock, and the lowest-index replica runs
	// first among simultaneous events. Entries are invalidated lazily via
	// eventSeq.
	events container.Heap[uint64]

	dispatch dispatcher
	scaler   scaler
	recovery *recovery
}

func newClusterSched(reqs []Request, newMgr func(int) CacheManager, cfg ClusterConfig) (*clusterSched, error) {
	initial, fleetMax, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	queue, err := newInputCursor(reqs, cfg.Server.Aging)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &clusterSched{
		cfg:      cfg,
		newMgr:   newMgr,
		queue:    queue,
		dispatch: dispatcher{policy: cfg.Dispatch, base: cfg.AffinityBase},
		scaler:   scaler{peakReplicas: initial},
	}
	if cfg.Faults.Enabled() {
		c.recovery = newRecovery(cfg.Faults, fleetMax)
	}

	for i := 0; i < initial; i++ {
		c.spawn()
	}
	return c, nil
}

// spawn appends a fresh replica to the fleet with the cluster clock as its
// busy-span start. validate checked every replica configuration the run can
// spawn, so construction cannot fail.
func (c *clusterSched) spawn() {
	i := len(c.fleet)
	// A replica never runs more sequences than the run has requests, so the
	// batch bound newServer sizes its event and track lists by is capped
	// there: the cap never binds an admission.
	sc := c.cfg.serverConfig(i)
	if n := len(c.queue.reqs); n > 0 && n < sc.MaxBatch {
		sc.MaxBatch = n
	}
	s := newServer(c.newMgr(i), sc)
	// Reserve the global ticket range [0, len(reqs)) for dispatched
	// requests; requeued preemptions draw above it.
	s.nextTkt = int64(len(c.queue.reqs))
	s.spare = &c.queue.spare
	w := c.cfg.resolveOverride(i).Capacity
	if w == 0 {
		w = 1
	}
	c.fleet = append(c.fleet, &clusterReplica{srv: s, capacity: w, spawnAt: c.now})
}

// activeCount is the number of dispatchable replicas.
func (c *clusterSched) activeCount() int {
	n := 0
	for _, r := range c.fleet {
		if r.state == replicaActive {
			n++
		}
	}
	return n
}

// touch re-registers replica ri in the event heap after anything that can
// change its next-event time (a dispatch, a step, a steal). The previous
// entry — if any — becomes stale via the sequence bump; a fresh entry is
// pushed only when the replica still has work. Every replica therefore has
// at most one live entry, keyed by its current nextEventTime. When that
// entry is the heap's minimum — after a step it always is — it is re-keyed
// in place, or popped when the replica has no more work, instead of being
// left behind for nextStep to discard. A touch that leaves the replica's
// entry (or its absence) as it is changes nothing.
func (c *clusterSched) touch(ri int) {
	r := c.fleet[ri]
	t, ok := r.srv.nextEventTime()
	if ok == r.live && (!ok || t == r.liveAt) {
		return
	}
	top := false
	if c.events.Len() > 0 {
		k, seq := c.events.Peek()
		top = k.Lo == int64(ri) && seq == r.eventSeq
	}
	r.eventSeq++
	r.live, r.liveAt = ok, t
	k := container.Key{Hi: int64(t), Lo: int64(ri)}
	switch {
	case top && ok:
		c.events.ReplaceTop(k, r.eventSeq)
	case top:
		c.events.Pop()
	case ok:
		c.events.Push(k, r.eventSeq)
	}
}

// place is the one way onto a replica: w joins replica ri's pending set —
// at is the hand-over instant of a late dispatch, 0 at arrival time (see
// (*server).push) — its tokens join the replica's outstanding-KV gauge, and
// the replica's event is re-registered.
func (c *clusterSched) place(ri int, w *track, at time.Duration) {
	r := c.fleet[ri]
	r.srv.push(w, at)
	r.dispatchedTokens += int64(w.req.TotalTokens())
	c.touch(ri)
}

// nextStep returns the earliest live replica event without consuming it,
// discarding stale entries; ri == -1 means every replica is idle.
func (c *clusterSched) nextStep() (at time.Duration, ri int) {
	for c.events.Len() > 0 {
		k, seq := c.events.Peek()
		r := c.fleet[k.Lo]
		if seq != r.eventSeq || r.state == replicaStopped || r.state == replicaDown {
			c.events.Pop() // stale: superseded, or the replica retired or crashed
			if seq == r.eventSeq {
				r.live = false
			}
			continue
		}
		return time.Duration(k.Hi), int(k.Lo)
	}
	return 0, -1
}

// next decides what happens next — the only place event precedence is
// spelled out: the earliest due source wins, and among sources due at the
// same instant the one declared first in evSource (a later source takes
// over only when strictly earlier). Fault events are injected at event
// boundaries only — they never interrupt a decode step — so a faulty run is
// exactly as deterministic as a fault-free one. The pool counts only while a
// dispatch target exists; while every replica is down it waits for a
// restart or a scale-up.
func (c *clusterSched) next() (src evSource, at time.Duration, ri int) {
	tStep, ri := c.nextStep()
	if ri == -1 && c.queue.left() == 0 && c.recovery.poolLen() == 0 {
		return evNone, 0, -1 // drained; fault events past the last work are moot
	}
	if c.recovery != nil {
		if fe, ok := c.recovery.faults.peek(); ok {
			src, at = evFault, fe.At
		}
		if c.recovery.pool.Len() > 0 && c.activeCount() > 0 {
			if k, _ := c.recovery.pool.Peek(); src == evNone || time.Duration(k.Hi) < at {
				src, at = evPool, time.Duration(k.Hi)
			}
		}
	}
	if c.queue.left() > 0 {
		if _, r := c.queue.head(); src == evNone || r.ArrivalAt < at {
			src, at = evArrival, r.ArrivalAt
		}
	}
	if ri != -1 && (src == evNone || tStep < at) {
		src, at = evStep, tStep
	}
	return src, at, ri
}

// run drives the co-simulation to completion: take the next event, advance
// the monotonic cluster clock to it, let the autoscaler look at the fleet,
// and re-touch exactly the replicas the event mutated. The report is sealed
// on the error paths too; failed is the index of the replica whose step
// failed, -1 when the run completed or the failure is the cluster's own.
func (c *clusterSched) run() (rep ClusterReport, failed int, err error) {
	for {
		src, at, ri := c.next()
		if at > c.now {
			c.now = at
		}
		switch src {
		case evNone:
			if n := c.recovery.poolLen(); n > 0 {
				// Work remains only in a blocked pool, and no fault event is
				// pending to unblock it (a scripted plan ran dry).
				return c.seal(), -1, fmt.Errorf("serve: %d request(s) stranded in the re-dispatch pool with no active replica and no pending restart", n)
			}
			return c.seal(), -1, nil
		case evFault:
			c.recovery.apply(c, c.recovery.faults.pop())
			c.scaler.evaluate(c)
		case evPool:
			// A late dispatch decision for displaced queued requests and
			// parked arrivals, a recompute requeue for retried in-flight ones.
			_, w := c.recovery.pool.Pop()
			c.scaler.evaluate(c)
			to := c.dispatch.pick(c.fleet, *w.req)
			if w.seq == freshTicket {
				w.seq = c.fleet[to].srv.ticket()
			}
			c.place(to, w, c.now)
		case evArrival:
			c.scaler.evaluate(c)
			w := c.queue.pop()
			if c.recovery != nil && c.activeCount() == 0 {
				// Every replica is down (or draining): park the arrival in
				// the pool — no retry consumed — until a restart or a
				// scale-up restores a dispatch target.
				c.recovery.park(w, w.req.ArrivalAt)
				continue
			}
			to := c.dispatch.pick(c.fleet, *w.req)
			c.fleet[to].assigned++
			c.place(to, w, 0)
		case evStep:
			c.scaler.evaluate(c)
			if c.cfg.Steal && c.trySteal() {
				continue // fleet state changed; the steal re-touched both sides
			}
			if err := c.fleet[ri].srv.runOnce(); err != nil {
				return c.seal(), ri, err
			}
			c.touch(ri)
		}
	}
}

// seal finalizes every replica and assembles the cluster report. All slices
// in the report are freshly allocated — never views of scheduler state — so
// a caller mutating the report cannot corrupt anything read later.
func (c *clusterSched) seal() ClusterReport {
	// A drain that completed on the run's very last event has not been
	// through an autoscaler evaluation yet — retire it before counting.
	c.scaler.retire(c.fleet)
	rep := ClusterReport{
		Replicas:       make([]Report, len(c.fleet)),
		Assigned:       make([]int, len(c.fleet)),
		Stolen:         make([]int, len(c.fleet)),
		PeakReplicas:   c.scaler.peakReplicas,
		Spawns:         c.scaler.spawns,
		Drains:         c.scaler.drains,
		AffinityRouted: c.dispatch.affinityRouted,
		Availability:   1,
	}
	servers := make([]*server, len(c.fleet))
	// A replica still in the fleet at the end of the run was provisioned
	// until the cluster makespan, idle tail included — that is what makes
	// ReplicaSeconds of a static N-replica fleet exactly N × makespan, the
	// baseline elastic drains are measured against. Drained replicas
	// closed their spans at their own drain instant.
	var makespan time.Duration
	for _, r := range c.fleet {
		makespan = max(makespan, r.srv.now)
	}
	var weightedSpan, weightedDown float64
	for i, r := range c.fleet {
		r.srv.finish()
		rep.Replicas[i] = r.srv.rep
		rep.Assigned[i] = r.assigned
		rep.Stolen[i] = r.stolen
		servers[i] = r.srv
		if r.state == replicaDown {
			// The outage was still open at the end of the run: it spans to
			// the cluster makespan, like the busy span closed below.
			r.downTotal += max(makespan, r.downSince) - r.downSince
		}
		if r.state != replicaStopped {
			r.busy += max(makespan, r.spawnAt) - r.spawnAt
			r.state = replicaStopped
		}
		rep.ReplicaSeconds += r.busy
		weightedSpan += float64(r.capacity * float64(r.busy))
		weightedDown += float64(r.capacity * float64(r.downTotal))
	}
	if weightedSpan > 0 {
		rep.Availability = 1 - weightedDown/weightedSpan
	}
	// Requests never released from the cluster queue (the run failed
	// first) still belong in the merged roster, unserved — as do requests
	// stranded in the re-dispatch pool (error paths only: a completed run
	// drains it).
	undispatched := make([]Request, 0, c.queue.left()+c.recovery.poolLen())
	c.queue.each(func(r *Request) { undispatched = append(undispatched, *r) })
	for c.recovery.poolLen() > 0 {
		_, w := c.recovery.pool.Pop()
		undispatched = append(undispatched, *w.req)
	}
	if c.recovery != nil {
		rep.Retries, rep.Lost = c.recovery.retries, c.recovery.lost
	}
	rep.Report = mergeReports(servers, undispatched)
	return rep
}
