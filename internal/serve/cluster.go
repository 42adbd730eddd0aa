package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/container"
)

// DispatchPolicy names a cluster-level dispatch policy: how the admission
// queue assigns an arriving request to a replica.
type DispatchPolicy string

const (
	// DispatchRoundRobin cycles arrivals over the active replicas in order
	// — oblivious to load, the baseline every smarter policy is measured
	// against.
	DispatchRoundRobin DispatchPolicy = "round-robin"
	// DispatchJSQ joins the shortest queue: the replica with the fewest
	// unfinished requests (queued plus decoding) per unit of capacity,
	// ties to the lowest replica index.
	DispatchJSQ DispatchPolicy = "jsq"
	// DispatchLeastKV picks the replica with the least outstanding KV
	// demand per unit of capacity — the sum of total tokens (prompt+output)
	// of its unfinished requests, a token-weighted shortest queue that sees
	// the difference between ten chat turns and ten long batch jobs.
	DispatchLeastKV DispatchPolicy = "least-kv"
	// DispatchSessionAffinity routes a request whose session prefix is
	// resident on an active replica to that replica — lowest index first,
	// though a session pins to one home so at most one replica holds its
	// prefix in practice — and everything else (first turns, invalidated
	// prefixes, homes that are down or draining) through the
	// ClusterConfig.AffinityBase policy, jsq when unset. Pair it with
	// ServerConfig.PrefixReuse: without residency every probe misses and
	// the policy degenerates to exactly its base.
	DispatchSessionAffinity DispatchPolicy = "session-affinity"
)

// DispatchPolicies lists the accepted policies in presentation order.
func DispatchPolicies() []DispatchPolicy {
	return []DispatchPolicy{DispatchRoundRobin, DispatchJSQ, DispatchLeastKV, DispatchSessionAffinity}
}

// ParseDispatch resolves a policy name ("" = round-robin). Names are
// case-insensitive and surrounding whitespace is ignored, so "JSQ" from a
// CLI flag or " least-kv " from a hand-edited conf file resolve like their
// canonical spellings. A near-miss ("sesion-affinity", "jqs") earns a
// did-you-mean suggestion, like conf's unknown-key diagnostics.
func ParseDispatch(name string) (DispatchPolicy, error) {
	norm := strings.ToLower(strings.TrimSpace(name))
	switch p := DispatchPolicy(norm); p {
	case "":
		return DispatchRoundRobin, nil
	case DispatchRoundRobin, DispatchJSQ, DispatchLeastKV, DispatchSessionAffinity:
		return p, nil
	}
	known := DispatchPolicies()
	names := make([]string, len(known))
	for i, p := range known {
		names[i] = string(p)
	}
	hint := ""
	if guess := NearestName(norm, names); guess != "" {
		hint = fmt.Sprintf("did you mean %q? ", guess)
	}
	return "", fmt.Errorf("serve: unknown dispatch policy %q (%shave %s)", name, hint, strings.Join(names, ", "))
}

// NearestName returns the known name closest to name in edit distance, the
// lexically first of equally close ones, or "" when none is within
// max(2, len(name)/3) edits: garbage should not earn a confident
// did-you-mean. conf's unknown-key hint uses it too.
func NearestName(name string, known []string) string {
	best, bestDist := "", max(2, len(name)/3)+1
	for _, k := range known {
		if d := editDistance(name, k); d < bestDist || (d == bestDist && k < best) {
			best, bestDist = k, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b (unit costs),
// computed with a rolling single-row table.
func editDistance(a, b string) int {
	row := make([]int, len(a)+1)
	for i := range row {
		row[i] = i
	}
	for j := 1; j <= len(b); j++ {
		diag := row[0] // the previous row's entry left of the one being filled
		row[0] = j
		for i := 1; i <= len(a); i++ {
			sub := diag
			if a[i-1] != b[j-1] {
				sub++
			}
			diag = row[i]
			row[i] = min(row[i-1]+1, row[i]+1, sub)
		}
	}
	return row[len(a)]
}

// Autoscaler defaults (see ClusterConfig).
const (
	DefaultScaleUpDepth   = 4
	DefaultScaleDownDepth = 1
	DefaultScaleCooldown  = 250 * time.Millisecond
)

// ReplicaOverride customizes one replica of a heterogeneous cluster. The
// zero value inherits everything from the cluster-wide configuration.
type ReplicaOverride struct {
	// Capacity is the replica's relative serving capacity (0 = 1). The
	// load-aware dispatch policies (jsq, least-kv) divide the replica's
	// observed load by it, so a Capacity-2 replica legitimately absorbs
	// twice the demand of a Capacity-1 peer instead of looking "twice as
	// loaded" at the same queue depth. It is a dispatch weight only; the
	// caller sizes the replica's actual pool and batch to match (MaxBatch
	// here, pool capacity in the cache-manager factory).
	Capacity float64
	// MaxBatch overrides ServerConfig.MaxBatch for this replica (0 =
	// inherit the cluster-wide value).
	MaxBatch int
	// Aging overrides ServerConfig.Aging for this replica (0 = inherit).
	Aging time.Duration
}

// ClusterConfig tunes a multi-replica serving cluster.
type ClusterConfig struct {
	// Replicas is the number of replica servers. With autoscaling off
	// (MaxReplicas == 0) it is the fixed fleet size and must be >= 1. With
	// autoscaling on it is the initial fleet size and may be left 0 to
	// start at MinReplicas.
	Replicas int
	// Dispatch assigns arrivals to replicas ("" = round-robin).
	Dispatch DispatchPolicy
	// AffinityBase is the fallback policy session-affinity dispatch uses
	// for requests with no resident prefix anywhere ("" = jsq). It is only
	// accepted alongside DispatchSessionAffinity and cannot itself be
	// session-affinity.
	AffinityBase DispatchPolicy
	// Server is the per-replica continuous-batching configuration,
	// including the priority-aging rate (Server.Aging).
	Server ServerConfig

	// Overrides customizes replica i via Overrides[i]; replicas beyond the
	// slice (including autoscaled spawns past its end) use the cluster-wide
	// defaults. It must not be longer than the maximum fleet size.
	Overrides []ReplicaOverride

	// MaxReplicas > 0 enables queue-depth autoscaling: the scheduler
	// watches the cluster backlog in virtual time and keeps between
	// MinReplicas and MaxReplicas replicas active. MinReplicas 0 means 1.
	// The scaler spawns a replica when the queued backlog exceeds
	// ScaleUpDepth per active replica, and starts draining one when the
	// backlog would leave at most ScaleDownDepth per remaining replica.
	// A draining replica accepts no new dispatches and leaves the fleet
	// only after it has fully emptied; scale-ups reuse draining or drained
	// replicas before growing the fleet. Consecutive scale decisions are
	// at least ScaleCooldown of virtual time apart. All decisions happen
	// at event boundaries of the co-simulation, so elastic runs are as
	// deterministic as static ones.
	MinReplicas int
	MaxReplicas int
	// ScaleUpDepth is the queued-requests-per-active-replica backlog that
	// triggers a spawn (0 = DefaultScaleUpDepth).
	ScaleUpDepth int
	// ScaleDownDepth is the backlog per remaining replica below which one
	// replica starts draining (0 = DefaultScaleDownDepth; use a negative
	// value to effectively never scale down).
	ScaleDownDepth int
	// ScaleCooldown is the minimum virtual time between scale decisions
	// (0 = DefaultScaleCooldown).
	ScaleCooldown time.Duration

	// Steal enables work-stealing re-dispatch: when a replica is starving
	// (nothing decoding, nothing admissible) while another holds queued
	// requests beyond what it can admit, the scheduler re-dispatches the
	// backlogged replica's lowest-ranked queued request — never a running
	// one — to the idle replica. Dispatch stops being decide-once at
	// arrival. Stealing works on static and elastic fleets alike.
	Steal bool

	// Faults injects deterministic replica crash/restart events (the zero
	// value injects none and leaves every fault-handling path inert). A
	// crashed replica loses its KV cache and in-flight sequences, leaves
	// dispatch, and rejoins empty at its restart event. See FaultConfig.
	Faults FaultConfig
	// Recovery is the crash-retry policy for in-flight requests lost to a
	// crash: bounded retries with exponential backoff and a per-class
	// retry budget. The zero value abandons crashed in-flight work (it is
	// counted in ClusterReport.Lost); queued requests on a crashed replica
	// are always re-dispatched free of charge. See RecoveryConfig.
	Recovery RecoveryConfig
}

// ClusterReport summarizes one cluster serving run.
type ClusterReport struct {
	// Report is the cluster-level view. Counters (served, steps, admit
	// failures, blocked steps, preemptions) are summed over replicas,
	// MeanWaste and MeanBatch are step-weighted means, Duration is the
	// longest replica makespan, and PeakUsed/PeakLogical sum the per-
	// replica peaks (an upper bound on the cluster-wide footprint, since
	// replicas peak at different virtual times). The latency percentiles
	// and per-class rows are recomputed from the union of the replicas'
	// raw per-request samples — merging percentiles by averaging them
	// would be statistically meaningless.
	Report
	// Replicas are the per-replica reports, indexed by replica. Every
	// replica that ever joined the fleet appears, drained ones included.
	// A request that was stolen counts in the report of the replica that
	// finally served it.
	Replicas []Report
	// Assigned[i] is how many requests the dispatcher sent to replica i
	// at arrival. With stealing on, a request may be re-dispatched later;
	// Assigned keeps the original decision, Stolen records the moves.
	Assigned []int
	// Stolen[i] is how many queued requests replica i stole from a
	// backlogged peer (all zero unless ClusterConfig.Steal).
	Stolen []int

	// PeakReplicas is the largest number of simultaneously active
	// replicas; Spawns and Drains count scale-up decisions (including
	// drain cancellations and re-activations) and completed drains.
	// Without autoscaling PeakReplicas is the static fleet size and
	// Spawns/Drains are zero.
	PeakReplicas int
	Spawns       int
	Drains       int
	// ReplicaSeconds is the virtual time integral of the active fleet:
	// the sum over replicas of their spawn-to-drain (or spawn-to-end)
	// spans — the fleet cost an autoscaler exists to shrink.
	ReplicaSeconds time.Duration

	// Retries counts granted re-dispatches of requests that were decoding
	// on a replica when it crashed; Lost counts the ones abandoned because
	// the retry cap or their class's retry budget was exhausted (queued
	// requests displaced by a crash are re-dispatched without consuming
	// either, and appear in neither counter — nor in Assigned, which only
	// records arrival-time dispatch decisions).
	Retries int
	Lost    int
	// AffinityRouted counts dispatch decisions session-affinity resolved
	// by prefix residency; the policy's remaining decisions fell back to
	// AffinityBase. Zero under every other dispatch policy.
	AffinityRouted int
	// Availability is the capacity-weighted fraction of provisioned
	// replica time the fleet was actually up:
	// 1 − Σᵢ capᵢ·downᵢ / Σᵢ capᵢ·spanᵢ, the down and busy spans both on
	// the virtual clock. Exactly 1 on a zero-fault run.
	Availability float64
}

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
	// every touch bumps it, so events pushed earlier become stale and are
	// discarded on pop instead of being searched for and removed (lazy
	// invalidation).
	eventSeq uint64
}

// repEvent is one replica's pending next-event entry in the global heap.
// The ordering (time, then replica index) reproduces the old scan's
// tie-break: among simultaneous events the lowest-index replica runs first.
type repEvent struct {
	at  time.Duration
	ri  int
	seq uint64
}

// clusterSched is the cluster scheduler: the admission queue, the fleet and
// the elastic machinery, advanced one event at a time.
type clusterSched struct {
	cfg      ClusterConfig
	dispatch DispatchPolicy
	// base is session-affinity's fallback policy (jsq unless
	// cfg.AffinityBase overrides it); unused under other dispatches.
	base           DispatchPolicy
	affinityRouted int
	newMgr         func(int) CacheManager
	reqs           []Request
	queue          []int // input indexes in arrival order
	qi             int
	fleet          []*clusterReplica
	rr             int // round-robin cursor over active replicas

	// events is the single global event spine: one (next-event time,
	// replica) entry per replica with work, min-ordered by (time, index).
	// Advancing the co-simulation is an O(log fleet) pop instead of the old
	// O(fleet) scan of every replica's clock per event — on large fleets
	// the scan was exactly the lock-step polling the event-driven design
	// exists to avoid. Entries are invalidated lazily via eventSeq.
	events *container.Heap[repEvent]

	elastic      bool
	minReplicas  int
	upDepth      int
	downDepth    int
	cooldown     time.Duration
	lastScale    time.Duration
	scaled       bool          // a scale decision happened (gates cooldown)
	now          time.Duration // monotonic cluster event clock
	spawns       int
	drains       int
	peakReplicas int

	// Fault-injection and recovery state. faults is nil on a zero-fault
	// run, which keeps every fault path below unreachable and the schedule
	// byte-identical to the pre-fault scheduler.
	faults     *faultSource
	retryDelay time.Duration
	backoff    float64
	// pool holds crash-displaced requests awaiting re-dispatch (and
	// arrivals that landed while every replica was down), ordered by
	// (eligible-at, insertion order).
	pool    *container.Heap[redispatch]
	poolSeq uint64
	// attempts counts granted retries per lifetime record; classRetries
	// charges them against the per-class retry budget.
	attempts     map[*track]int
	classRetries map[string]int
	retries      int
	lost         int
}

// redispatch is one request waiting in the scheduler's re-dispatch pool:
// its lifetime record, the FIFO ticket it keeps when it was merely queued
// (hasTicket; a retried in-flight request instead draws a fresh ticket from
// its destination, like a preemption requeue), and the earliest cluster
// instant it may re-enter dispatch — the displacement instant itself for
// queued requests and parked arrivals, crash time plus exponential backoff
// for granted retries.
type redispatch struct {
	rec       *track
	ticket    int64
	hasTicket bool
	at        time.Duration
	seq       uint64 // FIFO tie-break among equal eligibility instants
}

// resolveOverride returns replica i's override (zero value past the slice).
func (cfg ClusterConfig) resolveOverride(i int) ReplicaOverride {
	if i < len(cfg.Overrides) {
		return cfg.Overrides[i]
	}
	return ReplicaOverride{}
}

// serverConfig is replica i's effective per-server configuration.
func (cfg ClusterConfig) serverConfig(i int) ServerConfig {
	sc := cfg.Server
	o := cfg.resolveOverride(i)
	if o.MaxBatch > 0 {
		sc.MaxBatch = o.MaxBatch
	}
	if o.Aging > 0 {
		sc.Aging = o.Aging
	}
	return sc
}

// Validate checks the full cluster configuration without running anything.
// ServeCluster performs the same checks; callers that assemble a
// configuration from user input (flags, conf strings) can call Validate
// first to report configuration mistakes as such, rather than as serving
// failures.
func (cfg ClusterConfig) Validate() error {
	_, _, err := cfg.validate()
	return err
}

// validate checks the whole configuration up front — including every
// replica configuration the run could ever instantiate — so mid-run spawns
// cannot fail.
func (cfg ClusterConfig) validate() (initial, fleetMax int, err error) {
	if cfg.MinReplicas < 0 || cfg.MaxReplicas < 0 {
		return 0, 0, fmt.Errorf("serve: negative replica bounds [%d, %d]", cfg.MinReplicas, cfg.MaxReplicas)
	}
	if cfg.ScaleCooldown < 0 {
		return 0, 0, fmt.Errorf("serve: negative scale cooldown %v", cfg.ScaleCooldown)
	}
	if cfg.MaxReplicas > 0 {
		min := cfg.MinReplicas
		if min == 0 {
			min = 1
		}
		if min > cfg.MaxReplicas {
			return 0, 0, fmt.Errorf("serve: min replicas %d above max %d", min, cfg.MaxReplicas)
		}
		initial, fleetMax = min, cfg.MaxReplicas
		if cfg.Replicas != 0 {
			if cfg.Replicas < min || cfg.Replicas > cfg.MaxReplicas {
				return 0, 0, fmt.Errorf("serve: initial replicas %d outside [%d, %d]",
					cfg.Replicas, min, cfg.MaxReplicas)
			}
			initial = cfg.Replicas
		}
	} else {
		if cfg.MinReplicas > 0 || cfg.ScaleUpDepth > 0 || cfg.ScaleDownDepth != 0 || cfg.ScaleCooldown > 0 {
			return 0, 0, fmt.Errorf("serve: autoscaling knobs need MaxReplicas > 0")
		}
		if cfg.Replicas <= 0 {
			return 0, 0, fmt.Errorf("serve: cluster needs >= 1 replica, got %d", cfg.Replicas)
		}
		initial, fleetMax = cfg.Replicas, cfg.Replicas
	}
	if len(cfg.Overrides) > fleetMax {
		return 0, 0, fmt.Errorf("serve: %d replica overrides for a fleet of at most %d",
			len(cfg.Overrides), fleetMax)
	}
	// Fleet-uniform server knobs, checked here so Validate is a complete
	// pre-flight (newEmptyServer re-checks them at each spawn).
	if cfg.Server.Timeout < 0 {
		return 0, 0, fmt.Errorf("serve: negative request timeout %v", cfg.Server.Timeout)
	}
	if cfg.Server.Shed && cfg.Server.Timeout == 0 {
		return 0, 0, fmt.Errorf("serve: shed needs a timeout to shed against")
	}
	dispatch, err := ParseDispatch(string(cfg.Dispatch))
	if err != nil {
		return 0, 0, err
	}
	if cfg.AffinityBase != "" && dispatch != DispatchSessionAffinity {
		return 0, 0, fmt.Errorf("serve: affinity base %q needs session-affinity dispatch, not %q", cfg.AffinityBase, dispatch)
	}
	if dispatch == DispatchSessionAffinity {
		base, err := ParseDispatch(string(cfg.AffinityBase))
		if err != nil {
			return 0, 0, err
		}
		if base == DispatchSessionAffinity {
			return 0, 0, fmt.Errorf("serve: affinity base cannot itself be session-affinity")
		}
	}
	if err := cfg.Faults.validate(fleetMax); err != nil {
		return 0, 0, err
	}
	if err := cfg.Recovery.validate(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < fleetMax; i++ {
		o := cfg.resolveOverride(i)
		if o.Capacity < 0 || math.IsNaN(o.Capacity) || math.IsInf(o.Capacity, 0) {
			return 0, 0, fmt.Errorf("serve: replica %d capacity %v", i, o.Capacity)
		}
		if o.MaxBatch < 0 || o.Aging < 0 {
			return 0, 0, fmt.Errorf("serve: replica %d override %+v", i, o)
		}
		sc := cfg.serverConfig(i)
		if sc.MaxBatch <= 0 {
			return 0, 0, fmt.Errorf("serve: replica %d max batch %d", i, sc.MaxBatch)
		}
		if sc.StepTime < 0 || sc.PrefillTokenTime < 0 || sc.Aging < 0 {
			return 0, 0, fmt.Errorf("serve: replica %d negative durations in config %+v", i, sc)
		}
	}
	return initial, fleetMax, nil
}

// ServeCluster runs the requests on a multi-replica serving cluster: a
// cluster-level admission queue releases each request at its arrival time to
// one replica, chosen by the dispatch policy from the replicas' states at
// that instant, and every replica runs the same SLO-aware continuous-
// batching loop as Serve on its own cache manager and virtual clock. newMgr
// builds replica i's cache manager — each replica must get its own manager
// (and, for pool-backed managers, its own allocator and device) — and is
// also invoked mid-run when the autoscaler grows the fleet.
//
// The fleet can be heterogeneous (ClusterConfig.Overrides: per-replica
// capacity weight, batch limit and aging), elastic (MinReplicas/MaxReplicas
// queue-depth autoscaling with drain-on-empty), and work-stealing
// (ClusterConfig.Steal re-dispatches queued — never running — requests from
// a backlogged replica to a starving one).
//
// The co-simulation is event-driven and fully deterministic: the scheduler
// always advances the earliest event (an arrival, or the replica with the
// smallest next-event time, ties to the lowest replica index), and scaling
// and stealing decisions happen only at those event boundaries, so the same
// input produces a byte-identical ClusterReport on every run. With one
// replica (static, stealing off — or MinReplicas == MaxReplicas == 1) the
// scheduler degenerates to exactly Serve's loop — dispatched requests carry
// their input position as the FIFO ticket, replaying Serve's up-front
// numbering whatever order the input arrived in — and the output is
// identical to Serve's report.
//
// On a replica error (a request that fits nowhere, a stuck decode) the
// partial reports of every replica are sealed and returned with the error;
// requests still waiting in the cluster queue appear in the merged class
// roster with nothing served, exactly as Serve reports requests it never
// started.
func ServeCluster(reqs []Request, newMgr func(replica int) CacheManager, cfg ClusterConfig) (ClusterReport, error) {
	if newMgr == nil {
		return ClusterReport{}, fmt.Errorf("serve: cluster needs a cache-manager factory")
	}
	c, err := newClusterSched(reqs, newMgr, cfg)
	if err != nil {
		return ClusterReport{}, err
	}
	return c.run()
}

func newClusterSched(reqs []Request, newMgr func(int) CacheManager, cfg ClusterConfig) (*clusterSched, error) {
	initial, fleetMax, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	dispatch, err := ParseDispatch(string(cfg.Dispatch))
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Enabled() && cfg.Server.OnComplete != nil {
		// Exactly-once completion guarantee under faults: the capture hook
		// fires on the final completion only, even if a request is ever
		// retried or re-dispatched along the way, deduplicated by request
		// ID. Zero-fault runs keep the caller's hook untouched.
		inner := cfg.Server.OnComplete
		fired := map[int]bool{}
		cfg.Server.OnComplete = func(r Request) {
			if fired[r.ID] {
				return
			}
			fired[r.ID] = true
			inner(r)
		}
	}

	base := DispatchJSQ
	if dispatch == DispatchSessionAffinity && cfg.AffinityBase != "" {
		// Validated above; ParseDispatch only normalizes spelling here.
		base, _ = ParseDispatch(string(cfg.AffinityBase))
	}

	c := &clusterSched{
		cfg:         cfg,
		dispatch:    dispatch,
		base:        base,
		newMgr:      newMgr,
		reqs:        reqs,
		elastic:     cfg.MaxReplicas > 0,
		minReplicas: cfg.MinReplicas,
		upDepth:     cfg.ScaleUpDepth,
		downDepth:   cfg.ScaleDownDepth,
		cooldown:    cfg.ScaleCooldown,
		events: container.NewHeap[repEvent](func(a, b repEvent) bool {
			if a.at != b.at {
				return a.at < b.at
			}
			return a.ri < b.ri
		}),
	}
	if c.minReplicas == 0 {
		c.minReplicas = 1
	}
	if c.upDepth == 0 {
		c.upDepth = DefaultScaleUpDepth
	}
	if c.downDepth == 0 {
		c.downDepth = DefaultScaleDownDepth
	}
	if c.cooldown == 0 {
		c.cooldown = DefaultScaleCooldown
	}
	if cfg.Faults.Enabled() {
		c.faults = newFaultSource(cfg.Faults, fleetMax)
		c.pool = container.NewHeap[redispatch](func(a, b redispatch) bool {
			if a.at != b.at {
				return a.at < b.at
			}
			return a.seq < b.seq
		})
		c.attempts = map[*track]int{}
		c.classRetries = map[string]int{}
		c.retryDelay = cfg.Recovery.RetryDelay
		if c.retryDelay == 0 {
			c.retryDelay = DefaultRetryDelay
		}
		c.backoff = cfg.Recovery.Backoff
		if c.backoff == 0 {
			c.backoff = DefaultBackoff
		}
	}

	// The cluster admission queue: input indexes in arrival-time order,
	// input order preserved among ties. Dispatch releases requests in this
	// order but tickets them by input index, matching Serve's numbering.
	c.queue = make([]int, len(reqs))
	for i := range c.queue {
		c.queue[i] = i
	}
	sort.SliceStable(c.queue, func(i, j int) bool {
		return reqs[c.queue[i]].ArrivalAt < reqs[c.queue[j]].ArrivalAt
	})

	for i := 0; i < initial; i++ {
		if err := c.spawn(); err != nil {
			return nil, err
		}
	}
	c.peakReplicas = initial
	return c, nil
}

// spawn appends a fresh replica to the fleet with the cluster clock as its
// busy-span start. Configurations were validated up front, so construction
// cannot fail mid-run in practice.
func (c *clusterSched) spawn() error {
	i := len(c.fleet)
	s, err := newEmptyServer(c.newMgr(i), c.cfg.serverConfig(i))
	if err != nil {
		return err
	}
	// Reserve the global ticket range [0, len(reqs)) for dispatched
	// requests; requeued preemptions draw above it, exactly as Serve's
	// up-front enqueue would have numbered them.
	s.nextTkt = int64(len(c.reqs))
	w := c.cfg.resolveOverride(i).Capacity
	if w == 0 {
		w = 1
	}
	c.fleet = append(c.fleet, &clusterReplica{srv: s, capacity: w, spawnAt: c.now})
	return nil
}

// advance moves the monotonic cluster clock to the event being processed.
func (c *clusterSched) advance(t time.Duration) {
	if t > c.now {
		c.now = t
	}
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

// autoscale is the queue-depth scaler, evaluated at every event boundary.
// It first retires draining replicas that have emptied, then — outside the
// cooldown — takes at most one scale decision against the queued backlog
// per active replica.
func (c *clusterSched) autoscale() {
	if !c.elastic {
		return
	}
	c.retireDrained()
	if c.scaled && c.now-c.lastScale < c.cooldown {
		return
	}
	active, backlog := 0, c.poolLen()
	for _, r := range c.fleet {
		if r.state == replicaStopped {
			continue
		}
		backlog += r.srv.pendingLen()
		if r.state == replicaActive {
			active++
		}
	}
	if backlog > c.upDepth*active && active < c.cfg.MaxReplicas {
		c.scaleUp()
		c.spawns++
		if a := c.activeCount(); a > c.peakReplicas {
			c.peakReplicas = a
		}
		c.scaled, c.lastScale = true, c.now
		return
	}
	if active > c.minReplicas && backlog <= c.downDepth*(active-1) {
		// Drain the highest-index active replica: the fleet shrinks from
		// the top, mirroring how it grew.
		for i := len(c.fleet) - 1; i >= 0; i-- {
			if c.fleet[i].state == replicaActive {
				c.fleet[i].state = replicaDraining
				break
			}
		}
		c.scaled, c.lastScale = true, c.now
	}
}

// retireDrained completes drain-on-idle: a draining replica leaves the
// fleet only once it has neither queued nor running work. Its busy span
// closes at its own clock — the virtual instant it finished its last
// request. Called at every autoscale evaluation and once more at seal, so
// a drain that completes on the run's final event still counts.
func (c *clusterSched) retireDrained() {
	for _, r := range c.fleet {
		if r.state == replicaDraining && r.srv.pendingLen() == 0 && len(r.srv.running) == 0 {
			r.state = replicaStopped
			end := r.srv.now
			if end < r.spawnAt {
				end = r.spawnAt
			}
			r.busy += end - r.spawnAt
			c.drains++
		}
	}
}

// scaleUp adds one active replica, cheapest first: cancel a drain in
// progress, re-activate a drained replica, and only then grow the fleet.
func (c *clusterSched) scaleUp() {
	for _, r := range c.fleet {
		if r.state == replicaDraining {
			r.state = replicaActive // busy span never closed: it continues
			return
		}
	}
	for _, r := range c.fleet {
		if r.state == replicaStopped {
			r.state = replicaActive
			r.spawnAt = c.now // a new busy span opens
			return
		}
	}
	if err := c.spawn(); err != nil {
		// Unreachable: every config in [0, fleetMax) was validated.
		panic("serve: mid-run spawn failed: " + err.Error())
	}
}

// pick chooses the replica for an arriving request among the active ones.
// Load-aware policies normalize by the replica's capacity, so a Capacity-2
// replica absorbs twice the demand before looking equally loaded. Under
// session-affinity a request whose session prefix is resident on an active
// replica goes home to it regardless of load — that is the TTFT-versus-
// imbalance trade the policy exists to measure — and every other request
// falls back to the base policy.
func (c *clusterSched) pick(req Request) int {
	policy := c.dispatch
	if policy == DispatchSessionAffinity {
		if req.SessionID != "" {
			for i, r := range c.fleet {
				if r.state == replicaActive && r.srv.hasResident(req.SessionID) {
					c.affinityRouted++
					return i
				}
			}
		}
		policy = c.base
	}
	switch policy {
	case DispatchJSQ:
		best, bestLoad := -1, 0.0
		for i, r := range c.fleet {
			if r.state != replicaActive {
				continue
			}
			l := float64(r.srv.pendingLen()+len(r.srv.running)) / r.capacity
			if best == -1 || l < bestLoad {
				best, bestLoad = i, l
			}
		}
		return best
	case DispatchLeastKV:
		best, bestLoad := -1, 0.0
		for i, r := range c.fleet {
			if r.state != replicaActive {
				continue
			}
			l := float64(r.dispatchedTokens-r.srv.doneTokens) / r.capacity
			if best == -1 || l < bestLoad {
				best, bestLoad = i, l
			}
		}
		return best
	default: // round-robin cycles the active replicas in index order
		act := make([]int, 0, len(c.fleet))
		for i, r := range c.fleet {
			if r.state == replicaActive {
				act = append(act, i)
			}
		}
		p := act[c.rr%len(act)]
		c.rr++
		return p
	}
}

// trySteal performs at most one work-stealing re-dispatch: the lowest-index
// starving active replica takes the lowest-ranked queued request from the
// peer with the largest un-admissible backlog. Only queued requests move —
// a decoding sequence is never migrated — and the stolen request keeps its
// FIFO ticket, so the move is exactly a late dispatch decision.
func (c *clusterSched) trySteal() bool {
	thief := -1
	for i, r := range c.fleet {
		if r.state == replicaActive && len(r.srv.running) == 0 && r.srv.ready.Len() == 0 {
			thief = i
			break
		}
	}
	if thief == -1 {
		return false
	}
	victim, excess := -1, 0
	for i, r := range c.fleet {
		if i == thief || r.state == replicaStopped {
			continue
		}
		if e := r.srv.stealableExcess(); e > excess {
			victim, excess = i, e
		}
	}
	if victim == -1 {
		return false
	}
	// On a heterogeneous fleet the thief's pool may be smaller than the
	// victim's: a request that cannot fit the idle thief even alone must
	// stay queued where it is (stealing it would abort the run as a hard
	// admission failure). A trial admit answers exactly that question; the
	// reservation is released immediately either way.
	cand := c.fleet[victim].srv.ready.Max()
	if cand == nil {
		return false
	}
	if h, err := c.fleet[thief].srv.mgr.Admit(cand.Value.rec.req); err != nil {
		return false
	} else {
		c.fleet[thief].srv.mgr.Release(h)
	}
	w, ok := c.fleet[victim].srv.stealWorstReady()
	if !ok {
		return false
	}
	tokens := int64(w.rec.req.TotalTokens())
	c.fleet[victim].dispatchedTokens -= tokens
	c.fleet[thief].dispatchedTokens += tokens
	c.fleet[thief].srv.acceptStolen(w, c.now)
	c.fleet[thief].stolen++
	c.touch(victim)
	c.touch(thief)
	return true
}

// touch re-registers replica ri in the event heap after anything that can
// change its next-event time (a dispatch, a step, a steal). The previous
// entry — if any — becomes stale via the sequence bump; a fresh entry is
// pushed only when the replica still has work. Every replica therefore has
// at most one live entry, keyed by its current nextEventTime.
func (c *clusterSched) touch(ri int) {
	r := c.fleet[ri]
	r.eventSeq++
	if t, ok := r.srv.nextEventTime(); ok {
		c.events.Push(repEvent{at: t, ri: ri, seq: r.eventSeq})
	}
}

// nextEvent returns the earliest live replica event without consuming it,
// discarding stale entries; ri == -1 means every replica is idle.
func (c *clusterSched) nextEvent() (tRep time.Duration, ri int) {
	for c.events.Len() > 0 {
		ev := c.events.Peek()
		r := c.fleet[ev.ri]
		if ev.seq != r.eventSeq || r.state == replicaStopped || r.state == replicaDown {
			c.events.Pop() // stale: superseded, or the replica retired or crashed
			continue
		}
		return ev.at, ev.ri
	}
	return 0, -1
}

// run drives the co-simulation to completion: pop the earliest event —
// fault injection, an eligible re-dispatch, an arrival, or a replica step —
// advance the monotonic cluster clock to it, and re-touch exactly the
// replicas it mutated. On a zero-fault configuration the fault and pool
// branches are unreachable (c.faults is nil) and the loop is the pre-fault
// scheduler, event for event.
func (c *clusterSched) run() (ClusterReport, error) {
	for {
		tRep, ri := c.nextEvent()
		if ri == -1 && c.qi >= len(c.queue) && c.poolLen() == 0 {
			break // drained; fault events past the last work are moot
		}
		haveArr := c.qi < len(c.queue)
		var tArr time.Duration
		if haveArr {
			tArr = c.reqs[c.queue[c.qi]].ArrivalAt
		}
		// Fault events fire first at any boundary they precede or share:
		// a crash at t kills the replica before the arrival at t lands.
		if c.faults != nil && c.injectFault(tRep, ri, tArr, haveArr) {
			continue
		}
		// An eligible pool entry precedes arrivals and steps at its
		// instant: displaced requests are older than anything arriving now.
		// The pool is gated on a dispatch target existing; while every
		// replica is down it waits for the restart that the fault branch
		// above will eventually inject.
		if c.poolLen() > 0 && c.activeCount() > 0 {
			e := c.pool.Peek()
			if (!haveArr || e.at <= tArr) && (ri == -1 || e.at <= tRep) {
				c.pool.Pop()
				c.advance(e.at)
				c.autoscale()
				c.redispatchOne(e)
				continue
			}
		}
		// Dispatch an arrival when it is due at or before the next replica
		// event — the policy then sees every replica's state as of the
		// arrival instant, exactly like admission sees arrivals that
		// landed during the previous decode step.
		if haveArr && (ri == -1 || tArr <= tRep) {
			req := c.reqs[c.queue[c.qi]]
			c.advance(req.ArrivalAt)
			c.autoscale()
			if c.faults != nil && c.activeCount() == 0 {
				// Every replica is down (or draining): park the arrival in
				// the pool — no retry consumed — until a restart or a
				// scale-up restores a dispatch target.
				c.poolPush(&track{req: req}, int64(c.queue[c.qi]), true, req.ArrivalAt)
				c.qi++
				continue
			}
			r := c.pick(req)
			c.fleet[r].srv.addRequest(req, int64(c.queue[c.qi]))
			c.fleet[r].assigned++
			c.fleet[r].dispatchedTokens += int64(req.TotalTokens())
			c.qi++
			c.touch(r)
			continue
		}
		if ri == -1 {
			// Work remains only in a blocked pool, and no fault event is
			// pending to unblock it (a scripted plan ran dry).
			return c.seal(fmt.Errorf("serve: %d request(s) stranded in the re-dispatch pool with no active replica and no pending restart", c.poolLen()))
		}
		c.advance(tRep)
		c.autoscale()
		if c.cfg.Steal && c.trySteal() {
			continue // fleet state changed; the steal re-touched both sides
		}
		if _, err := c.fleet[ri].srv.runOnce(); err != nil {
			return c.seal(fmt.Errorf("serve: replica %d: %w", ri, err))
		}
		c.touch(ri)
	}
	return c.seal(nil)
}

// injectFault applies the next pending fault event iff it is due at or
// before every other actionable event — the event-boundary injection
// contract: faults never interrupt a decode step, they land between steps,
// so a faulty run is exactly as deterministic as a fault-free one. Returns
// whether an event was consumed.
func (c *clusterSched) injectFault(tRep time.Duration, ri int, tArr time.Duration, haveArr bool) bool {
	fe, ok := c.faults.peek()
	if !ok {
		return false
	}
	if haveArr && tArr < fe.At {
		return false
	}
	if ri != -1 && tRep < fe.At {
		return false
	}
	if c.poolLen() > 0 && c.activeCount() > 0 && c.pool.Peek().at < fe.At {
		return false
	}
	c.faults.pop()
	c.advance(fe.At)
	c.applyFault(fe)
	c.autoscale()
	return true
}

// applyFault routes one fault event. Crashes only touch replicas that are
// up (active or draining); restarts only touch crashed ones; anything else
// — including events aimed at replicas the autoscaler never spawned — is a
// no-op, so MTTF streams and scripted plans stay valid whatever the fleet
// actually did.
func (c *clusterSched) applyFault(fe FaultEvent) {
	if fe.Replica >= len(c.fleet) {
		return
	}
	r := c.fleet[fe.Replica]
	switch fe.Kind {
	case FaultCrash:
		if r.state == replicaActive || r.state == replicaDraining {
			c.crashReplica(fe.Replica)
		}
	case FaultRestart:
		if r.state == replicaDown {
			c.restartReplica(fe.Replica)
		}
	}
}

// crashReplica kills replica ri at the current cluster instant. The server
// tears down its KV and batch (recompute semantics — see (*server).crash);
// displaced queued requests re-enter dispatch through the pool immediately
// and for free, while in-flight ones must win a retry grant — bounded per
// request and per class — or be abandoned as lost. Either way the
// replica's outstanding-KV gauge drains to zero, keeping load-aware
// dispatch honest about the survivors.
func (c *clusterSched) crashReplica(ri int) {
	r := c.fleet[ri]
	inflight, queued := r.srv.crash(c.now)
	r.state = replicaDown
	r.downSince = c.now
	r.eventSeq++ // its pending heap entry, if any, is now stale
	for _, w := range queued {
		r.dispatchedTokens -= int64(w.rec.req.TotalTokens())
		c.poolPush(w.rec, w.seq, true, c.now)
	}
	for _, rec := range inflight {
		r.dispatchedTokens -= int64(rec.req.TotalTokens())
		if k, ok := c.grantRetry(rec); ok {
			delay := time.Duration(float64(c.retryDelay) * math.Pow(c.backoff, float64(k-1)))
			c.poolPush(rec, 0, false, c.now+delay)
		} else {
			c.lost++
			// The request dies with the replica that was serving it: it
			// joins that replica's roster (keeping its TTFT if it had
			// already streamed), like any other unfinished request.
			r.srv.recordUnfinished(rec)
		}
	}
}

// restartReplica brings a crashed replica back, empty, into dispatch at
// the current cluster instant, closing its outage span. A replica that
// crashed while draining rejoins as active — its backlog died with it —
// and the autoscaler is free to drain it again.
func (c *clusterSched) restartReplica(ri int) {
	r := c.fleet[ri]
	r.downTotal += c.now - r.downSince
	r.state = replicaActive
	r.srv.restart(c.now)
	r.eventSeq++
}

// grantRetry charges one retry for rec against the per-request cap and its
// class's budget, returning the 1-based attempt number when granted.
func (c *clusterSched) grantRetry(rec *track) (int, bool) {
	if c.cfg.Recovery.Retries <= 0 {
		return 0, false
	}
	k := c.attempts[rec]
	if k >= c.cfg.Recovery.Retries {
		return 0, false
	}
	if b := c.cfg.Recovery.RetryBudget; b > 0 && c.classRetries[rec.class()] >= b {
		return 0, false
	}
	c.attempts[rec] = k + 1
	c.classRetries[rec.class()]++
	c.retries++
	return k + 1, true
}

// poolPush parks a request in the re-dispatch pool.
func (c *clusterSched) poolPush(rec *track, ticket int64, hasTicket bool, at time.Duration) {
	c.poolSeq++
	c.pool.Push(redispatch{rec: rec, ticket: ticket, hasTicket: hasTicket, at: at, seq: c.poolSeq})
}

// poolLen is the re-dispatch pool's size (0 when faults are disabled).
func (c *clusterSched) poolLen() int {
	if c.pool == nil {
		return 0
	}
	return c.pool.Len()
}

// redispatchOne sends one pool entry to the replica the dispatch policy
// picks at the current instant — a late dispatch decision for displaced
// queued requests and parked arrivals (which keep their FIFO ticket), a
// recompute requeue for retried in-flight ones (which draw a fresh ticket
// at the destination). Callers guarantee an active replica exists.
func (c *clusterSched) redispatchOne(e redispatch) {
	ri := c.pick(e.rec.req)
	r := c.fleet[ri]
	if e.hasTicket {
		r.srv.acceptStolen(waiting{rec: e.rec, seq: e.ticket}, c.now)
	} else {
		r.srv.acceptRedispatch(e.rec, c.now)
	}
	r.dispatchedTokens += int64(e.rec.req.TotalTokens())
	c.touch(ri)
}

// seal finalizes every replica and assembles the cluster report. All slices
// in the report are freshly allocated — never views of scheduler state — so
// a caller mutating the report cannot corrupt anything read later.
func (c *clusterSched) seal(err error) (ClusterReport, error) {
	if c.elastic {
		// A drain that completed on the run's very last event has not been
		// through an autoscale evaluation yet — retire it before counting.
		c.retireDrained()
	}
	rep := ClusterReport{
		Replicas:     make([]Report, len(c.fleet)),
		Assigned:     make([]int, len(c.fleet)),
		Stolen:       make([]int, len(c.fleet)),
		PeakReplicas: c.peakReplicas,
		Spawns:       c.spawns,
		Drains:       c.drains,
	}
	servers := make([]*server, len(c.fleet))
	// A replica still in the fleet at the end of the run was provisioned
	// until the cluster makespan, idle tail included — that is what makes
	// ReplicaSeconds of a static N-replica fleet exactly N × makespan, the
	// baseline elastic drains are measured against. Drained replicas
	// closed their spans at their own drain instant.
	var makespan time.Duration
	for _, r := range c.fleet {
		if r.srv.now > makespan {
			makespan = r.srv.now
		}
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
			end := makespan
			if end < r.downSince {
				end = r.downSince
			}
			r.downTotal += end - r.downSince
		}
		if r.state != replicaStopped {
			end := makespan
			if end < r.spawnAt {
				end = r.spawnAt
			}
			r.busy += end - r.spawnAt
			r.state = replicaStopped
		}
		rep.ReplicaSeconds += r.busy
		weightedSpan += r.capacity * float64(r.busy)
		weightedDown += r.capacity * float64(r.downTotal)
	}
	rep.Retries = c.retries
	rep.Lost = c.lost
	rep.AffinityRouted = c.affinityRouted
	rep.Availability = 1
	if weightedSpan > 0 {
		rep.Availability = 1 - weightedDown/weightedSpan
	}
	// Requests never released from the cluster queue (the run failed
	// first) still belong in the merged roster, unserved — as do requests
	// stranded in the re-dispatch pool (error paths only: a completed run
	// drains it).
	undispatched := make([]Request, 0, len(c.queue)-c.qi+c.poolLen())
	for _, idx := range c.queue[c.qi:] {
		undispatched = append(undispatched, c.reqs[idx])
	}
	for c.poolLen() > 0 {
		undispatched = append(undispatched, c.pool.Pop().rec.req)
	}
	rep.Report = mergeReports(servers, undispatched)
	return rep, err
}

// mergeReports builds the cluster-level Report by merging the replicas'
// streaming latency digests: percentiles of the union of per-request
// samples, never averages of per-replica percentiles. While the combined
// sample count of a digest fits the exact-retention threshold the union
// stays raw and the merged percentiles are exact (byte-identical to the old
// record concatenation); past it the union lives in a mergeable quantile
// sketch, whose bucket-wise merge makes the result independent of replica
// order. undispatched requests (present only when a failed run sealed
// early) join the class roster without samples. Replicas must already be
// finished: finish seals each replica's digests, including the unfinished-
// request walk this merge relies on.
func mergeReports(replicas []*server, undispatched []Request) Report {
	var m Report
	var steps int
	var wasteSum, batchSum float64
	// The fleet shares one ExactSamples setting (per-replica overrides
	// cover capacity, batch and aging only), so replica 0's limit is the
	// cluster's.
	limit := replicas[0].exactSamples
	merged := map[string]*classAgg{}
	ensure := func(name, slo string) *classAgg {
		a := merged[name]
		if a == nil {
			a = newClassAgg(slo, limit)
			merged[name] = a
		}
		return a
	}
	allTTFT, allE2E := newLatDigest(limit), newLatDigest(limit)
	preempt := map[string]int64{}
	tokenSteps := map[string]*float64{}
	var totalTokenSteps float64
	for i := range undispatched {
		rec := track{req: undispatched[i]}
		ensure(rec.class(), rec.req.SLO)
	}
	for _, s := range replicas {
		m.Served += s.rep.Served
		m.PeakUsed += s.rep.PeakUsed
		m.PeakLogical += s.rep.PeakLogical
		m.AdmitFailures += s.rep.AdmitFailures
		m.BlockedSteps += s.rep.BlockedSteps
		m.Preemptions += s.rep.Preemptions
		m.Crashes += s.rep.Crashes
		m.Restarts += s.rep.Restarts
		m.DeadlineMisses += s.rep.DeadlineMisses
		m.Shed += s.rep.Shed
		m.Goodput += s.rep.Goodput
		m.PrefixHits += s.rep.PrefixHits
		m.PrefixMisses += s.rep.PrefixMisses
		m.ReusedTokens += s.rep.ReusedTokens
		if s.rep.Duration > m.Duration {
			m.Duration = s.rep.Duration
		}
		steps += s.rep.Steps
		wasteSum += s.wasteSum
		batchSum += s.batchSum
		names := make([]string, 0, len(s.classes))
		for name := range s.classes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := s.classes[name]
			dst := ensure(name, a.slo)
			dst.served += a.served
			dst.ttft.merge(a.ttft)
			dst.e2e.merge(a.e2e)
		}
		allTTFT.merge(s.allTTFT)
		allE2E.merge(s.allE2E)
		for c, n := range s.classPreempt {
			preempt[c] += n
		}
		for c, t := range s.classTokenSteps {
			b := tokenSteps[c]
			if b == nil {
				b = new(float64)
				tokenSteps[c] = b
			}
			*b += *t
		}
		totalTokenSteps += s.totalTokenSteps
	}
	m.Steps = steps
	if steps > 0 {
		m.MeanWaste = wasteSum / float64(steps)
		m.MeanBatch = batchSum / float64(steps)
	}
	m.Classes = classRows(merged, steps, preempt, tokenSteps, totalTokenSteps)
	m.TTFT = allTTFT.summary()
	m.E2E = allE2E.summary()
	m.RetainedSamples, m.SketchedSamples = digestFootprint(merged, allTTFT, allE2E)
	return m
}
