package serve

import (
	"fmt"
	"math"
	"time"
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
	// DefaultScaleUpDepth per active replica, and starts draining one when
	// the backlog would leave at most DefaultScaleDownDepth per remaining
	// replica. A draining replica accepts no new dispatches and leaves the
	// fleet only after it has fully emptied; scale-ups reuse draining or
	// drained replicas before growing the fleet. Consecutive scale
	// decisions are at least DefaultScaleCooldown of virtual time apart.
	// All decisions happen at event boundaries of the co-simulation, so
	// elastic runs are as deterministic as static ones.
	MinReplicas int
	MaxReplicas int

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
	// crash: bounded retries with exponential backoff. The zero value
	// abandons crashed in-flight work (it is counted in ClusterReport.Lost);
	// queued requests on a crashed replica are always re-dispatched free of
	// charge. See RecoveryConfig.
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
	// their retry cap was exhausted (queued requests displaced by a crash
	// are re-dispatched without consuming a retry, and appear in neither
	// counter — nor in Assigned, which only records arrival-time dispatch
	// decisions).
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
// cannot fail. Every replica past Overrides has the same configuration, so
// the replicas checked are the overridden ones and the first one after them:
// the cost does not grow with the fleet ceiling.
func (cfg ClusterConfig) validate() (initial, fleetMax int, err error) {
	if cfg.MinReplicas < 0 || cfg.MaxReplicas < 0 {
		return 0, 0, fmt.Errorf("serve: negative replica bounds [%d, %d]", cfg.MinReplicas, cfg.MaxReplicas)
	}
	if cfg.MaxReplicas > 0 {
		min := max(cfg.MinReplicas, 1)
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
		if cfg.MinReplicas > 0 {
			return 0, 0, fmt.Errorf("serve: min replicas %d need MaxReplicas > 0", cfg.MinReplicas)
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
	if _, _, err := cfg.dispatchPolicies(); err != nil {
		return 0, 0, err
	}
	if err := cfg.Faults.validate(fleetMax); err != nil {
		return 0, 0, err
	}
	if err := cfg.Recovery.validate(); err != nil {
		return 0, 0, err
	}
	for i := range min(fleetMax, len(cfg.Overrides)+1) {
		o := cfg.resolveOverride(i)
		if o.Capacity < 0 || math.IsNaN(o.Capacity) || math.IsInf(o.Capacity, 0) {
			return 0, 0, fmt.Errorf("serve: replica %d capacity %v", i, o.Capacity)
		}
		if o.MaxBatch < 0 {
			return 0, 0, fmt.Errorf("serve: replica %d override %+v", i, o)
		}
		if err := cfg.serverConfig(i).validate(i); err != nil {
			return 0, 0, err
		}
	}
	return initial, fleetMax, nil
}

// dispatchPolicies resolves the two policy names: Dispatch ("" = round-robin,
// like everywhere ParseDispatch is used) and, under session-affinity only,
// the base it falls back to — where "" means jsq, not round-robin.
func (cfg ClusterConfig) dispatchPolicies() (dispatch, base DispatchPolicy, err error) {
	if dispatch, err = ParseDispatch(string(cfg.Dispatch)); err != nil {
		return "", "", err
	}
	if dispatch != DispatchSessionAffinity {
		if cfg.AffinityBase != "" {
			return "", "", fmt.Errorf("serve: affinity base %q needs session-affinity dispatch, not %q", cfg.AffinityBase, dispatch)
		}
		return dispatch, "", nil
	}
	base = DispatchJSQ
	if cfg.AffinityBase != "" {
		if base, err = ParseDispatch(string(cfg.AffinityBase)); err != nil {
			return "", "", err
		}
	}
	if base == DispatchSessionAffinity {
		return "", "", fmt.Errorf("serve: affinity base cannot itself be session-affinity")
	}
	return dispatch, base, nil
}

// withDefaults resolves every "zero means the default" knob of a validated
// configuration, once, so the scheduler reads its cfg directly.
func (cfg ClusterConfig) withDefaults() ClusterConfig {
	cfg.Dispatch, cfg.AffinityBase, _ = cfg.dispatchPolicies()
	cfg.MinReplicas = max(cfg.MinReplicas, 1)
	if cfg.Recovery.Backoff == 0 {
		cfg.Recovery.Backoff = DefaultBackoff
	}
	return cfg
}

// ServeCluster runs the requests on a multi-replica serving cluster: a
// cluster-level admission queue releases each request at its arrival time to
// one replica, chosen by the dispatch policy from the replicas' states at
// that instant, and every replica runs Serve's SLO-aware continuous-batching
// loop on its own cache manager and virtual clock. newMgr builds replica i's
// cache manager — each replica must get its own manager (and, for
// pool-backed managers, its own allocator and device) — and is also invoked
// mid-run when the autoscaler grows the fleet.
//
// The fleet can be heterogeneous (ClusterConfig.Overrides: per-replica
// capacity weight and batch limit), elastic (MinReplicas/MaxReplicas
// queue-depth autoscaling with drain-on-empty), and work-stealing
// (ClusterConfig.Steal re-dispatches queued — never running — requests from
// a backlogged replica to a starving one).
//
// The co-simulation is event-driven and fully deterministic: the scheduler
// always advances the earliest event (a fault, an eligible re-dispatch, an
// arrival, or the replica with the smallest next-event time, ties in that
// order and then to the lowest replica index), and scaling
// and stealing decisions happen only at those event boundaries, so the same
// input produces a byte-identical ClusterReport on every run. Dispatched
// requests carry their input position as the FIFO ticket, whatever order the
// input arrived in. Serve is this scheduler over one static replica, so with
// one replica (stealing off — or MinReplicas == MaxReplicas == 1) the
// cluster report is Serve's. The scheduler reads reqs in place and never
// writes it.
//
// On a replica error (a request that fits nowhere, a stuck decode) the
// partial reports of every replica are sealed and returned with the error,
// which names the replica; requests still waiting in the cluster queue
// appear in the merged class roster with nothing served.
func ServeCluster(reqs []Request, newMgr func(replica int) CacheManager, cfg ClusterConfig) (ClusterReport, error) {
	if newMgr == nil {
		return ClusterReport{}, fmt.Errorf("serve: cluster needs a cache-manager factory")
	}
	c, err := newClusterSched(reqs, newMgr, cfg)
	if err != nil {
		return ClusterReport{}, err
	}
	rep, failed, err := c.run()
	if failed >= 0 {
		err = fmt.Errorf("serve: replica %d: %w", failed, err)
	}
	return rep, err
}
