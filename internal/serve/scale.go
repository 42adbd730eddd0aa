package serve

import "time"

// Autoscaler defaults (see ClusterConfig).
const (
	DefaultScaleUpDepth   = 4
	DefaultScaleDownDepth = 1
	DefaultScaleCooldown  = 250 * time.Millisecond
)

// scaler is the queue-depth autoscaler's own state; its knobs are the
// scheduler's ClusterConfig. Idle (and all zero but peakReplicas) on a
// static fleet.
type scaler struct {
	lastScale    time.Duration
	scaled       bool // a scale decision happened (gates the cooldown)
	spawns       int
	drains       int
	peakReplicas int
}

// evaluate runs at every event boundary. It first retires draining replicas
// that have emptied, then — outside the cooldown — takes at most one scale
// decision against the queued backlog per active replica.
func (s *scaler) evaluate(c *clusterSched) {
	if c.cfg.MaxReplicas == 0 {
		return
	}
	s.retire(c.fleet)
	if s.scaled && c.now-s.lastScale < c.cfg.ScaleCooldown {
		return
	}
	active, backlog := 0, c.recovery.poolLen()
	for _, r := range c.fleet {
		if r.state == replicaStopped {
			continue
		}
		backlog += r.srv.pendingLen()
		if r.state == replicaActive {
			active++
		}
	}
	switch {
	case backlog > c.cfg.ScaleUpDepth*active && active < c.cfg.MaxReplicas:
		c.activateOne()
		s.spawns++
		s.peakReplicas = max(s.peakReplicas, active+1)
	case active > c.cfg.MinReplicas && backlog <= c.cfg.ScaleDownDepth*(active-1):
		// Drain the highest-index active replica: the fleet shrinks from
		// the top, mirroring how it grew.
		for i := len(c.fleet) - 1; i >= 0; i-- {
			if c.fleet[i].state == replicaActive {
				c.fleet[i].state = replicaDraining
				break
			}
		}
	default:
		return
	}
	s.scaled, s.lastScale = true, c.now
}

// retire completes drain-on-idle: a draining replica leaves the fleet only
// once it has neither queued nor running work. Its busy span closes at its
// own clock — the virtual instant it finished its last request. Called at
// every evaluation and once more at seal, so a drain that completes on the
// run's final event still counts.
func (s *scaler) retire(fleet []*clusterReplica) {
	for _, r := range fleet {
		if r.state == replicaDraining && r.srv.pendingLen() == 0 && len(r.srv.running) == 0 {
			r.state = replicaStopped
			r.busy += max(r.srv.now, r.spawnAt) - r.spawnAt
			s.drains++
		}
	}
}

// activateOne adds one active replica, cheapest first: cancel a drain in
// progress, re-activate a drained replica, and only then grow the fleet.
func (c *clusterSched) activateOne() {
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
