// Package cluster simulates a full data-parallel job: one device, driver and
// allocator per rank, stepped in lockstep with barrier semantics.
//
// The single-rank harness runs "rank 0" and relies on data-parallel symmetry,
// which is exact when every rank sees identically-shaped batches. In real
// dynamic-shape training each rank draws different samples, so ranks
// fragment differently — and a job dies when *any* rank OOMs, making the
// worst rank's reserved memory the operative number. This package quantifies
// that gap (the harness's `cluster` experiment) and doubles as a multi-GPU
// integration test of the whole stack.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config describes one cluster job.
type Config struct {
	// Spec is the per-rank workload; Spec.World is the number of ranks.
	Spec workload.Spec

	// Allocator names the allocator every rank uses, one of
	// conf.Backends(); "" is the caching default.
	Allocator string

	// Capacity is per-GPU memory in bytes.
	Capacity int64

	// SharedShapes makes every rank draw identical batch shapes (the
	// symmetric approximation); when false, each rank seeds its own shape
	// stream, as with real per-rank data loaders.
	SharedShapes bool
}

// Rank is one simulated GPU plus its allocator and trainer.
type Rank struct {
	ID      int
	Device  *gpu.Device
	Driver  *cuda.Driver
	Clock   *sim.Clock
	Alloc   memalloc.Allocator
	Trainer *workload.Trainer
}

// Cluster is a running multi-rank job.
type Cluster struct {
	cfg   Config
	ranks []*Rank
	steps int
}

// New assembles a cluster; Setup must be called before stepping.
func New(cfg Config) (*Cluster, error) {
	spec, err := cfg.Spec.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 80 * sim.GiB
	}
	c := &Cluster{cfg: cfg}
	for r := 0; r < spec.World; r++ {
		dev := gpu.NewDevice(fmt.Sprintf("sim-gpu-%d", r), cfg.Capacity)
		clock := sim.NewClock()
		driver := cuda.NewDriver(dev, clock, sim.DefaultCostModel())
		alloc, err := conf.Config{Backend: cfg.Allocator}.Build(driver)
		if err != nil {
			return nil, err
		}
		rankSpec := spec
		if !cfg.SharedShapes {
			// Distinct shape streams per rank, as with per-rank data
			// loaders.
			rankSpec.Seed = spec.Seed + uint64(r)*0x9e3779b9
		}
		tr, err := workload.NewTrainer(rankSpec, alloc, clock)
		if err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, &Rank{
			ID: r, Device: dev, Driver: driver, Clock: clock,
			Alloc: alloc, Trainer: tr,
		})
	}
	return c, nil
}

// Ranks returns the cluster's ranks.
func (c *Cluster) Ranks() []*Rank { return c.ranks }

// Steps returns the completed lockstep count.
func (c *Cluster) Steps() int { return c.steps }

// Setup allocates every rank's persistent state. The first rank failure
// aborts the job, mirroring a collective launch.
func (c *Cluster) Setup() error {
	for _, r := range c.ranks {
		if err := r.Trainer.Setup(); err != nil {
			return fmt.Errorf("cluster: rank %d: %w", r.ID, err)
		}
	}
	c.barrier()
	return nil
}

// Step runs one training step on every rank and synchronizes their clocks at
// the gradient barrier: the job advances at the slowest rank's pace. An OOM
// on any rank fails the whole step, as a collective would.
func (c *Cluster) Step() error {
	for _, r := range c.ranks {
		if err := r.Trainer.Step(); err != nil {
			return fmt.Errorf("cluster: rank %d: %w", r.ID, err)
		}
	}
	c.barrier()
	c.steps++
	return nil
}

// barrier advances every rank's clock to the slowest rank's time.
func (c *Cluster) barrier() {
	var max time.Duration
	for _, r := range c.ranks {
		if t := r.Clock.Now(); t > max {
			max = t
		}
	}
	for _, r := range c.ranks {
		r.Clock.AdvanceTo(max)
	}
}

// Teardown frees every rank's state.
func (c *Cluster) Teardown() {
	for _, r := range c.ranks {
		r.Trainer.Teardown()
	}
}

// Summary aggregates the job-level numbers.
type Summary struct {
	Ranks            int
	Steps            int
	Elapsed          time.Duration
	MaxPeakReserved  int64 // worst rank — the OOM-relevant figure
	MinPeakReserved  int64
	MeanPeakReserved int64
	MaxPeakActive    int64
	MinUtilization   float64
}

// Summarize reports the cluster's aggregate statistics.
func (c *Cluster) Summarize() Summary {
	s := Summary{Ranks: len(c.ranks), Steps: c.steps, MinUtilization: 1}
	if len(c.ranks) == 0 {
		return s
	}
	s.MinPeakReserved = int64(1<<62 - 1)
	var total int64
	for _, r := range c.ranks {
		st := r.Alloc.Stats()
		total += st.PeakReserved
		if st.PeakReserved > s.MaxPeakReserved {
			s.MaxPeakReserved = st.PeakReserved
		}
		if st.PeakReserved < s.MinPeakReserved {
			s.MinPeakReserved = st.PeakReserved
		}
		if st.PeakActive > s.MaxPeakActive {
			s.MaxPeakActive = st.PeakActive
		}
		if u := st.Utilization(); u < s.MinUtilization {
			s.MinUtilization = u
		}
	}
	s.MeanPeakReserved = total / int64(len(c.ranks))
	s.Elapsed = c.ranks[0].Clock.Now()
	return s
}

// RankSkew returns the worst-to-mean peak-reserved ratio: 1.0 under
// perfectly symmetric ranks, above it when per-rank shape streams fragment
// ranks differently.
func (s Summary) RankSkew() float64 {
	if s.MeanPeakReserved == 0 {
		return 1
	}
	return float64(s.MaxPeakReserved) / float64(s.MeanPeakReserved)
}
