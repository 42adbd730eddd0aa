// Package conf parses PYTORCH_CUDA_ALLOC_CONF-style configuration strings
// and builds the selected allocator. The paper stresses that switching
// between the caching allocator and GMLake "is notably convenient by
// switching certain configurations" — this package is that switch:
//
//	backend:gmlake
//	backend:caching,max_split_size_mb:128,garbage_collection_threshold:0.8
//	backend:gmlake,frag_limit_mb:256,max_sblocks:4096
//
// A string is comma-separated key:value pairs, and unknown keys are errors
// (typos in environment variables should never be silent) that name the
// nearest key. The same string carries the serving configuration —
// workload mix, cluster, elastic fleet, sessions, faults and recovery,
// request traces:
//
//	backend:gmlake,serve_mix:chat+batch,burst_cv:4,replicas:4,dispatch:jsq
//
// Every key — its name, its flag, its one-line description and the values
// it takes — is one entry of the fields table in fields.go, and Validate
// holds the rules that span keys; nothing else lists them. `gmlake-serve
// -h` is the table rendered. Build consumes the six allocator keys;
// ServeWorkload the mix keys. The cluster, session, elastic, fault and
// recovery keys write their leaves of Config.Cluster, a serve.ClusterConfig
// (one replica unless replicas or max_replicas says otherwise) that
// cmd/gmlake-serve completes with the batch limit and the fault seed — the
// two things no key names — and serves as it is; cmd/gmlake-bench takes
// one of the keys' flags, -parallel. (internal/harness is configured
// through its own Env fields and uses this package only to build its rigs'
// allocators by name.)
package conf

import (
	"fmt"
	"strings"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/expandable"
	"repro/internal/memalloc"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

// Config is a parsed allocator configuration.
type Config struct {
	// Backend selects the allocator, one of Backends(); "" is the first
	// of them, the caching default.
	Backend string

	// Caching knobs (PYTORCH_CUDA_ALLOC_CONF names).
	MaxSplitSizeMB int64
	GCThreshold    float64

	// GMLake knobs.
	FragLimitMB int64 // 0 = paper default
	MaxSBlocks  int   // 0 = default
	RebindSplit *bool // nil = default (on)

	// Serving-workload knobs (applied by ServeWorkload, ignored by Build).
	ServeMix  string  // named client mix ("" = none configured)
	ServeRate float64 // aggregate requests/second override (0 = mix default)
	BurstCV   float64 // bursty-class interarrival CV override (0 = mix default)

	// Request-trace knobs (internal/reqtrace; consumed by gmlake-serve,
	// ignored by Build). TraceScale and Fit require TraceIn — Validate
	// rejects them without it.
	TraceIn    string  // replay this trace file instead of a synthetic mix
	TraceOut   string  // capture the completed run into this trace file
	TraceScale float64 // replay rate multiplier (0 = recorded rate)
	Fit        bool    // serve the mix fitted to TraceIn, with a fit report

	// Cluster is the serving-cluster configuration the serving runners
	// hand to serve.ServeCluster, and the only copy of its knobs: every
	// cluster, session, elastic, fault and recovery key writes its leaf
	// directly. replicas, dispatch, affinity_base, min_replicas,
	// max_replicas, scale_up, scale_down, scale_cooldown and steal land on
	// the ClusterConfig itself, replica_caps as Overrides[i].Capacity;
	// aging, exact_samples, prefix_reuse, timeout and shed on Server;
	// mttf, mttr and fault_plan on Faults; retries, backoff and
	// retry_budget on Recovery. Parse sets Replicas to 1 when neither
	// replicas nor max_replicas is given. No key names Server.MaxBatch,
	// Faults.Seed or a replica's MaxBatch override: the caller fills them.
	// Build ignores Cluster.
	Cluster serve.ClusterConfig

	// Parallelism bounds the worker pool of consumers that sweep
	// independent cells (the experiment engine, policy comparisons).
	// 0 — the default — means GOMAXPROCS; negative values are rejected
	// at parse time.
	Parallelism int
}

// ServeWorkload resolves the configured client mix with the rate and
// burstiness overrides applied. When no serve_mix key was given, name
// defaults to the mixed bursty workload.
func (c Config) ServeWorkload() (servegen.Mix, error) {
	name := c.ServeMix
	if name == "" {
		name = "mixed-bursty"
	}
	m, err := servegen.MixByName(name)
	if err != nil {
		return servegen.Mix{}, err
	}
	if c.ServeRate > 0 {
		m = m.WithRate(c.ServeRate)
	}
	if c.BurstCV > 0 {
		m = m.WithBurstCV(c.BurstCV)
	}
	return m, nil
}

// Parse parses a configuration string. The empty string is the default
// caching backend.
func Parse(s string) (Config, error) { return parse(s, nil) }

// parse sets the keys of s, then the flag assignments over them, and
// validates the result.
func parse(s string, flags []assignment) (Config, error) {
	cfg := Config{Backend: backends[0].name}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, ":")
		if !ok {
			return cfg, fmt.Errorf("conf: %q is not key:value", kv)
		}
		if err := setKey(&cfg, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
			return cfg, err
		}
	}
	for _, a := range flags {
		if err := a.f.set(&cfg, a.f.key, a.val); err != nil {
			return cfg, err
		}
	}
	if cfg.Cluster.Replicas == 0 && cfg.Cluster.MaxReplicas == 0 {
		cfg.Cluster.Replicas = 1 // an unconfigured static fleet is one server
	}
	return cfg, cfg.Validate()
}

// Validate checks the rules that span keys: a knob whose subject is
// missing would silently do nothing, which hides a typo'd or forgotten
// key. Parse and Flags.Parse call it on the merged configuration.
func (c Config) Validate() error {
	cc := c.Cluster
	switch {
	case c.Fit && c.TraceIn == "":
		return fmt.Errorf("conf: fit requires trace_in")
	case c.TraceScale > 0 && c.TraceIn == "":
		return fmt.Errorf("conf: trace_scale requires trace_in")
	case (cc.Faults.MTTF > 0) != (cc.Faults.MTTR > 0):
		return fmt.Errorf("conf: mttf and mttr must be set together")
	case len(cc.Faults.Plan) > 0 && cc.Faults.MTTF > 0:
		return fmt.Errorf("conf: fault_plan and mttf/mttr are mutually exclusive")
	case cc.Recovery.Retries > 0 && cc.Server.Timeout == 0:
		return fmt.Errorf("conf: retries requires timeout (unbounded retries need a deadline)")
	case cc.Recovery.Backoff > 0 && cc.Recovery.Retries == 0:
		return fmt.Errorf("conf: backoff requires retries")
	case cc.Recovery.RetryBudget > 0 && cc.Recovery.Retries == 0:
		return fmt.Errorf("conf: retry_budget requires retries")
	case cc.Server.Shed && cc.Server.Timeout == 0:
		return fmt.Errorf("conf: shed requires timeout")
	case cc.AffinityBase != "" && cc.Dispatch != serve.DispatchSessionAffinity:
		return fmt.Errorf("conf: affinity_base requires dispatch:session-affinity")
	}
	return nil
}

// A backend is one allocator the backend key selects.
type backend struct {
	name  string
	pools bool // caches freed device memory (all but the native strawman)
	build func(c Config, driver *cuda.Driver) memalloc.Allocator
}

// backends is the one table of allocators by name, in the row order of a
// side-by-side comparison; the first is the default. The backend key
// validates against it, Build constructs from it, and everything that
// picks an allocator by name — the harness rigs, gmlake-replay, the
// differential tests, the examples — goes through Backends/Pools and
// Build.
var backends = []backend{
	{"caching", true, func(c Config, driver *cuda.Driver) memalloc.Allocator {
		return caching.NewWithConfig(driver, caching.Config{
			MaxSplitSize: c.MaxSplitSizeMB * sim.MiB,
			GCThreshold:  c.GCThreshold,
		})
	}},
	{"gmlake", true, func(c Config, driver *cuda.Driver) memalloc.Allocator {
		gc := core.DefaultConfig()
		if c.FragLimitMB > 0 {
			gc.FragLimit = c.FragLimitMB * sim.MiB
		}
		if c.MaxSBlocks > 0 {
			gc.MaxSBlocks = c.MaxSBlocks
		}
		if c.RebindSplit != nil {
			gc.RebindOnSplit = *c.RebindSplit
		}
		return core.New(driver, gc)
	}},
	{"expandable", true, func(_ Config, driver *cuda.Driver) memalloc.Allocator { return expandable.New(driver) }},
	{"compact", true, func(_ Config, driver *cuda.Driver) memalloc.Allocator { return expandable.NewCompact(driver) }},
	{"native", false, func(_ Config, driver *cuda.Driver) memalloc.Allocator { return memalloc.NewNative(driver) }},
}

// Backends returns every backend name, in table order.
func Backends() []string { return backendNames(false) }

// Pools returns the backends that pool device memory — the rows of an
// allocator comparison; native, which holds nothing back, is left out.
func Pools() []string { return backendNames(true) }

func backendNames(poolsOnly bool) []string {
	var names []string
	for _, b := range backends {
		if b.pools || !poolsOnly {
			names = append(names, b.name)
		}
	}
	return names
}

func findBackend(name string) (backend, error) {
	for _, b := range backends {
		if b.name == name {
			return b, nil
		}
	}
	return backend{}, fmt.Errorf("conf: unknown backend %q", name)
}

// Build constructs the configured allocator over driver. The zero Config
// builds the default caching backend.
func (c Config) Build(driver *cuda.Driver) (memalloc.Allocator, error) {
	if c.Backend == "" {
		c.Backend = backends[0].name
	}
	b, err := findBackend(c.Backend)
	if err != nil {
		return nil, err
	}
	return b.build(c, driver), nil
}

// New parses s and builds the allocator in one step.
func New(s string, driver *cuda.Driver) (memalloc.Allocator, error) {
	cfg, err := Parse(s)
	if err != nil {
		return nil, err
	}
	return cfg.Build(driver)
}
