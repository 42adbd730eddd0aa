package conf

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

func newDriver() *cuda.Driver {
	return cuda.NewDriver(gpu.NewDevice("t", sim.GiB), sim.NewClock(), sim.DefaultCostModel())
}

func TestParseDefaults(t *testing.T) {
	cfg, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backend != "caching" {
		t.Fatalf("default backend %q", cfg.Backend)
	}
}

func TestParseFullCachingString(t *testing.T) {
	cfg, err := Parse("backend:caching, max_split_size_mb:128, garbage_collection_threshold:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxSplitSizeMB != 128 || cfg.GCThreshold != 0.8 {
		t.Fatalf("%+v", cfg)
	}
}

func TestParseGMLakeKnobs(t *testing.T) {
	cfg, err := Parse("backend:gmlake,frag_limit_mb:256,max_sblocks:4096,rebind_on_split:false")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backend != "gmlake" || cfg.FragLimitMB != 256 || cfg.MaxSBlocks != 4096 {
		t.Fatalf("%+v", cfg)
	}
	if cfg.RebindSplit == nil || *cfg.RebindSplit {
		t.Fatal("rebind_on_split:false not captured")
	}
}

// parseErrorCases is also a seed table of FuzzParse.
var parseErrorCases = []string{
	"backend:turbo",                    // unknown backend
	"max_split_size_mb:-1",             // negative
	"max_split_size_mb:lots",           // not a number
	"garbage_collection_threshold:1.5", // out of range
	"garbage_collection_threshold:NaN", // NaN is in no range
	"rebind_on_split:perhaps",          // not a bool
	"frag_limit_mb",                    // not key:value
	"warp_speed:9",                     // unknown key
	"max_sblocks:0",                    // zero
}

func TestParseErrors(t *testing.T) {
	for _, s := range parseErrorCases {
		if _, err := Parse(s); err == nil {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestParseSkipsEmptySegments(t *testing.T) {
	cfg, err := Parse("backend:gmlake,,")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backend != "gmlake" {
		t.Fatalf("%+v", cfg)
	}
}

func TestBuildAllBackends(t *testing.T) {
	for _, s := range []string{
		"",
		"backend:gmlake",
		"backend:native",
		"backend:expandable",
		"backend:compact",
		"backend:caching,max_split_size_mb:64",
		"backend:gmlake,frag_limit_mb:64,max_sblocks:128,rebind_on_split:true",
	} {
		a, err := New(s, newDriver())
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		b, err := a.Alloc(4 * sim.MiB)
		if err != nil {
			t.Fatalf("%q: alloc: %v", s, err)
		}
		a.Free(b)
		if got := a.Stats().Active; got != 0 {
			t.Fatalf("%q: active %d after free", s, got)
		}
	}
}

// TestBackendTable: the backend key and Build accept exactly the names of
// the backend table — each builds the allocator of that name — and Pools is
// the table without native. (cmd/gmlake-replay's test holds its -alloc
// values and help text to the same Backends().)
func TestBackendTable(t *testing.T) {
	for _, name := range Backends() {
		cfg, err := Parse("backend:" + name)
		if err != nil || cfg.Backend != name {
			t.Errorf("backend:%s parses to %q, %v", name, cfg.Backend, err)
		}
		if a, err := (Config{Backend: name}).Build(newDriver()); err != nil || a.Name() != name {
			t.Errorf("Build(%s): %v, %v", name, a, err)
		}
	}
	for _, name := range []string{"caching-tuned", "Caching", "all"} {
		if _, err := Parse("backend:" + name); err == nil {
			t.Errorf("backend:%s parsed", name)
		}
		if _, err := (Config{Backend: name}).Build(newDriver()); err == nil {
			t.Errorf("Build(%s) built", name)
		}
	}
	if a, err := (Config{}).Build(newDriver()); err != nil || a.Name() != Backends()[0] {
		t.Errorf("the zero Config builds %v, %v; want the first backend", a, err)
	}
	if want := slices.DeleteFunc(Backends(), func(n string) bool { return n == "native" }); !slices.Equal(Pools(), want) {
		t.Errorf("Pools() = %v, want %v", Pools(), want)
	}
}

func TestNewPropagatesParseError(t *testing.T) {
	if _, err := New("backend:bogus", newDriver()); err == nil {
		t.Fatal("bad config built an allocator")
	}
}

func TestBuildRejectsUnknownBackendStruct(t *testing.T) {
	cfg := Config{Backend: "bogus"}
	if _, err := cfg.Build(newDriver()); err == nil {
		t.Fatal("unknown backend built")
	}
}

func TestParseServeKeys(t *testing.T) {
	cfg, err := Parse("backend:gmlake,serve_mix:chat+batch,serve_rate:6.5,burst_cv:4")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ServeMix != "chat+batch" || cfg.ServeRate != 6.5 || cfg.BurstCV != 4 {
		t.Fatalf("%+v", cfg)
	}
	mix, err := cfg.ServeWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if mix.Name != "mixed-bursty" {
		t.Fatalf("chat+batch resolved to %q", mix.Name)
	}
	if mix.Rate != 6.5 {
		t.Fatalf("serve_rate not applied: %g", mix.Rate)
	}
	for _, c := range mix.Classes {
		if c.Arrival.Kind == servegen.ArrivalGamma && c.Arrival.CV != 4 {
			t.Fatalf("burst_cv not applied to class %s: %g", c.Name, c.Arrival.CV)
		}
	}
	// The allocator half of the string still builds.
	if _, err := cfg.Build(newDriver()); err != nil {
		t.Fatal(err)
	}
}

func TestServeWorkloadDefaults(t *testing.T) {
	cfg, err := Parse("backend:caching")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ServeMix != "" {
		t.Fatalf("serve_mix %q without the key", cfg.ServeMix)
	}
	mix, err := cfg.ServeWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if mix.Name != "mixed-bursty" {
		t.Fatalf("default mix %q", mix.Name)
	}
	if mix.Rate != servegen.MixedBursty().Rate {
		t.Fatalf("default mix rate overridden: %g", mix.Rate)
	}
}

// parallelCases is also a seed table of FuzzParse.
var parallelCases = []struct {
	in   string
	want int
	ok   bool
}{
	{"parallel:0", 0, true},
	{"parallel:1", 1, true},
	{"parallel:8", 8, true},
	{"backend:gmlake,parallel:4", 4, true},
	{"parallel:-1", 0, false},
	{"parallel:-8", 0, false},
	{"parallel:NaN", 0, false},
	{"parallel:+Inf", 0, false},
	{"parallel:2.5", 0, false},
	{"parallel:many", 0, false},
	{"parallel:", 0, false},
}

// TestParseParallel is table-driven over the parallel:<n> engine knob:
// 0 (= GOMAXPROCS) and positive worker counts parse; negatives, floats,
// NaN and junk are rejected.
func TestParseParallel(t *testing.T) {
	for _, c := range parallelCases {
		cfg, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && cfg.Parallelism != c.want {
			t.Errorf("Parse(%q).Parallelism = %d, want %d", c.in, cfg.Parallelism, c.want)
		}
	}
}

// serveKeyErrorCases is also a seed table of FuzzParse.
var serveKeyErrorCases = []string{
	"serve_mix:nope",  // unknown mix
	"serve_rate:0",    // must be positive
	"serve_rate:fast", // not a number
	"serve_rate:NaN",  // NaN compares false to everything
	"serve_rate:+Inf", // infinite rate
	"burst_cv:-2",     // negative
	"burst_cv:-Inf",   // negative infinity
}

func TestParseServeKeyErrors(t *testing.T) {
	for _, s := range serveKeyErrorCases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseClusterKeys(t *testing.T) {
	cfg, err := Parse("backend:gmlake,serve_mix:mixed,replicas:4,dispatch:jsq,aging:2s")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.Replicas != 4 {
		t.Fatalf("replicas = %d", cc.Replicas)
	}
	if cc.Dispatch != serve.DispatchJSQ {
		t.Fatalf("dispatch = %q", cc.Dispatch)
	}
	if cc.Server.Aging != 2*time.Second {
		t.Fatalf("aging = %v", cc.Server.Aging)
	}
	// Unconfigured defaults: single server, round-robin, no aging.
	cfg, err = Parse("backend:caching")
	if err != nil {
		t.Fatal(err)
	}
	if cc = cfg.Cluster; cc.Replicas != 1 || cc.Dispatch != "" || cc.Server.Aging != 0 {
		t.Fatalf("cluster defaults polluted: %+v", cc)
	}
	if _, err := serve.ParseDispatch(string(cc.Dispatch)); err != nil {
		t.Fatal("empty dispatch must resolve to the default policy")
	}
}

func TestParseExactSamples(t *testing.T) {
	cfg, err := Parse("backend:gmlake,serve_mix:mixed,exact_samples:500")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.Server.ExactSamples != 500 {
		t.Fatalf("exact_samples = %d", cfg.Cluster.Server.ExactSamples)
	}
	// Negative means sketch-only, zero means the serve default: both valid.
	cfg, err = Parse("backend:caching,exact_samples:-1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.Server.ExactSamples != -1 {
		t.Fatalf("exact_samples = %d", cfg.Cluster.Server.ExactSamples)
	}
	if cfg, err = Parse("backend:caching"); err != nil || cfg.Cluster.Server.ExactSamples != 0 {
		t.Fatalf("exact_samples default: %d, %v", cfg.Cluster.Server.ExactSamples, err)
	}
	if _, err := Parse("exact_samples:lots"); err == nil {
		t.Fatal("accepted non-integer exact_samples")
	}
}

// clusterKeyErrorCases is also a seed table of FuzzParse.
var clusterKeyErrorCases = []string{
	"replicas:0",       // cluster needs at least one replica
	"replicas:-2",      // negative
	"replicas:many",    // not a number
	"dispatch:fastest", // unknown policy
	"aging:-1s",        // negative duration
	"aging:2 parsecs",  // not a duration
	"aging:1000000",    // missing unit
}

func TestParseClusterKeyErrors(t *testing.T) {
	for _, s := range clusterKeyErrorCases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseElasticKeys(t *testing.T) {
	cfg, err := Parse("min_replicas:1,max_replicas:6,scale_up:8,scale_down:2,scale_cooldown:500ms,steal:true,replica_caps:2/1/1.5")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.MinReplicas != 1 || cc.MaxReplicas != 6 {
		t.Fatalf("bounds = [%d, %d]", cc.MinReplicas, cc.MaxReplicas)
	}
	if cc.ScaleUpDepth != 8 || cc.ScaleDownDepth != 2 || cc.ScaleCooldown != 500*time.Millisecond {
		t.Fatalf("scaler knobs: %+v", cc)
	}
	if !cc.Steal {
		t.Fatal("steal:true not captured")
	}
	if want := []serve.ReplicaOverride{{Capacity: 2}, {Capacity: 1}, {Capacity: 1.5}}; !slices.Equal(cc.Overrides, want) {
		t.Fatalf("replica_caps = %+v", cc.Overrides)
	}
	// Dispatch names from conf strings may carry case and whitespace.
	cfg, err = Parse("dispatch: JSQ")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.Dispatch != serve.DispatchJSQ {
		t.Fatalf("dispatch = %q", cfg.Cluster.Dispatch)
	}
}

// elasticKeyErrorCases is also a seed table of FuzzParse.
var elasticKeyErrorCases = []string{
	"min_replicas:0",      // positive
	"max_replicas:-3",     // negative
	"scale_up:0",          // positive
	"scale_down:none",     // not a number
	"scale_cooldown:-1s",  // negative duration
	"steal:perhaps",       // not a bool
	"replica_caps:2/0/1",  // zero weight
	"replica_caps:2,1",    // comma splits keys, not weights
	"replica_caps:fast/1", // not a number
	"replica_caps:",       // empty
}

func TestParseElasticKeyErrors(t *testing.T) {
	for _, s := range elasticKeyErrorCases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestClusterAssembly(t *testing.T) {
	cfg, err := Parse("replicas:2,dispatch:least-kv,min_replicas:2,max_replicas:4,steal:true,replica_caps:2/1")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.Replicas != 2 || cc.MinReplicas != 2 || cc.MaxReplicas != 4 || !cc.Steal {
		t.Fatalf("%+v", cc)
	}
	if cc.Dispatch != serve.DispatchLeastKV {
		t.Fatalf("%+v", cc)
	}
	if len(cc.Overrides) != 2 || cc.Overrides[0].Capacity != 2 || cc.Overrides[1].Capacity != 1 {
		t.Fatalf("overrides = %+v", cc.Overrides)
	}
	// An unconfigured static fleet is one replica.
	plain, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if cc := plain.Cluster; cc.Replicas != 1 || cc.MaxReplicas != 0 {
		t.Fatalf("%+v", cc)
	}
	// With autoscaling on and no replicas key, the initial size is the
	// scaler's business (serve defaults it to MinReplicas).
	auto, err := Parse("max_replicas:4")
	if err != nil {
		t.Fatal(err)
	}
	if cc := auto.Cluster; cc.Replicas != 0 || cc.MaxReplicas != 4 {
		t.Fatalf("%+v", cc)
	}
}

// sessionKeyErrorCases is also a seed table of FuzzParse.
var sessionKeyErrorCases = []string{
	"prefix_reuse:maybe",                  // not a bool
	"affinity_base:fastest",               // unknown policy
	"affinity_base:",                      // empty
	"affinity_base:jsq",                   // needs session-affinity dispatch
	"dispatch:jsq,affinity_base:least-kv", // ditto, with dispatch set
	"dispatch:session-affinity,affinity_base:session-affinity", // self-referential
}

func TestParseSessionKeys(t *testing.T) {
	cfg, err := Parse("replicas:4,dispatch:session-affinity,affinity_base:least-kv,prefix_reuse:true")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.Dispatch != serve.DispatchSessionAffinity {
		t.Fatalf("dispatch = %q", cc.Dispatch)
	}
	if cc.AffinityBase != serve.DispatchLeastKV {
		t.Fatalf("affinity_base = %q", cc.AffinityBase)
	}
	if !cc.Server.PrefixReuse {
		t.Fatal("prefix_reuse:true not captured")
	}
	// Both default off: a sessionless conf string assembles the pre-session
	// scheduler exactly.
	cfg, err = Parse("backend:caching")
	if err != nil {
		t.Fatal(err)
	}
	if cc = cfg.Cluster; cc.Server.PrefixReuse || cc.AffinityBase != "" {
		t.Fatalf("session defaults polluted: %+v", cc)
	}
	// Affinity with no explicit base: serve defaults the base to jsq.
	if _, err := Parse("dispatch:session-affinity,prefix_reuse:true"); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessionKeyErrorCases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestClusterAssemblySessionKnobs(t *testing.T) {
	cfg, err := Parse("replicas:2,dispatch:session-affinity,affinity_base:least-kv,prefix_reuse:true")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.Dispatch != serve.DispatchSessionAffinity || cc.AffinityBase != serve.DispatchLeastKV {
		t.Fatalf("%+v", cc)
	}
	if !cc.Server.PrefixReuse {
		t.Fatal("prefix_reuse did not reach the server config")
	}
}
