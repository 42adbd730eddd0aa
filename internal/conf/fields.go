package conf

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// A field is one configuration key. The fields table below is the only
// description of the keys there is: Parse looks keys up in it, unknown-key
// suggestions come from it, gmlake-serve and gmlake-bench register their
// flags from it (RegisterFlags), and `gmlake-serve -h` prints its doc
// strings.
type field struct {
	key  string // conf key
	flag string // command-line flag of the same knob; "" = the key has no flag
	doc  string // one line; a `quoted` word names the flag's argument in -h
	setter
}

// A setter parses one value into its Config field; isBool marks the keys
// whose bare flag (-steal) means true.
type setter struct {
	set    func(c *Config, key, val string) error
	isBool bool
}

// parsed builds a setter from a value parser and the field it fills.
func parsed[T any](parse func(key, val string) (T, error), at func(*Config) *T) setter {
	_, isBool := any(*new(T)).(bool)
	return setter{isBool: isBool, set: func(c *Config, key, val string) error {
		v, err := parse(key, val)
		if err == nil {
			*at(c) = v
		}
		return err
	}}
}

var fields = []field{
	{"backend", "", "pool allocator, the first being the default: " + strings.Join(Backends(), ", "),
		parsed(parseBackend, func(c *Config) *string { return &c.Backend })},
	{"max_split_size_mb", "", "caching: cached blocks larger than this many MiB are never split",
		parsed(parsePositive[int64], func(c *Config) *int64 { return &c.MaxSplitSizeMB })},
	{"garbage_collection_threshold", "", "caching: flush the cache once reserved memory exceeds this fraction of the device, in [0,1]",
		parsed(parseFraction, func(c *Config) *float64 { return &c.GCThreshold })},
	{"frag_limit_mb", "", "gmlake: inactive blocks smaller than this many MiB are never stitched (default 128)",
		parsed(parsePositive[int64], func(c *Config) *int64 { return &c.FragLimitMB })},
	{"max_sblocks", "", "gmlake: stitched blocks cached before the least recently used are freed",
		parsed(parsePositive[int], func(c *Config) *int { return &c.MaxSBlocks })},
	{"rebind_on_split", "", "gmlake: keep stitched blocks alive across a member split (default true)",
		parsed(parseBoolPtr, func(c *Config) **bool { return &c.RebindSplit })},

	{"serve_mix", "mix", "named multi-tenant client `mix` (gmlake-serve -list; default mixed-bursty)",
		parsed(parseMix, func(c *Config) *string { return &c.ServeMix })},
	{"serve_rate", "rate", "aggregate request rate override, `req/s`",
		parsed(parsePositiveFloat, func(c *Config) *float64 { return &c.ServeRate })},
	{"burst_cv", "burst-cv", "interarrival `CV` override for the mix's bursty (Gamma-arrival) classes",
		parsed(parsePositiveFloat, func(c *Config) *float64 { return &c.BurstCV })},
	{"parallel", "parallel", "worker-pool bound `n` for experiment cells and policy sweeps (0 = GOMAXPROCS); changes no report",
		parsed(parseParallel, func(c *Config) *int { return &c.Parallelism })},

	{"replicas", "replicas", "`n` replica servers behind the cluster admission queue (default 1); with autoscaling, the initial fleet",
		parsed(parsePositive[int], func(c *Config) *int { return &c.Cluster.Replicas })},
	{"dispatch", "dispatch", "cluster dispatch `policy`: round-robin (default), jsq, least-kv or session-affinity",
		parsed(parseDispatch, func(c *Config) *serve.DispatchPolicy { return &c.Cluster.Dispatch })},
	{"aging", "aging", "priority aging: a waiting request gains one priority level per `duration` of queue wait (0 = off)",
		parsed(parseNonNegDuration, func(c *Config) *time.Duration { return &c.Cluster.Server.Aging })},
	{"prefix_reuse", "prefix-reuse", "session KV prefix reuse: a follow-up turn skips the prefill still resident on its replica",
		parsed(parseBool, func(c *Config) *bool { return &c.Cluster.Server.PrefixReuse })},
	{"affinity_base", "affinity-base", "fallback `policy` of session-affinity for requests with no resident prefix (default jsq; needs dispatch session-affinity)",
		parsed(parseAffinityBase, func(c *Config) *serve.DispatchPolicy { return &c.Cluster.AffinityBase })},

	{"min_replicas", "min-replicas", "autoscaler floor `n` (default 1)",
		parsed(parsePositive[int], func(c *Config) *int { return &c.Cluster.MinReplicas })},
	{"max_replicas", "max-replicas", "autoscaler ceiling `n`; setting it turns queue-depth autoscaling on",
		parsed(parsePositive[int], func(c *Config) *int { return &c.Cluster.MaxReplicas })},
	{"steal", "steal", "work stealing: an idle replica takes queued (never running) requests from a backlogged peer",
		parsed(parseBool, func(c *Config) *bool { return &c.Cluster.Steal })},
	{"replica_caps", "replica-caps", "per-replica capacity `weights` such as 2/1/1 (flags also take 2,1,1): memory, batch limit and dispatch share scale with them",
		parsed(parseReplicaCaps, func(c *Config) *[]serve.ReplicaOverride { return &c.Cluster.Overrides })},

	{"mttf", "mttf", "mean `duration` to failure per replica, exponential and seeded (needs mttr)",
		parsed(parsePositiveDuration, func(c *Config) *time.Duration { return &c.Cluster.Faults.MTTF })},
	{"mttr", "mttr", "mean `duration` to restart after a crash (needs mttf)",
		parsed(parsePositiveDuration, func(c *Config) *time.Duration { return &c.Cluster.Faults.MTTR })},
	{"fault_plan", "fault-plan", "scripted crash/restart `plan` such as crash@t=12s:r1/restart@t=14s:r1 (excludes mttf/mttr)",
		parsed(parseFaultPlan, func(c *Config) *[]serve.FaultEvent { return &c.Cluster.Faults.Plan })},
	{"timeout", "timeout", "per-request deadline `duration` from arrival; later completions are deadline misses, not goodput",
		parsed(parsePositiveDuration, func(c *Config) *time.Duration { return &c.Cluster.Server.Timeout })},
	{"retries", "retries", "re-dispatch attempts `n` per crashed in-flight request (needs timeout)",
		parsed(parsePositive[int], func(c *Config) *int { return &c.Cluster.Recovery.Retries })},
	{"backoff", "backoff", "exponential retry-backoff `multiplier` >= 1 (default 2; needs retries)",
		parsed(parseBackoff, func(c *Config) *float64 { return &c.Cluster.Recovery.Backoff })},
	{"shed", "shed", "reject at admission the requests that provably cannot meet the deadline (needs timeout)",
		parsed(parseBool, func(c *Config) *bool { return &c.Cluster.Server.Shed })},

	{"trace_in", "trace-in", "replay the request trace at `path` (JSONL) instead of generating a mix",
		parsed(parsePath, func(c *Config) *string { return &c.TraceIn })},
	{"trace_out", "trace-out", "capture the completed run into the trace file at `path`",
		parsed(parsePath, func(c *Config) *string { return &c.TraceOut })},
	{"trace_scale", "trace-scale", "replay the trace at `factor` times its recorded request rate (needs trace_in)",
		parsed(parsePositiveFloat, func(c *Config) *float64 { return &c.TraceScale })},
	{"fit", "fit", "fit a mix to the trace and serve that, with a fit-error report (needs trace_in)",
		parsed(parseBool, func(c *Config) *bool { return &c.Fit })},
}

// setKey sets one key, or reports it unknown with the nearest key as a hint.
func setKey(c *Config, key, val string) error {
	for _, f := range fields {
		if f.key == key {
			return f.set(c, key, val)
		}
	}
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.key
	}
	if s := serve.NearestName(key, names); s != "" {
		return fmt.Errorf("conf: unknown key %q (did you mean %q?)", key, s)
	}
	return fmt.Errorf("conf: unknown key %q", key)
}

// Flags holds the key flags given on one command line.
type Flags struct{ given []assignment }

type assignment struct {
	f   *field
	val string
}

// RegisterFlags declares on fs the flag of every key that has one — or,
// when keys are named, of those keys only — with the key's doc string as
// usage. A flag takes exactly the values its key takes (-x v ≡ -conf x:v);
// a bool key's bare flag means true.
func RegisterFlags(fs *flag.FlagSet, keys ...string) *Flags {
	fl := &Flags{}
	for i := range fields {
		if f := &fields[i]; f.flag != "" && (len(keys) == 0 || slices.Contains(keys, f.key)) {
			fs.Var(flagValue{f, fl}, f.flag, f.doc)
		}
	}
	return fl
}

// Parse is conf.Parse(s) with every flag given on the command line set over
// the same key of s, wherever -conf stood among them, and the merged
// configuration validated once. Call it after the flag set has parsed.
func (fl *Flags) Parse(s string) (Config, error) { return parse(s, fl.given) }

// flagValue is the flag.Value of one key's flag: Set records the argument
// for Flags.Parse to hand to the key's setter.
type flagValue struct {
	f  *field
	fl *Flags
}

func (v flagValue) String() string   { return "" }
func (v flagValue) IsBoolFlag() bool { return v.f.isBool }
func (v flagValue) Set(s string) error {
	v.fl.given = append(v.fl.given, assignment{v.f, s})
	return nil
}

func parseBackend(_, val string) (string, error) {
	b, err := findBackend(val)
	return b.name, err
}

func parsePositive[T int | int64](key, val string) (T, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("conf: %s must be a positive integer, got %q", key, val)
	}
	return T(n), nil
}

// parseParallel parses an int32-sized count, so "NaN", floats and junk are
// rejected outright; 0 is legal and means GOMAXPROCS.
func parseParallel(key, val string) (int, error) {
	n, err := strconv.ParseInt(val, 10, 32)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("conf: %s must be a non-negative integer, got %q", key, val)
	}
	return int(n), nil
}

func parseFraction(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	// !(…) also rejects NaN, which compares false to everything.
	if err != nil || !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("conf: %s must be in [0,1], got %q", key, val)
	}
	return f, nil
}

func parsePositiveFloat(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	// !(f > 0) also rejects NaN.
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("conf: %s must be a positive finite number, got %q", key, val)
	}
	return f, nil
}

func parseBackoff(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || !(f >= 1) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("conf: %s must be a finite number >= 1, got %q", key, val)
	}
	return f, nil
}

func parseBool(key, val string) (bool, error) {
	b, err := strconv.ParseBool(val)
	if err != nil {
		return false, fmt.Errorf("conf: %s must be a bool, got %q", key, val)
	}
	return b, nil
}

func parseBoolPtr(key, val string) (*bool, error) {
	b, err := parseBool(key, val)
	return &b, err
}

func parsePositiveDuration(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("conf: %s must be a positive duration (e.g. 30s), got %q", key, val)
	}
	return d, nil
}

func parseNonNegDuration(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("conf: %s must be a non-negative duration (e.g. 500ms), got %q", key, val)
	}
	return d, nil
}

func parsePath(key, val string) (string, error) {
	if val == "" {
		return "", fmt.Errorf("conf: %s needs a file path", key)
	}
	return val, nil
}

func parseMix(_, val string) (string, error) {
	if _, err := servegen.MixByName(val); err != nil {
		return "", fmt.Errorf("conf: %w", err)
	}
	return val, nil
}

func parseDispatch(_, val string) (serve.DispatchPolicy, error) {
	p, err := serve.ParseDispatch(val)
	if err != nil {
		return "", fmt.Errorf("conf: %w", err)
	}
	return p, nil
}

func parseAffinityBase(key, val string) (serve.DispatchPolicy, error) {
	if val == "" {
		return "", fmt.Errorf("conf: %s needs a policy name", key)
	}
	p, err := parseDispatch(key, val)
	if err == nil && p == serve.DispatchSessionAffinity {
		err = fmt.Errorf("conf: %s cannot itself be session-affinity", key)
	}
	return p, err
}

// parseReplicaCaps parses positive capacity weights separated by '/' —
// or by ',', which only a flag can carry: in a conf string commas separate
// keys. Weight i becomes replica i's Capacity override.
func parseReplicaCaps(key, val string) ([]serve.ReplicaOverride, error) {
	parts := strings.Split(strings.ReplaceAll(val, ",", "/"), "/")
	caps := make([]serve.ReplicaOverride, len(parts))
	for i, p := range parts {
		f, err := parsePositiveFloat(key, strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		caps[i].Capacity = f
	}
	return caps, nil
}

func parseFaultPlan(_, val string) ([]serve.FaultEvent, error) {
	plan, err := serve.ParseFaultPlan(val)
	if err != nil {
		return nil, fmt.Errorf("conf: %w", err)
	}
	return plan, nil
}
