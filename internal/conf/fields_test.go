package conf

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// keySamples holds, for every key of the table, a value it accepts and the
// other keys a cross-key rule makes it need. Its key set is the accepted
// surface: TestFieldTable fails when the table gains or loses a key without
// this map (and so a reviewer) noticing.
var keySamples = map[string]struct{ val, with string }{
	"backend":                      {val: "gmlake"},
	"max_split_size_mb":            {val: "128"},
	"garbage_collection_threshold": {val: "0.5"},
	"frag_limit_mb":                {val: "256"},
	"max_sblocks":                  {val: "4096"},
	"rebind_on_split":              {val: "false"},
	"serve_mix":                    {val: "chat-heavy"},
	"serve_rate":                   {val: "6"},
	"burst_cv":                     {val: "4"},
	"parallel":                     {val: "2"},
	"replicas":                     {val: "3"},
	"dispatch":                     {val: "jsq"},
	"aging":                        {val: "2s"},
	"prefix_reuse":                 {val: "true"},
	"affinity_base":                {val: "least-kv", with: "dispatch:session-affinity"},
	"min_replicas":                 {val: "2"},
	"max_replicas":                 {val: "4"},
	"steal":                        {val: "true"},
	"replica_caps":                 {val: "2/1"},
	"mttf":                         {val: "8s", with: "mttr:1s"},
	"mttr":                         {val: "1s", with: "mttf:8s"},
	"fault_plan":                   {val: "crash@t=12s:r1/restart@t=14s:r1"},
	"timeout":                      {val: "30s"},
	"retries":                      {val: "3", with: "timeout:30s"},
	"backoff":                      {val: "1.5", with: "timeout:30s,retries:3"},
	"shed":                         {val: "true", with: "timeout:30s"},
	"trace_in":                     {val: "t.jsonl"},
	"trace_out":                    {val: "t.jsonl"},
	"trace_scale":                  {val: "2", with: "trace_in:t.jsonl"},
	"fit":                          {val: "true", with: "trace_in:t.jsonl"},
}

// flagParse registers the table's flags on a fresh flag set, parses args
// and merges them over the conf string s.
func flagParse(t *testing.T, s string, args ...string) (Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fl := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag set rejected %q: %v", args, err)
	}
	return fl.Parse(s)
}

// TestFieldTable checks the table against itself and against both of its
// surfaces: every key has a sample that parses and lands in a Config field,
// no two keys land in the same leaf (Cluster's included), keys and flags
// are unique, exactly the six allocator keys have no flag,
// every flag is its key under the naming rule, and -flag v builds the same
// Config as key:v.
func TestFieldTable(t *testing.T) {
	if len(fields) != len(keySamples) {
		t.Errorf("table has %d keys, keySamples %d", len(fields), len(keySamples))
	}
	seen := map[string]bool{}
	owner := map[string]string{} // leaf path → the key that sets it
	flagless := 0
	for _, f := range fields {
		for _, name := range []string{f.key, "-" + f.flag} {
			if name != "-" && seen[name] {
				t.Errorf("%q appears twice in the table", name)
			}
			seen[name] = true
		}
		if f.doc == "" {
			t.Errorf("key %q has no doc string", f.key)
		}
		sample, ok := keySamples[f.key]
		if !ok {
			t.Errorf("key %q has no sample in keySamples", f.key)
			continue
		}
		var set Config
		if err := f.set(&set, f.key, sample.val); err != nil || reflect.DeepEqual(set, Config{}) {
			t.Errorf("%s:%s sets no Config field (%v)", f.key, sample.val, err)
		}
		for _, leaf := range setLeaves(reflect.ValueOf(set), "Config") {
			if k, ok := owner[leaf]; ok {
				t.Errorf("%s and %s both set %s", k, f.key, leaf)
			}
			owner[leaf] = f.key
		}
		byKey, err := Parse(sample.with + "," + f.key + ":" + sample.val)
		if err != nil {
			t.Errorf("Parse rejects the sample of %q: %v", f.key, err)
			continue
		}
		if f.flag == "" {
			flagless++
			continue
		}
		want := strings.ReplaceAll(strings.TrimPrefix(f.key, "serve_"), "_", "-")
		if f.flag != want {
			t.Errorf("key %q has flag %q, want %q", f.key, f.flag, want)
		}
		byFlag, err := flagParse(t, sample.with, "-"+f.flag+"="+sample.val)
		if err != nil || !reflect.DeepEqual(byFlag, byKey) {
			t.Errorf("-%s=%s gives %+v, %v; %s:%s gives %+v", f.flag, sample.val, byFlag, err, f.key, sample.val, byKey)
		}
	}
	if flagless != 6 {
		t.Errorf("%d keys have no flag, want the 6 allocator keys", flagless)
	}
}

// setLeaves returns the paths of v's non-zero leaf fields, walking into
// nested structs such as Config.Cluster and its Server, Faults and Recovery.
func setLeaves(v reflect.Value, path string) []string {
	if v.Kind() != reflect.Struct {
		if v.IsZero() {
			return nil
		}
		return []string{path}
	}
	var leaves []string
	for i := 0; i < v.NumField(); i++ {
		leaves = append(leaves, setLeaves(v.Field(i), path+"."+v.Type().Field(i).Name)...)
	}
	return leaves
}

// TestFlagsOverrideConf pins the merge: a flag wins over its key in the
// conf string, the rules see the merged result — so a flag may supply what
// a key needs, or break what the string alone satisfied — a bare bool flag
// means true, and -replica-caps takes commas where the key cannot.
func TestFlagsOverrideConf(t *testing.T) {
	cfg, err := flagParse(t, "replicas:2,dispatch:jsq,steal:true", "-replicas", "4", "-steal=false")
	if cc := cfg.Cluster; err != nil || cc.Replicas != 4 || cc.Dispatch != serve.DispatchJSQ || cc.Steal {
		t.Errorf("override: %+v, %v", cfg, err)
	}
	if cfg, err = flagParse(t, "retries:3", "-timeout", "30s", "-shed"); err != nil || cfg.Cluster.Recovery.Retries != 3 || !cfg.Cluster.Server.Shed {
		t.Errorf("a flag supplying the key a rule needs: %+v, %v", cfg, err)
	}
	if _, err = flagParse(t, "mttf:8s,mttr:1s", "-fault-plan", "crash@t=1s:r0"); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("a flag breaking a rule: %v", err)
	}
	if cfg, err = flagParse(t, "", "-replica-caps", "2,1"); err != nil || !reflect.DeepEqual(cfg.Cluster.Overrides, []serve.ReplicaOverride{{Capacity: 2}, {Capacity: 1}}) {
		t.Errorf("-replica-caps 2,1: %+v, %v", cfg.Cluster.Overrides, err)
	}
	if _, err = flagParse(t, "", "-rate", "-5"); err == nil || err.Error() != `conf: serve_rate must be a positive finite number, got "-5"` {
		t.Errorf("-rate -5: %v", err)
	}
}

// FuzzParse: no input panics Parse or the cluster validation behind it, and
// an accepted string parses to the same Config every time. The seeds are one
// key:sample per table entry plus every row of the error tables.
func FuzzParse(f *testing.F) {
	for _, fd := range fields {
		s := keySamples[fd.key]
		f.Add(strings.TrimPrefix(s.with+","+fd.key+":"+s.val, ","))
	}
	for _, table := range [][]string{parseErrorCases, serveKeyErrorCases, clusterKeyErrorCases, elasticKeyErrorCases, sessionKeyErrorCases, deletedKeyCases} {
		for _, s := range table {
			f.Add(s)
		}
	}
	for _, c := range parallelCases {
		f.Add(c.in)
	}
	for _, c := range faultKeyErrorCases {
		f.Add(c.s)
	}
	for _, c := range traceKeyCases {
		f.Add(c.in)
	}
	f.Add("max_replicas:2000000000") // validation must not walk the fleet ceiling
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(s)
		if err != nil || !reflect.DeepEqual(cfg, again) {
			t.Fatalf("Parse(%q) is not repeatable: %+v then %+v, %v", s, cfg, again, err)
		}
		cc := cfg.Cluster
		cc.Server.MaxBatch = 1
		_ = cc.Validate() // any verdict, no panic
	})
}
