package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bin is the gmlake-serve binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-serve")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-serve: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the binary in dir and returns its output streams and exit code.
func run(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("gmlake-serve %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// TestGolden pins the report bytes of twelve representative invocations to
// the files recorded from commit 14880a3, before the flags were generated
// from conf's field table: one per feature family, the flag-over-conf
// override, and the capture → replay → fit chain (which shares a directory
// and runs in order, under the relative file name the reports print).
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ golden, args string }{
		{"policy-all", `-policy all -n 150`},
		{"conf-gmlake", `-conf backend:gmlake,serve_mix:chat+batch,burst_cv:6 -policy chunked -n 150`},
		{"replicas-jsq-aging", `-replicas 4 -dispatch jsq -aging 2s -policy chunked -n 300`},
		{"elastic-steal", `-min-replicas 1 -max-replicas 6 -steal -policy chunked -n 400`},
		{"replica-caps", `-replicas 2 -replica-caps 2,1 -dispatch least-kv -policy chunked -n 300`},
		{"sessions-affinity", `-mix chat-sessions -replicas 4 -dispatch session-affinity -prefix-reuse -policy chunked -n 400`},
		{"mttf-mttr", `-replicas 3 -mttf 2s -mttr 400ms -timeout 30s -retries 3 -policy chunked -n 400`},
		{"fault-plan", `-replicas 2 -fault-plan crash@t=12s:r1/restart@t=14s:r1 -timeout 30s -retries 1 -shed -policy chunked -n 300`},
		{"override", `-conf replicas:2,dispatch:jsq,steal:true -replicas 4 -policy chunked -n 300`},
		{"trace-out", `-trace-out t.jsonl`},
		{"trace-replay", `-trace-in t.jsonl -trace-scale 2`},
		{"trace-fit", `-trace-in t.jsonl -fit`},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, exit := run(t, dir, strings.Fields(tc.args)...)
		if exit != 0 || stderr != "" {
			t.Errorf("%s: exit %d, stderr %q", tc.golden, exit, stderr)
		} else if got != string(want) {
			t.Errorf("%s: gmlake-serve %s printed\n%s\nwant\n%s", tc.golden, tc.args, got, want)
		}
	}
}

// flagSamples gives every key flag a value and the -conf keys it needs
// beside it. TestFlagIsItsKey fails when -h lists a flag with no entry here.
var flagSamples = map[string]struct{ val, with string }{
	"mix":           {val: "chat-sessions"},
	"rate":          {val: "9"},
	"burst-cv":      {val: "6"},
	"parallel":      {val: "2"},
	"replicas":      {val: "3"},
	"dispatch":      {val: "least-kv", with: "replicas:3"},
	"aging":         {val: "2s"},
	"prefix-reuse":  {val: "true", with: "serve_mix:chat-sessions"},
	"affinity-base": {val: "least-kv", with: "serve_mix:chat-sessions,replicas:3,dispatch:session-affinity,prefix_reuse:true"},
	"min-replicas":  {val: "2", with: "max_replicas:5"},
	"max-replicas":  {val: "5"},
	"steal":         {val: "true", with: "replicas:3"},
	"replica-caps":  {val: "2/1", with: "replicas:2,dispatch:jsq"},
	"mttf":          {val: "2s", with: "replicas:3,mttr:400ms"},
	"mttr":          {val: "400ms", with: "replicas:3,mttf:2s"},
	"fault-plan":    {val: "crash@t=3s:r1/restart@t=5s:r1", with: "replicas:2"},
	"timeout":       {val: "10s"},
	"retries":       {val: "3", with: "replicas:3,mttf:2s,mttr:400ms,timeout:30s"},
	"backoff":       {val: "1.5", with: "replicas:3,mttf:2s,mttr:400ms,timeout:30s,retries:3"},
	"shed":          {val: "true", with: "timeout:10s"},
	"trace-in":      {val: "in.jsonl"},
	"trace-out":     {val: "out.jsonl"},
	"trace-scale":   {val: "2", with: "trace_in:in.jsonl"},
	"fit":           {val: "true", with: "trace_in:in.jsonl"},
}

// TestFlagIsItsKey: for every key flag that -h lists, -<flag>=v and -conf
// <key>:v print the same report, and that report differs from the one
// without the knob wherever the knob is visible in a report at all.
func TestFlagIsItsKey(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, exit := run(t, dir, "-trace-out", "in.jsonl", "-n", "120", "-policy", "chunked"); exit != 0 {
		t.Fatalf("recording in.jsonl: %s", stderr)
	}
	_, usage, exit := run(t, dir, "-h")
	if exit != 0 {
		t.Fatalf("-h exits %d", exit)
	}
	byHand := map[string]bool{"list": true, "conf": true, "n": true, "seed": true, "policy": true,
		"batch": true, "capacity-gb": true, "cpuprofile": true, "memprofile": true}
	checked := 0
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage, -1) {
		name := m[1]
		if byHand[name] {
			continue
		}
		s, ok := flagSamples[name]
		if !ok {
			t.Errorf("-h lists -%s, which has no sample in flagSamples", name)
			continue
		}
		key := strings.ReplaceAll(name, "-", "_")
		if name == "mix" || name == "rate" {
			key = "serve_" + key
		}
		common := []string{"-n", "120", "-policy", "chunked"}
		byFlag, stderr, exit := run(t, dir, append(common, "-conf", s.with, "-"+name+"="+s.val)...)
		if exit != 0 {
			t.Errorf("-%s=%s: exit %d: %s", name, s.val, exit, stderr)
			continue
		}
		byKey, stderr, exit := run(t, dir, append(common, "-conf", s.with+","+key+":"+s.val)...)
		if exit != 0 || byKey != byFlag {
			t.Errorf("-%s=%s prints\n%s\nbut %s:%s prints (exit %d) %s\n%s", name, s.val, byFlag, key, s.val, exit, stderr, byKey)
		}
		// -parallel alone changes no report line, by design.
		if without, _, _ := run(t, dir, append(common, "-conf", s.with)...); without == byFlag && name != "parallel" {
			t.Errorf("-%s=%s changes nothing in the report", name, s.val)
		}
		checked++
	}
	if checked != len(flagSamples) {
		t.Errorf("checked %d flags, flagSamples has %d: a sample names a flag -h does not list", checked, len(flagSamples))
	}
}

// TestUsageErrors: every rejected command line is one "gmlake-serve: …"
// line on stderr, exit status 1, and nothing on stdout — no run header, no
// usage dump, no stack trace. Each rule that spans keys is broken once by
// flags and once by keys, and reads the same either way.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid two-request trace whose second arrival, 10 µs, scaled by
	// 1e-15 lands past the clock's range.
	late := `{"format":"reqtrace","version":1}
{"arrival_ns":0,"prompt_tokens":8,"output_tokens":4}
{"arrival_ns":10000,"prompt_tokens":8,"output_tokens":4}
`
	if err := os.WriteFile(filepath.Join(dir, "late.jsonl"), []byte(late), 0o644); err != nil {
		t.Fatal(err)
	}
	// A trace in the retired #reqtrace CSV layout.
	old := "#reqtrace v1\narrival_ns,class,slo,priority,prompt_tokens,output_tokens\n0,chat,interactive,2,120,64\n"
	if err := os.WriteFile(filepath.Join(dir, "old.csv"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, want string }{
		{`-warp-speed 9`, `flag provided but not defined: -warp-speed`},
		{`-n many`, `invalid value "many" for flag -n`},
		{`-conf replicaz:4`, `conf: unknown key "replicaz" (did you mean "replicas"?)`},
		{`-conf warp_speed:9`, `conf: unknown key "warp_speed"`},
		{`-conf frag_limit_mb`, `conf: "frag_limit_mb" is not key:value`},
		{`-dispatch jqs`, `conf: serve: unknown dispatch policy "jqs" (did you mean "jsq"?`},
		{`-mix nope`, `conf: servegen: unknown mix "nope"`},
		// The digest limit, the autoscaler's thresholds and the per-class
		// retry budget are constants: neither a flag nor a key sets them.
		{`-exact-samples -1`, `flag provided but not defined: -exact-samples`},
		{`-scale-up 2 -max-replicas 5`, `flag provided but not defined: -scale-up`},
		{`-scale-down 2 -max-replicas 5`, `flag provided but not defined: -scale-down`},
		{`-scale-cooldown 1s -max-replicas 5`, `flag provided but not defined: -scale-cooldown`},
		{`-retry-budget 4 -retries 3 -timeout 30s`, `flag provided but not defined: -retry-budget`},
		{`-conf exact_samples:-1`, `conf: unknown key "exact_samples"`},
		{`-conf scale_up:2,max_replicas:5`, `conf: unknown key "scale_up"`},
		{`-conf scale_down:2,max_replicas:5`, `conf: unknown key "scale_down"`},
		{`-conf scale_cooldown:1s,max_replicas:5`, `conf: unknown key "scale_cooldown"`},
		{`-conf retry_budget:4,retries:3,timeout:30s`, `conf: unknown key "retry_budget"`},

		{`-fit`, `conf: fit requires trace_in`},
		{`-conf fit:true`, `conf: fit requires trace_in`},
		{`-trace-scale 2`, `conf: trace_scale requires trace_in`},
		{`-conf trace_scale:2`, `conf: trace_scale requires trace_in`},
		{`-mttf 2s`, `conf: mttf and mttr must be set together`},
		{`-conf mttr:1s`, `conf: mttf and mttr must be set together`},
		{`-fault-plan crash@t=1s:r0 -mttf 2s -mttr 1s`, `conf: fault_plan and mttf/mttr are mutually exclusive`},
		{`-conf fault_plan:crash@t=1s:r0,mttf:2s,mttr:1s`, `conf: fault_plan and mttf/mttr are mutually exclusive`},
		{`-retries 3`, `conf: retries requires timeout`},
		{`-conf retries:3`, `conf: retries requires timeout`},
		{`-backoff 2 -timeout 30s`, `conf: backoff requires retries`},
		{`-conf backoff:2,timeout:30s`, `conf: backoff requires retries`},
		{`-shed`, `conf: shed requires timeout`},
		{`-conf shed:true`, `conf: shed requires timeout`},
		{`-affinity-base jsq`, `conf: affinity_base requires dispatch:session-affinity`},
		{`-conf affinity_base:jsq,dispatch:least-kv`, `conf: affinity_base requires dispatch:session-affinity`},
		{`-conf mttf:2s,mttr:1s -fault-plan crash@t=1s:r0`, `conf: fault_plan and mttf/mttr are mutually exclusive`},

		// Values the flags' "> 0" guards used to skip silently (exit 0).
		{`-rate -5`, `conf: serve_rate must be a positive finite number, got "-5"`},
		{`-burst-cv -1`, `conf: burst_cv must be a positive finite number, got "-1"`},
		// A CV whose Gamma scale cv²/rate overflows at the class's low rate.
		{`-n 50 -mix mixed-bursty -burst-cv 1e154 -rate 0.01`,
			`servegen: class "agent" gamma cv 1e+154 at rate 0.0025/s (scale cv²/rate out of range)`},
		// A class rate so low that its mean interarrival 1/rate overflows.
		{`-n 50 -mix batch-heavy -rate 1e-320 -policy chunked`,
			`servegen: class "batch-eval" rate 6e-321/s (mean interarrival 1/rate out of range)`},
		{`-n 50 -mix chat-sessions -rate 1e-320 -policy chunked`,
			`servegen: class "chat-turns" rate 8e-321/s (mean interarrival 1/rate out of range)`},
		{`-trace-scale -2`, `conf: trace_scale must be a positive finite number, got "-2"`},
		{`-trace-in t.jsonl -trace-scale -2`, `conf: trace_scale must be a positive finite number, got "-2"`},
		{`-backoff NaN -retries 1 -timeout 1s`, `conf: backoff must be a finite number >= 1, got "NaN"`},
		{`-replicas 0`, `conf: replicas must be a positive integer, got "0"`},
		{`-steal=perhaps`, `conf: steal must be a bool, got "perhaps"`},
		{`-replica-caps 2,0`, `conf: replica_caps must be a positive finite number, got "0"`},

		// The hand-declared flags, checked before the run header too.
		{`-capacity-gb 0`, `-capacity-gb must be a positive finite number, got 0`},
		{`-capacity-gb -1.5`, `-capacity-gb must be a positive finite number, got -1.5`},
		{`-capacity-gb NaN`, `-capacity-gb must be a positive finite number, got NaN`},
		{`-capacity-gb +Inf`, `-capacity-gb must be a positive finite number, got +Inf`},
		{`-capacity-gb 1e10`, `-capacity-gb 1e+10 gives a device of 1.074e+19 bytes, want 1 to 9223372036854775807`},
		{`-capacity-gb 1e-12`, `-capacity-gb 1e-12 gives a device of 0.001074 bytes, want 1 to 9223372036854775807`},
		{`-replicas 2 -replica-caps 1e-12,1`, `replica 0's capacity weight 1e-12 gives a device of 0.001611 bytes`},
		{`-replicas 2 -replica-caps 1e12,1`, `replica 0's capacity weight 1e+12 gives a device of 1.611e+21 bytes`},
		{`-n 0`, `-n must be a positive integer, got 0`},
		{`-n -3`, `-n must be a positive integer, got -3`},
		{`-batch 0`, `-batch must be a positive integer, got 0`},
		{`-trace-in t.jsonl -n 0`, `-n must be a positive integer, got 0`},
		// Trace files: a missing one, a CSV-era one, and a replay past the
		// clock's range.
		{`-trace-in /nonexistent/prod.jsonl`, `reqtrace: open /nonexistent/prod.jsonl`},
		{`-trace-in old.csv`, `reqtrace: old.csv: bad JSONL header "#reqtrace v1"`},
		{`-trace-in late.jsonl -trace-scale 1e-15 -policy chunked`,
			`reqtrace: replayed request 1 arrives past the clock's range at scale 1e-15`},
		// Past the generator's bound, refused before it allocates the stream.
		{`-mix chat-sessions -n 5000000000 -policy chunked`, `servegen: 5000000000 requests, at most 2147483647`},
		{`-policy bogus`, `unknown policy "bogus" (contiguous, paged, chunked, all)`},
		{`-replicas 2 -fault-plan crash@t=1s:r7`, `fault`},
	} {
		stdout, stderr, exit := run(t, dir, strings.Fields(tc.args)...)
		if exit != 1 || stdout != "" {
			t.Errorf("gmlake-serve %s: exit %d, stdout %q; want exit 1 and no output", tc.args, exit, stdout)
		}
		if !strings.HasPrefix(stderr, "gmlake-serve: ") || !strings.Contains(stderr, tc.want) ||
			strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine ") {
			t.Errorf("gmlake-serve %s: stderr %q, want one gmlake-serve: line with %q", tc.args, stderr, tc.want)
		}
	}
}

// TestRunFailures: a policy run that ends in an error is labelled by its
// cause. A device too small for the policy is a result — an "OOM:" row, exit
// 0 — while anything else (here every replica crashing with no restart, so
// the stream strands in the re-dispatch pool) is a "failed:" row, one
// gmlake-serve: line on stderr and exit 1, so a script cannot mistake a
// scheduling dead end for a memory finding. A trace request past serve's
// token bound, or whose priority overflows its aged rank, is refused before
// it is served: a MaxInt prompt used to hang contiguous, panic paged and
// hand chunked's allocator a negative size, and the priority was served last.
func TestRunFailures(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"maxp.jsonl": `{"arrival_ns":0,"prompt_tokens":9223372036854775807,"output_tokens":4}
{"arrival_ns":1000,"prompt_tokens":10,"output_tokens":4}`,
		"prio.jsonl": `{"arrival_ns":0,"class":"low","prompt_tokens":100,"output_tokens":50}
{"arrival_ns":0,"class":"low","prompt_tokens":100,"output_tokens":50}
{"arrival_ns":1,"class":"high","priority":10000000000,"prompt_tokens":100,"output_tokens":50}`,
	} {
		trace := "{\"format\":\"reqtrace\",\"version\":1}\n" + body + "\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args, want, not string
		exit            int
	}{
		{`-n 50 -policy chunked -replicas 2 -fault-plan crash@t=0s:r0/crash@t=0s:r1 -timeout 10s`,
			"== chunked: failed: serve: 50 request(s) stranded in the re-dispatch pool", "OOM", 1},
		// Arrivals saturated at the clock's end: the first step there would
		// wrap the clock to negative latencies.
		{`-n 50 -mix batch-heavy -rate 1e-9 -policy chunked`,
			"== chunked: failed: serve: replica 0: serve: a 817.8ms step at t=2562047h47m16.854775807s would run past the clock's range", "ALL", 1},
		{`-n 60 -policy all -capacity-gb 0.05`, "== paged: OOM: ", "failed", 0},
		{`-n 20 -policy paged -capacity-gb 1e-9`, "== paged: OOM: replica 0: paged slab on a 1-byte device", "failed", 0},
		{`-trace-in maxp.jsonl -policy contiguous`,
			"== contiguous: failed: serve: request 0 has 9223372036854775807 prompt and 4 output tokens, past the bound of 16777216 each", "OOM", 1},
		{`-trace-in maxp.jsonl -policy paged`,
			"== paged: failed: serve: request 0 has 9223372036854775807 prompt and 4 output tokens, past the bound of 16777216 each", "OOM", 1},
		{`-trace-in maxp.jsonl -policy chunked`,
			"== chunked: failed: serve: request 0 has 9223372036854775807 prompt and 4 output tokens, past the bound of 16777216 each", "OOM", 1},
		{`-trace-in prio.jsonl -policy chunked -batch 1 -aging 1s`,
			"== chunked: failed: serve: request 2 priority 10000000000 overflows its aged rank under aging 1s", "OOM", 1},
	} {
		stdout, stderr, exit := run(t, dir, strings.Fields(tc.args)...)
		if exit != tc.exit || !strings.Contains(stdout, tc.want) || strings.Contains(stdout, tc.not) {
			t.Errorf("gmlake-serve %s: exit %d, want %d and a %q row without %q:\n%s", tc.args, exit, tc.exit, tc.want, tc.not, stdout)
		}
		if wantErr := tc.exit != 0; wantErr != strings.HasPrefix(stderr, "gmlake-serve: ") || strings.Count(stderr, "\n") > 1 {
			t.Errorf("gmlake-serve %s: stderr %q", tc.args, stderr)
		}
	}
}
