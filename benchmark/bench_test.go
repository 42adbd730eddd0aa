package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the tables the
// command reports from in step, and both inside the contract's syntax.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %q, want %q", m.Command, want)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's syntax", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.name)
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	compare := func(kind string, got []manifestMetric, want []metric, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the table", kind, len(got), len(want))
		}
		for i, w := range want {
			unique(w.Name)
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(w.Unit) {
				t.Errorf("%s: unit %q is outside the contract's syntax", w.Name, w.Unit)
			}
			if w.Better != lower && w.Better != higher {
				t.Errorf("%s: better = %q", w.Name, w.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", w.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound < 0 || w.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the table; at most 0.25", w.Name, g.Bound, w.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("the contract wants setup_s in s, lower is better; have %+v", endToEnd[0])
	}
}

func metricNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

func resultNames(r result) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsPassChecks runs every workload at a hundredth of its size,
// untraced and traced, through the same code the driver's command runs.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{workload: wl.name, seed: 7, scale: 0.01, out: t.TempDir()}
			var log bytes.Buffer

			res, err := measureEndToEnd(wl, cfg, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			if got, want := resultNames(res), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced run reports %v, want the end-to-end set %v", got, want)
			}
			for name, v := range res.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0; the contract wants metrics that never are", name)
				}
			}
			stableJSON(t, res)

			log.Reset()
			cfg.trace = 1
			res, err = measureLayers(wl, cfg, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
			}
			if got, want := resultNames(res), metricNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run reports %v, want the per-layer set %v", got, want)
			}
			stableJSON(t, res)

			// Self times partition the traced span by construction.
			if wl.name != "train-lro" {
				v := func(name string) float64 { return res.Metrics[name].Value }
				parts, whole := v("serve.self_s")+v("kv.self_s")+v("memalloc.busy_s"), v("serve.span_s")
				if whole <= 0 || math.Abs(parts-whole) > 1e-9 {
					t.Errorf("serve.self_s + kv.self_s + memalloc.busy_s = %g, serve.span_s = %g", parts, whole)
				}
			}
			if _, err := os.Stat(cfg.out + "/trace-" + wl.name + ".jsonl"); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
}

// stableJSON checks the result line is the same bytes every time, with its
// four keys in the contract's order and the metric names sorted.
func stableJSON(t *testing.T, r result) {
	t.Helper()
	a, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		if b, _ := json.Marshal(r); !bytes.Equal(a, b) {
			t.Fatalf("result line is not byte-stable:\n%s\n%s", a, b)
		}
	}
	var keys []string
	for _, m := range metricKeyRE.FindAllSubmatch(a, -1) {
		keys = append(keys, string(m[1]))
	}
	if len(keys) != len(r.Metrics) || !sort.StringsAreSorted(keys) {
		t.Errorf("metric names are not all there in sorted order: %v", keys)
	}
	if !resultShapeRE.Match(a) {
		t.Errorf("result keys are not exactly correct, attempted, failed, metrics in that order: %s", a)
	}
}

var (
	metricKeyRE   = regexp.MustCompile(`"([^"]+)":\{"value":`)
	resultShapeRE = regexp.MustCompile(`^\{"correct":(true|false),"attempted":\d+,"failed":\d+,"metrics":\{.*\}\}$`)
)

func TestHistogramBucketsBracketTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 3, 4, 5, 7, 8, 9, 35, 64, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64 / 2} {
		b := histBucket(v)
		if lo, hi := histLow(b), histLow(b+1); v < lo || v >= hi {
			t.Errorf("value %d landed in bucket %d = [%d, %d)", v, b, lo, hi)
		}
	}
	if b := histBucket(-5); b != 0 {
		t.Errorf("a negative duration belongs in bucket 0, got %d", b)
	}
	var a opAgg
	for v := int64(1); v <= 1000; v++ {
		a.clocked++
		a.hist[histBucket(v)]++
	}
	if p := a.percentile(50); p < 450 || p > 550 {
		t.Errorf("p50 of 1..1000 = %g", p)
	}
	if p := a.percentile(99); p < 900 || p > 1100 {
		t.Errorf("p99 of 1..1000 = %g", p)
	}
}

// TestSelfTimeSubtractsNestedSpans pins the arithmetic the layer breakdown
// rests on: a parent's self time is its span less the spans under it, less
// what clocking those cost.
func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	tr := &tracer{emptyNs: 10, costNs: 30}
	ns0, n0 := tr.leafNs, tr.leafN
	tr.leaf(opAlloc, 110, false) // 100 of real work
	tr.leaf(opFree, 60, true)    // 50
	tr.ops[opAdmit].calls++
	tr.parent(opAdmit, 10+100+50+2*30+40, ns0, n0, false) // 40 of its own
	if got := tr.ops[opAdmit].selfNs; got != 40 {
		t.Errorf("parent self time = %d, want 40", got)
	}
	if got := tr.ops[opAlloc].selfNs + tr.ops[opFree].selfNs; got != 150 {
		t.Errorf("leaf time = %d, want 150", got)
	}
	if tr.ops[opFree].errs != 1 || tr.clockedSpans() != 3 {
		t.Errorf("errs = %d, clocked spans = %d", tr.ops[opFree].errs, tr.clockedSpans())
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errs bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &out, &errs); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a failed run printed a result: %s", out.String())
	}
}
