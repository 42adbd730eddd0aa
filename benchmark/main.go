// Command benchmark is the repository's one trusted benchmark: five
// workloads over the serving simulator and the trainer, seven end-to-end
// metrics, and a per-layer breakdown measured from outside the program.
// README.md is the glossary.
//
//	go run ./benchmark                  all workloads, one child process each
//	go run ./benchmark -selfcheck       two full sets; do they agree within the bounds?
//	go run ./benchmark --workload serve-1m --seed 7 --seconds 10 --trace 0
//
// The last form is what BENCHMARK.json's driver runs: one workload in this
// process, the result object as the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	// defaultScale shrinks every workload's full-size item count so that one
	// run — its set-ups plus the measured seconds — stays under the
	// driver's per-run budget on a 2-core host.
	defaultScale = 0.25
	// A run sets up at least minSetups times and, while set-up is cheap,
	// goes on for setupSeconds or maxSetups; setup_s is the median. The
	// cheapest set-up takes under 0.1 s, where three samples are too few.
	minSetups    = 3
	maxSetups    = 15
	setupSeconds = 2.0
	// minReps is the fewest timed calls a run reports a median over.
	minReps = 3
	// defaultOut is where the traced run leaves its spans, relative to the
	// repository root the command is run from.
	defaultOut = "benchmark/out"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	out      string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in-process and print its result object (default: all, one child each)")
	fs.Uint64Var(&cfg.seed, "seed", 7, "the only input to stream generation")
	fs.Float64Var(&cfg.seconds, "seconds", 5, "how long each run measures")
	fs.IntVar(&cfg.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.Float64Var(&cfg.scale, "scale", defaultScale, "fraction of each workload's full-size item count")
	fs.StringVar(&cfg.out, "out", defaultOut, "directory for trace-<workload>.jsonl")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice and fail if the two disagree by more than a metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.scale <= 0 || cfg.seconds < 0 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	var err error
	switch {
	case cfg.workload != "":
		err = runOne(cfg, stdout)
	case *selfcheck:
		err = runSelfcheck(cfg, stdout)
	default:
		err = runAll(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its result object
// last. A failed check is an error: nothing that failed prints a result.
func runOne(cfg config, w io.Writer) error {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Fprintf(w, "host %s\n", hostFingerprint())
	fmt.Fprintf(w, "workload %s seed=%d scale=%g seconds=%g trace=%d\n", wl.name, cfg.seed, cfg.scale, cfg.seconds, cfg.trace)
	measure := measureEndToEnd
	if cfg.trace == 1 {
		measure = measureLayers
	}
	res, err := measure(wl, cfg, w)
	if err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed", wl.name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// checks collects the output checks of one run. Failures print as they
// happen; passes are only counted, since most repeat once per timed call.
type checks struct {
	w              io.Writer
	passed, failed int
}

func (c *checks) check(ok bool, format string, args ...any) {
	if ok {
		c.passed++
		return
	}
	c.failed++
	fmt.Fprintf(c.w, "check FAILED %s\n", fmt.Sprintf(format, args...))
}

func (c *checks) summary() {
	fmt.Fprintf(c.w, "checks %d passed, %d failed\n", c.passed, c.failed)
}

// outcome checks what one finished call reports and returns how many items
// the simulator failed to account for.
func (c *checks) outcome(what string, err error, out outcome) int {
	c.check(err == nil, "%s: call returned %v", what, err)
	c.check(out.accounted == out.offered, "%s: conservation, %d of %d items accounted for", what, out.accounted, out.offered)
	if out.allServed {
		c.check(out.served == out.offered, "%s: served %d of %d", what, out.served, out.offered)
	}
	return abs(out.offered - out.accounted)
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// sample is one timed call.
type sample struct {
	wall           time.Duration
	mallocs, bytes uint64
	out            outcome
	err            error
}

// timeCall runs r's timed call from a collected heap, so that every call
// starts from the same place.
func timeCall(r run) sample {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := now()
	err := r.call()
	wall := now() - t0
	runtime.ReadMemStats(&after)
	return sample{wall: wall, mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc, out: r.outcome(), err: err}
}

// setUp builds the workload's inputs and the first run's state. Its
// duration is one setup_s sample.
func setUp(wl benchWorkload, cfg config, tr *tracer) (instance, run, time.Duration, error) {
	runtime.GC()
	t0 := now()
	inst, err := wl.setup(params{seed: cfg.seed, scale: cfg.scale}, tr)
	if err != nil {
		return nil, run{}, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	r, err := inst.fresh(nil)
	if err != nil {
		return nil, run{}, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	return inst, r, now() - t0, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread prints a host metric's median with its range and returns the median.
func spread(w io.Writer, name, unit string, v []float64) float64 {
	m := median(v)
	fmt.Fprintf(w, "%-20s median=%.6g min=%.6g max=%.6g n=%d %s (host)\n", name, m, slices.Min(v), slices.Max(v), len(v), unit)
	return m
}

// measureEndToEnd is the untraced run: set up a few times, then repeat
// the timed call on fresh state until cfg.seconds have passed.
func measureEndToEnd(wl benchWorkload, cfg config, w io.Writer) (result, error) {
	var (
		inst   instance
		r      run
		setups []float64
	)
	for total := 0.0; len(setups) < minSetups || (total < setupSeconds && len(setups) < maxSetups); {
		var d time.Duration
		var err error
		if inst, r, d, err = setUp(wl, cfg, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		total += d.Seconds()
	}

	ck := &checks{w: w}
	items := float64(inst.items())
	var ns, mallocs, bytes []float64
	var first outcome
	unaccounted := 0
	begin := now()
	for rep := 0; rep < minReps || (now()-begin).Seconds() < cfg.seconds; rep++ {
		if rep > 0 {
			var err error
			if r, err = inst.fresh(nil); err != nil {
				return result{}, fmt.Errorf("%s: rep %d: %w", wl.name, rep, err)
			}
		}
		s := timeCall(r)
		ns = append(ns, float64(s.wall)/items)
		mallocs = append(mallocs, float64(s.mallocs)/items)
		bytes = append(bytes, float64(s.bytes)/items)
		if rep == 0 {
			first = s.out
		}
		unaccounted += ck.outcome(fmt.Sprintf("rep %d", rep), s.err, s.out)
		ck.check(s.out.digest == first.digest, "rep %d: sim_digest %s == rep 0's %s", rep, s.out.digest, first.digest)
	}

	vals := map[string]float64{
		"setup_s":             spread(w, "setup_s", "s", setups),
		"ns_per_item":         spread(w, "ns_per_item", "ns", ns),
		"allocs_per_item":     spread(w, "allocs_per_item", "count", mallocs),
		"bytes_per_item":      spread(w, "bytes_per_item", "B", bytes),
		"goodput_pct":         100 * float64(first.good) / float64(first.offered),
		"mem_utilization_pct": 100 * first.stats.Utilization(),
		"mem_reserved_gb":     gib(first.stats.PeakReserved),
	}
	res := result{Attempted: first.offered * len(ns), Failed: unaccounted, Metrics: map[string]value{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
		if m.sim {
			fmt.Fprintf(w, "%-20s %.6g %s (sim)\n", m.Name, vals[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(w, "sim offered=%d good=%d failed=%d per call\n", first.offered, first.good, first.offered-first.good)
	fmt.Fprintf(w, "sim_digest %s\n", first.digest)
	ck.summary()
	res.Correct = ck.failed == 0 && finite(res.Metrics)
	return res, nil
}

func finite(m map[string]value) bool {
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return false
		}
	}
	return true
}

// measureLayers is the traced run: set up once, then alternate an untraced
// and a traced call until cfg.seconds have passed. Counts repeat exactly;
// timings are the median over the traced calls.
func measureLayers(wl benchWorkload, cfg config, w io.Writer) (result, error) {
	setupTrace := &tracer{}
	inst, r, _, err := setUp(wl, cfg, setupTrace)
	if err != nil {
		return result{}, err
	}

	ck := &checks{w: w}
	var layers []map[string]float64
	var plainNs, tracedNs []float64
	var last *tracer
	var reservedBytes int64
	unaccounted, pairs := 0, 0
	begin := now()
	for ; pairs == 0 || (now()-begin).Seconds() < cfg.seconds; pairs++ {
		if pairs > 0 {
			if r, err = inst.fresh(nil); err != nil {
				return result{}, fmt.Errorf("%s: pair %d: %w", wl.name, pairs, err)
			}
		}
		plain := timeCall(r)
		unaccounted += ck.outcome(fmt.Sprintf("pair %d untraced", pairs), plain.err, plain.out)

		tr := &tracer{spans: append([]span(nil), setupTrace.spans...)}
		tr.calibrate()
		if r, err = inst.fresh(tr); err != nil {
			return result{}, fmt.Errorf("%s: pair %d traced: %w", wl.name, pairs, err)
		}
		traced := timeCall(r)
		unaccounted += ck.outcome(fmt.Sprintf("pair %d traced", pairs), traced.err, traced.out)
		ck.check(traced.out.digest == plain.out.digest, "pair %d: traced sim_digest %s == untraced %s", pairs, traced.out.digest, plain.out.digest)

		plainNs = append(plainNs, float64(plain.wall))
		tracedNs = append(tracedNs, float64(traced.wall))
		layers = append(layers, tr.layerMetrics(traced.out))
		last, reservedBytes = tr, traced.out.stats.PeakReserved
	}

	m := map[string]float64{}
	for _, d := range perLayer {
		col := make([]float64, len(layers))
		for i, l := range layers {
			col[i] = l[d.Name]
		}
		m[d.Name] = median(col)
	}
	root := m["serve.span_s"]
	if root == 0 {
		root = m["workload.self_s"] + m["memalloc.busy_s"]
	}
	for _, part := range []string{"serve.self_s", "kv.self_s", "memalloc.busy_s", "workload.self_s"} {
		// One percent of the traced span is calibration slack, not a free layer.
		ck.check(m[part] >= -0.01*root, "%s = %.4g s is not negative", part, m[part])
	}

	g := inst.gen()
	if g.requests > 0 {
		n := float64(g.requests)
		m["servegen.generate_s"] = g.d.Seconds()
		m["servegen.generate_ns_per_request"] = float64(g.d) / n
		m["servegen.allocs_per_request"] = float64(g.mallocs) / n
		m["servegen.alloc_bytes_per_request"] = float64(g.bytes) / n
	}
	if t, ok := inst.(*training); ok {
		// The paper's comparison: the same steps over the caching allocator.
		base, err := t.baseline().fresh(nil)
		if err != nil {
			return result{}, fmt.Errorf("%s: caching baseline: %w", wl.name, err)
		}
		ck.check(base.call() == nil, "caching baseline ran every step")
		reserved := base.outcome().stats.PeakReserved
		m["workload.baseline_reserved_gb"] = gib(reserved)
		m["workload.defrag_saved_gb"] = gib(reserved - reservedBytes)
	}
	m["trace.overhead_pct"] = 100 * (median(tracedNs)/median(plainNs) - 1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["host.peak_rss_mb"] = peakRSSMB()
	m["host.gc_cycles"] = float64(ms.NumGC)
	m["host.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6

	path := filepath.Join(cfg.out, "trace-"+wl.name+".jsonl")
	if err := last.write(path, traceHeader{Workload: wl.name, Seed: cfg.seed, Scale: cfg.scale}); err != nil {
		return result{}, fmt.Errorf("%s: writing trace: %w", wl.name, err)
	}
	fmt.Fprintf(w, "trace %s (%d pairs of untraced and traced calls)\n", path, pairs)

	res := result{Attempted: inst.items() * 2 * pairs, Failed: unaccounted, Metrics: map[string]value{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	ck.summary()
	res.Correct = ck.failed == 0 && finite(res.Metrics)
	return res, nil
}

// layerMetrics turns one traced call into the per-layer numbers. A layer's
// self time is its spans minus the spans under them, so
// serve.self_s + kv.self_s + memalloc.busy_s = serve.span_s by construction
// (workload.self_s + memalloc.busy_s on the trainer); a negative self time
// means the calibration is wrong, not that a layer was free.
func (t *tracer) layerMetrics(out outcome) map[string]float64 {
	m := out.counts // this outcome's own map; the timings join the counts
	admit, app, rel := &t.ops[opAdmit], &t.ops[opAppend], &t.ops[opRelease]
	alloc, free := &t.ops[opAlloc], &t.ops[opFree]
	overhead := float64(t.clockedSpans() * t.costNs)
	busy := float64(alloc.selfNs + free.selfNs)
	kvSelf := admit.estSelfNs() + app.estSelfNs() + rel.estSelfNs()
	kvCalls := admit.calls + app.calls + rel.calls

	// root is the time inside the coarse spans that bracket the simulator,
	// less what the tracer itself cost there.
	var serveNs, stepNs float64
	for _, s := range t.spans {
		switch s.Name {
		case spanServe:
			serveNs += float64(s.End - s.Start - t.emptyNs)
		case spanStep:
			stepNs += float64(s.End - s.Start - t.emptyNs)
		}
	}
	root := serveNs + stepNs - overhead
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if serveNs > 0 {
		self := root - kvSelf - busy
		m["serve.span_s"] = root / 1e9
		m["serve.self_s"] = self / 1e9
		m["serve.self_ns_per_request"] = self / float64(out.offered)
		m["serve.self_share_pct"] = 100 * self / root
		m["kv.admit_calls"] = float64(admit.calls)
		m["kv.append_calls"] = float64(app.calls)
		m["kv.release_calls"] = float64(rel.calls)
		m["kv.admit_fail_ratio"] = ratio(float64(admit.errs), float64(admit.calls))
		m["kv.self_s"] = kvSelf / 1e9
		m["kv.self_ns_per_call"] = ratio(kvSelf, float64(kvCalls))
		m["kv.appends_per_alloc"] = ratio(float64(app.calls), float64(alloc.calls))
	}
	if stepNs > 0 {
		m["workload.self_s"] = (root - busy) / 1e9
	}
	m["memalloc.alloc_calls"] = float64(alloc.calls)
	m["memalloc.free_calls"] = float64(free.calls)
	m["memalloc.alloc_fail_ratio"] = ratio(float64(alloc.errs), float64(alloc.calls))
	m["memalloc.busy_s"] = busy / 1e9
	m["memalloc.ns_per_call"] = ratio(busy, float64(alloc.calls+free.calls))
	m["memalloc.busy_share_pct"] = 100 * ratio(busy, root)
	m["memalloc.alloc_p50_ns"] = alloc.percentile(50)
	m["memalloc.alloc_p99_ns"] = alloc.percentile(99)
	m["memalloc.free_p50_ns"] = free.percentile(50)
	m["memalloc.free_p99_ns"] = free.percentile(99)
	m["trace.empty_span_ns"] = float64(t.emptyNs)
	m["trace.spans"] = float64(t.clockedSpans() + int64(len(t.spans)))
	return m
}

// child runs one workload in a process of its own, so heap state and peak
// RSS do not leak between workloads, echoes what it prints, and returns its
// result object and sim_digest.
func child(cfg config, w io.Writer) (result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, "", err
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(cfg.trace),
		"-scale", fmt.Sprint(cfg.scale),
		"-out", cfg.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res result
	digest := ""
	for i, line := range lines {
		if i == len(lines)-1 && runErr == nil {
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return result{}, "", fmt.Errorf("%s: last line is not a result object: %w", cfg.workload, err)
			}
			break
		}
		fmt.Fprintf(w, "  %s\n", line)
		if d, ok := strings.CutPrefix(line, "sim_digest "); ok {
			digest = d
		}
	}
	if runErr != nil {
		return result{}, "", fmt.Errorf("%s (trace %d): %w", cfg.workload, cfg.trace, runErr)
	}
	return res, digest, nil
}

// set is one pass over every workload: result objects and digests by
// workload, in table order.
type set struct {
	results []result
	digests []string
}

// runSet runs every workload, one after another, with the given trace mode.
func runSet(cfg config, w io.Writer) (set, error) {
	var s set
	for _, wl := range workloads {
		cfg.workload = wl.name
		fmt.Fprintf(w, "== %s (trace %d): %s\n", wl.name, cfg.trace, wl.why)
		res, digest, err := child(cfg, w)
		if err != nil {
			return set{}, err
		}
		s.results = append(s.results, res)
		s.digests = append(s.digests, digest)
	}
	return s, nil
}

// runAll is the one command: every end-to-end metric of every workload, then
// every per-layer metric from the traced runs. Any failed check fails it.
func runAll(cfg config, w io.Writer) error {
	cfg.trace = 0
	plain, err := runSet(cfg, w)
	if err != nil {
		return err
	}
	cfg.trace = 1
	if _, err := runSet(cfg, w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-16s", "end to end")
	for _, m := range endToEnd {
		fmt.Fprintf(w, " %20s", m.Name+" "+m.Unit)
	}
	fmt.Fprintln(w)
	for i, wl := range workloads {
		fmt.Fprintf(w, "%-16s", wl.name)
		for _, m := range endToEnd {
			fmt.Fprintf(w, " %20.6g", plain.results[i].Metrics[m.Name].Value)
		}
		fmt.Fprintf(w, "  sim_digest %s\n", plain.digests[i])
	}
	fmt.Fprintln(w, "all output checks passed")
	return nil
}

// runSelfcheck makes "two sets of runs agree" executable: host metrics may
// differ by their same-seed bound, simulated ones and the digests not at all.
func runSelfcheck(cfg config, w io.Writer) error {
	cfg.trace = 0
	var sets [2]set
	for i := range sets {
		fmt.Fprintf(w, "==== set %d\n", i+1)
		var err error
		if sets[i], err = runSet(cfg, w); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Fprintf(w, "\n%-16s %-20s %14s %14s %9s %6s\n", "workload", "metric", "set 1", "set 2", "gap", "bound")
	for i, wl := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0].results[i].Metrics[m.Name].Value, sets[1].results[i].Metrics[m.Name].Value
			gap, bound := math.Abs(b-a)/math.Abs(a), m.Repeat
			verdict := ""
			if gap > bound || math.IsNaN(gap) {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %8.2f%% %5.0f%%%s\n", wl.name, m.Name, a, b, 100*gap, 100*bound, verdict)
		}
		if sets[0].digests[i] != sets[1].digests[i] {
			fmt.Fprintf(w, "%-16s sim_digest %s vs %s  DISAGREE\n", wl.name, sets[0].digests[i], sets[1].digests[i])
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bound", bad)
	}
	fmt.Fprintln(w, "selfcheck: both sets agree within every bound")
	return nil
}
