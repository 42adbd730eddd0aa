// Command gmlake-serve runs one heterogeneous multi-tenant serving mix
// under continuous batching and prints the per-SLO-class report: TTFT and
// end-to-end latency percentiles, preemptions and KV-cache occupancy for
// every client class.
//
// Usage:
//
//	gmlake-serve -list
//	gmlake-serve -mix chat-heavy -policy paged
//	gmlake-serve -conf "backend:gmlake,serve_mix:chat+batch,burst_cv:6" -policy chunked
//	gmlake-serve -n 500 -seed 42 -capacity-gb 2 -policy all -parallel 3
//	gmlake-serve -replicas 4 -dispatch jsq -aging 2s -policy chunked
//	gmlake-serve -min-replicas 1 -max-replicas 6 -steal -policy chunked
//	gmlake-serve -replicas 2 -replica-caps 2,1 -dispatch least-kv -policy chunked
//	gmlake-serve -mix chat-sessions -replicas 4 -dispatch session-affinity -prefix-reuse -policy chunked
//	gmlake-serve -mix chat-heavy -trace-out captured.jsonl -policy chunked
//	gmlake-serve -trace-in captured.jsonl -trace-scale 2 -policy chunked
//	gmlake-serve -trace-in prod.jsonl -fit -policy chunked
//	gmlake-serve -replicas 3 -mttf 2s -mttr 400ms -timeout 30s -retries 3 -policy chunked
//	gmlake-serve -replicas 2 -fault-plan "crash@t=12s:r1/restart@t=14s:r1" -timeout 30s -retries 1 -shed -policy chunked
//	gmlake-serve -conf backend:gmlake -policy chunked -n 20000 -cpuprofile cpu.out -memprofile mem.out
//
// Every serving knob is a key of the -conf string — the same
// PYTORCH_CUDA_ALLOC_CONF-style string that selects the pool allocator —
// and, under the same name with '-' for '_' (-mix and -rate for serve_mix
// and serve_rate), a flag: -x v is -conf x:v, takes the same values,
// fails with the same message, and overrides the key in -conf wherever it
// stands on the command line. The keys, their docs and their rules live in
// one table (internal/conf/fields.go); `gmlake-serve -h` prints it.
//
// With -trace-in the request stream is replayed from a request trace file
// (internal/reqtrace JSONL) instead of generated: -trace-scale multiplies
// the replayed request rate, -n (when given explicitly) truncates or loops
// the trace, and -fit calibrates a servegen mix to the trace — printing the
// fitted classes and a per-class fit-error report — and serves the fitted
// mix instead of the replay. With -trace-out the completed run is captured
// back into a trace file (generate → capture → replay round-trips
// byte-identically).
//
// With -replicas > 1 the stream is served by a multi-replica cluster —
// each replica on its own device and pool behind a cluster-level admission
// queue — and the merged report's percentiles come from the union of the
// replicas' raw samples. With -max-replicas > 0 the fleet is elastic: a
// queue-depth autoscaler spawns replicas (up to the ceiling) when the
// queued backlog exceeds -scale-up per active replica, and drains one —
// only after it has fully emptied — when the backlog falls to -scale-down
// per remaining replica, with at least -scale-cooldown of virtual time
// between decisions. -steal enables work-stealing re-dispatch: a replica
// that goes idle takes queued (never running) requests from a backlogged
// peer, so dispatch is no longer decide-once at arrival. -replica-caps
// makes the fleet heterogeneous: "2,1" gives replica 0 twice the device
// memory, twice the batch limit and twice the dispatch weight of replica
// 1, and the load-aware policies (jsq, least-kv) divide each replica's
// observed load by its weight so the big replica absorbs proportionally
// more demand.
//
// With a session mix (e.g. -mix chat-sessions) requests arrive as
// multi-turn conversations whose prompts grow by the prior exchange.
// -prefix-reuse lets a replica skip the prefill of a session prefix whose
// KV is still resident from the previous turn (crashes, recompute
// preemption and deadline drops invalidate residency), and -dispatch
// session-affinity routes a follow-up turn to the replica holding its
// prefix, falling back to -affinity-base (default jsq) when no replica
// does. The report then carries prefix hit/miss counts, reused prefill
// tokens and how many requests the sticky probe routed.
//
// With -mttf/-mttr (or a scripted -fault-plan) the cluster injects replica
// crashes: a crashed replica loses its KV cache and in-flight sequences,
// leaves dispatch, and rejoins empty after its restart. Queued requests it
// held are re-dispatched for free; in-flight ones are retried up to
// -retries times with exponential -backoff (recompute from scratch — TTFT
// survives only if the first token had already streamed), bounded per
// class by -retry-budget. -timeout sets a per-request deadline (goodput
// counts only in-deadline completions) and -shed rejects requests at
// admission once the deadline is provably unreachable. The fault seed is
// the workload seed, so one -seed pins the whole run, faults included.
//
// -cpuprofile and -memprofile write host profiles of the run for `go tool
// pprof`; they observe the host only and change no report.
//
// Runs are deterministic: one seed, one request stream, whatever the
// policy — scaling and stealing decisions happen at event boundaries of
// the virtual-time co-simulation — and because each policy (and each
// replica) runs on its own device and pool, -parallel sweeps policies
// concurrently without changing any report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/cmd/internal/profile"
	"repro/internal/conf"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/reqtrace"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list mix names and exit")
		confStr  = flag.String("conf", "", "configuration string of key:value pairs, e.g. backend:gmlake,serve_mix:chat+batch; a key's own flag overrides it")
		n        = flag.Int("n", 200, "number of requests")
		seed     = flag.Uint64("seed", 7, "workload generator seed")
		policy   = flag.String("policy", "all", "KV policy: contiguous, paged, chunked or all")
		batch    = flag.Int("batch", 24, "max concurrent decoding sequences per replica")
		capacity = flag.Float64("capacity-gb", 1.5, "device memory in GiB (per replica, scaled by its capacity weight)")
		keys     = conf.RegisterFlags(flag.CommandLine)
		prof     = profile.Register()
	)
	// Every usage error is one "gmlake-serve: …" line and exit 1, so the
	// flag package parses quietly and reports through fatal.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if err := flag.CommandLine.Parse(os.Args[1:]); errors.Is(err, flag.ErrHelp) {
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		return
	} else if err != nil {
		fatal(err)
	}
	nVisited := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			nVisited = true
		}
	})

	if *list {
		fmt.Println(strings.Join(servegen.MixNames(), "\n"))
		return
	}
	if !(*capacity > 0) || math.IsInf(*capacity, 0) {
		fatal(fmt.Errorf("-capacity-gb must be a positive finite number, got %v", *capacity))
	}
	if *n < 1 {
		fatal(fmt.Errorf("-n must be a positive integer, got %d", *n))
	}
	if *batch < 1 {
		fatal(fmt.Errorf("-batch must be a positive integer, got %d", *batch))
	}
	policies := []string{"contiguous", "paged", "chunked"}
	if *policy != "all" {
		if !slices.Contains(policies, *policy) {
			fatal(fmt.Errorf("unknown policy %q (contiguous, paged, chunked, all)", *policy))
		}
		policies = []string{*policy}
	}
	cfg, err := keys.Parse(*confStr)
	if err != nil {
		fatal(err)
	}
	// Replica i's device is its capacity weight times -capacity-gb, in whole
	// bytes. One that truncates to none or does not fit an int64 (which
	// holds less than 2^63) is a usage error here, not a panic in the device
	// constructor mid-run.
	deviceFits := func(what string, bytes float64) {
		if !(bytes >= 1 && bytes < 1<<63) {
			fatal(fmt.Errorf("%s gives a device of %.4g bytes, want 1 to %d", what, bytes, int64(math.MaxInt64)))
		}
	}
	deviceFits(fmt.Sprintf("-capacity-gb %v", *capacity), *capacity*float64(sim.GiB))
	capBytes := int64(*capacity * float64(sim.GiB))
	for i, o := range cfg.Cluster.Overrides {
		deviceFits(fmt.Sprintf("replica %d's capacity weight %v", i, o.Capacity), o.Capacity*float64(capBytes))
	}

	stopProfile, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fatal(err)
		}
	}()

	// The request stream: replayed (or fitted) from a trace file when
	// trace_in is configured, generated from the mix otherwise.
	var (
		reqs   []serve.Request
		mix    servegen.Mix
		source string
	)
	if cfg.TraceIn != "" {
		tr, rerr := reqtrace.ReadFile(cfg.TraceIn)
		if rerr != nil {
			fatal(rerr)
		}
		if cfg.Fit {
			fitted, ferr := reqtrace.Fit(tr)
			if ferr != nil {
				fatal(ferr)
			}
			mix = fitted
			nReqs := len(tr.Records)
			if nVisited {
				nReqs = *n
			}
			reqs, err = mix.Generate(nReqs, *seed)
			if err != nil {
				fatal(err)
			}
			source = fmt.Sprintf("mix fitted to %s", cfg.TraceIn)
			printFit(tr, fitted, reqs)
		} else {
			opts := reqtrace.ReplayOptions{Scale: cfg.TraceScale}
			if nVisited {
				opts.N = *n
			}
			reqs, err = tr.Replay(opts)
			if err != nil {
				fatal(err)
			}
			stats := tr.Stats()
			mix = servegen.Mix{Name: "replay:" + cfg.TraceIn, Rate: stats.RatePerSec,
				Classes: make([]servegen.ClientClass, len(stats.Classes))}
			if cfg.TraceScale > 0 {
				mix.Rate *= cfg.TraceScale
			}
			source = fmt.Sprintf("trace replay of %s", cfg.TraceIn)
			if cfg.TraceScale > 0 {
				source += fmt.Sprintf(" at %gx rate", cfg.TraceScale)
			}
		}
	} else {
		mix, err = cfg.ServeWorkload()
		if err != nil {
			fatal(err)
		}
		reqs, err = mix.Generate(*n, *seed)
		if err != nil {
			fatal(err)
		}
		source = "generated"
	}

	modelCfg := model.OPT1_3B

	// The cluster configuration is the one the keys wrote, completed with
	// what no key names: the batch limit and the fault seed — one seed pins
	// the workload and the fault process together. Replica i's capacity
	// weight scales its dispatch share, its batch limit and its device
	// memory together.
	cc := cfg.Cluster
	cc.Server.MaxBatch = *batch
	cc.Faults.Seed = *seed
	var caps []float64
	for i := range cc.Overrides {
		w := cc.Overrides[i].Capacity
		caps = append(caps, w)
		if w > 0 && w != 1 {
			// float64 rounds the product, so arm64 cannot fuse it with the add.
			b := int(float64(w*float64(*batch)) + 0.5)
			if b < 1 {
				b = 1 // a 0 override would mean "inherit the full batch"
			}
			cc.Overrides[i].MaxBatch = b
		}
	}
	capacityOf := func(i int) int64 {
		if i < len(cc.Overrides) && cc.Overrides[i].Capacity > 0 {
			return int64(cc.Overrides[i].Capacity * float64(capBytes))
		}
		return capBytes
	}
	// Reject configuration mistakes (a fault plan targeting a replica the
	// fleet can never have, bad recovery knobs, ...) before any policy runs,
	// so they read as config errors rather than per-policy serving failures.
	if err := cc.Validate(); err != nil {
		fatal(err)
	}

	newAlloc := func(i int) memalloc.Allocator {
		driver := cuda.NewDriver(gpu.NewDevice("serve", capacityOf(i)), sim.NewClock(), sim.DefaultCostModel())
		alloc, err := cfg.Build(driver)
		if err != nil {
			fatal(err)
		}
		return alloc
	}

	fmt.Printf("mix %s (%s): %d requests from %d classes, %.1f req/s aggregate, seed %d\n",
		mix.Name, source, len(reqs), len(mix.Classes), mix.Rate, *seed)
	fmt.Printf("pool %s, %.1f GiB device, max batch %d\n", cfg.Backend, *capacity, *batch)
	agingStr := "off"
	if cc.Server.Aging > 0 {
		agingStr = cc.Server.Aging.String()
	}
	dispatchPolicy, err := serve.ParseDispatch(string(cc.Dispatch))
	if err != nil {
		fatal(err)
	}
	fleetStr := fmt.Sprintf("%d replica(s)", cc.Replicas)
	if cc.MaxReplicas > 0 {
		min := cc.MinReplicas
		if min == 0 {
			min = 1
		}
		fleetStr = fmt.Sprintf("elastic %d..%d replicas", min, cc.MaxReplicas)
	}
	stealStr := ""
	if cc.Steal {
		stealStr = ", work-stealing"
	}
	capsStr := ""
	if len(caps) > 0 {
		capsStr = fmt.Sprintf(", caps %v", caps)
	}
	dispatchStr := string(dispatchPolicy)
	if dispatchPolicy == serve.DispatchSessionAffinity {
		base := cc.AffinityBase
		if base == "" {
			base = serve.DispatchJSQ
		}
		dispatchStr += fmt.Sprintf(" (base %s)", base)
	}
	reuseStr := ""
	if cc.Server.PrefixReuse {
		reuseStr = ", prefix reuse"
	}
	fmt.Printf("cluster: %s, dispatch %s, aging %s%s%s%s\n", fleetStr, dispatchStr, agingStr, stealStr, capsStr, reuseStr)
	if cc.Faults.Enabled() || cc.Server.Timeout > 0 {
		faultStr := "none"
		if cc.Faults.MTTF > 0 {
			faultStr = fmt.Sprintf("mttf %v, mttr %v", cc.Faults.MTTF, cc.Faults.MTTR)
		} else if len(cc.Faults.Plan) > 0 {
			faultStr = fmt.Sprintf("scripted plan, %d events", len(cc.Faults.Plan))
		}
		deadlineStr := "none"
		if cc.Server.Timeout > 0 {
			deadlineStr = cc.Server.Timeout.String()
			if cc.Server.Shed {
				deadlineStr += " with shedding"
			}
		}
		retryStr := "none"
		if cc.Recovery.Retries > 0 {
			retryStr = fmt.Sprintf("%d with backoff", cc.Recovery.Retries)
			if cc.Recovery.RetryBudget > 0 {
				retryStr += fmt.Sprintf(", budget %d/class", cc.Recovery.RetryBudget)
			}
		}
		fmt.Printf("faults: %s; deadline %s; retries %s\n", faultStr, deadlineStr, retryStr)
	}
	fmt.Println()

	// buildMgr assembles one replica's manager over its own pool; the
	// returned closer releases a paged slab after the run.
	buildMgr := func(policy string, replica int, alloc memalloc.Allocator) (serve.CacheManager, func(), error) {
		switch policy {
		case "contiguous":
			return serve.NewContiguousKV(alloc, modelCfg, 1024), func() {}, nil
		case "paged":
			// Size the slab to ~85% of the device so the block pool, not
			// the pool allocator, is the binding constraint.
			blockBytes := 16 * serve.KVBytesPerToken(modelCfg)
			blocks := int(capacityOf(replica) * 85 / 100 / blockBytes)
			if blocks < 1 {
				return nil, nil, fmt.Errorf("paged slab on a %d-byte device holds no %d-byte block: %w",
					capacityOf(replica), blockBytes, cuda.ErrOutOfMemory)
			}
			m, err := serve.NewPagedKV(alloc, modelCfg, 16, blocks)
			if err != nil {
				return nil, nil, err
			}
			return m, m.Close, nil
		default: // chunked
			return serve.NewChunkedKV(alloc, modelCfg, 64), func() {}, nil
		}
	}

	// Policy runs are independent (each builds its own devices, pools and
	// managers over the identical request stream), so they sweep on the
	// worker pool; reports print in policy order regardless of which
	// finished first.
	// Every policy serves through the cluster — with one replica the
	// cluster loop is byte-identical to the single-server Serve loop.
	// Replica managers are built lazily: with autoscaling on, replicas
	// past the initial fleet exist only if the scaler spawned them.
	type outcome struct {
		rep   serve.ClusterReport
		stats []memalloc.Stats
		cap   *reqtrace.Capture
		err   error
	}
	results, err := runner.Collect(cfg.Parallelism, len(policies), func(i int) (out outcome) {
		var allocs []memalloc.Allocator
		var closers []func()
		defer func() {
			for _, c := range closers {
				c()
			}
			// A manager build error aborts the co-simulation immediately
			// (there is no point serving thousands of requests on a
			// half-built fleet); it surfaces as this policy's outcome.
			if r := recover(); r != nil {
				if err, ok := r.(replicaBuildError); ok {
					out = outcome{err: err.err}
					return
				}
				panic(r)
			}
		}()
		// Each policy run gets its own capture (policies sweep in
		// parallel); the trace is written once from the first successful
		// run — the streams are identical, so the captures are too.
		runCfg := cc
		var capRec *reqtrace.Capture
		if cfg.TraceOut != "" {
			capRec = reqtrace.NewCapture()
			runCfg.Server.OnComplete = capRec.Hook()
		}
		rep, err := serve.ServeCluster(reqs, func(r int) serve.CacheManager {
			alloc := newAlloc(r)
			mgr, closer, err := buildMgr(policies[i], r, alloc)
			if err != nil {
				panic(replicaBuildError{err: fmt.Errorf("replica %d: %w", r, err)})
			}
			allocs = append(allocs, alloc)
			closers = append(closers, closer)
			return mgr
		}, runCfg)
		stats := make([]memalloc.Stats, len(allocs))
		for r, a := range allocs {
			stats[r] = a.Stats()
		}
		return outcome{rep: rep, stats: stats, cap: capRec, err: err}
	})
	if err != nil {
		fatal(err)
	}
	failed := 0
	for i, res := range results {
		switch {
		case res.err == nil:
			printReport(policies[i], res.rep, res.stats)
		case errors.Is(res.err, cuda.ErrOutOfMemory):
			// The device is too small for this policy: a result, not a failure.
			fmt.Printf("== %s: OOM: %v\n\n", policies[i], res.err)
		default:
			fmt.Printf("== %s: failed: %v\n\n", policies[i], res.err)
			failed++
		}
	}
	if cfg.TraceOut != "" {
		for i, res := range results {
			if res.err == nil && res.cap != nil {
				if err := res.cap.Trace().WriteFile(cfg.TraceOut); err != nil {
					fatal(err)
				}
				fmt.Printf("captured %d completed requests from the %s run into %s\n",
					res.cap.Count(), policies[i], cfg.TraceOut)
				break
			}
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d policy run(s) failed for a reason other than memory", failed))
	}
}

// printFit summarizes a calibration: the fitted classes and the fit-error
// report of the fitted mix against the source trace, computed on the exact
// stream the run serves.
func printFit(tr reqtrace.Trace, fitted servegen.Mix, served []serve.Request) {
	fmt.Printf("calibration: fitted %d classes at %.2f req/s aggregate\n", len(fitted.Classes), fitted.Rate)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "  class\tSLO\tshare\tarrival\tprompt\toutput")
	for _, c := range fitted.Classes {
		fmt.Fprintf(w, "  %s\t%s\t%.0f%%\t%s\t%s\t%s\n",
			c.Name, c.SLO, 100*c.Share, c.Arrival.Describe(),
			c.Prompt.Describe(), c.Output.Describe())
	}
	w.Flush()
	rep := reqtrace.CompareTraces(tr, reqtrace.FromRequests(served))
	fmt.Printf("fit error vs trace (aggregate): rate %.1f%%, prompt mean %.1f%%, output mean %.1f%%\n",
		100*rep.RateErr, 100*rep.PromptMeanErr, 100*rep.OutputMeanErr)
	w = tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "  class\trate err\tprompt err\toutput err\tKS prompt\tKS output")
	for _, ce := range rep.Classes {
		fmt.Fprintf(w, "  %s\t%.1f%%\t%.1f%%\t%.1f%%\t%.2f\t%.2f\n",
			ce.Class, 100*ce.RateErr, 100*ce.PromptMeanErr, 100*ce.OutputMeanErr,
			ce.PromptKS, ce.OutputKS)
	}
	w.Flush()
	fmt.Println()
}

// replicaBuildError carries a cache-manager build failure out of the
// ServeCluster factory callback via panic, aborting the run up front.
type replicaBuildError struct{ err error }

func printReport(policy string, rep serve.ClusterReport, stats []memalloc.Stats) {
	var util float64
	for _, st := range stats {
		util += st.Utilization()
	}
	util /= float64(len(stats))
	fmt.Printf("== %s: served %d in %s virtual, mean batch %.1f, %d preemptions, mean pool util %.1f%%\n",
		policy, rep.Served, rep.Duration.Round(time.Millisecond), rep.MeanBatch,
		rep.Preemptions, 100*util)
	if rep.Crashes > 0 || rep.DeadlineMisses > 0 || rep.Shed > 0 {
		fmt.Printf("   faults: %d crashes, %d restarts, %d retries, %d lost; goodput %d, %d deadline misses, %d shed, availability %.1f%%\n",
			rep.Crashes, rep.Restarts, rep.Retries, rep.Lost,
			rep.Goodput, rep.DeadlineMisses, rep.Shed, 100*rep.Availability)
	}
	if rep.PrefixHits > 0 || rep.PrefixMisses > 0 || rep.AffinityRouted > 0 {
		fmt.Printf("   sessions: %d prefix hits, %d misses, %d prefill tokens reused, %d affinity-routed\n",
			rep.PrefixHits, rep.PrefixMisses, rep.ReusedTokens, rep.AffinityRouted)
	}
	if rep.Spawns > 0 || rep.Drains > 0 {
		fmt.Printf("   elastic fleet: peak %d replicas, %d spawns, %d drains, %.1f replica-seconds\n",
			rep.PeakReplicas, rep.Spawns, rep.Drains, rep.ReplicaSeconds.Seconds())
	}
	if len(rep.Replicas) > 1 {
		for i, r := range rep.Replicas {
			stolen := ""
			if rep.Stolen[i] > 0 {
				stolen = fmt.Sprintf(", %d stolen", rep.Stolen[i])
			}
			util := "-"
			if i < len(stats) {
				util = fmt.Sprintf("%.1f%%", 100*stats[i].Utilization())
			}
			fmt.Printf("   replica %d: %d assigned%s, %d served in %s, %d preemptions, pool util %s\n",
				i, rep.Assigned[i], stolen, r.Served, r.Duration.Round(time.Millisecond),
				r.Preemptions, util)
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "class\tSLO\tserved\tTTFT p50\tp95\tp99\te2e p50\tp99\tpreempt\tKV share")
	row := func(class, slo string, served int, ttft, e2e serve.LatencySummary, preempt int64, share float64) {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%d\t%.1f%%\n",
			class, slo, served, msRound(ttft.P50), msRound(ttft.P95), msRound(ttft.P99),
			msRound(e2e.P50), msRound(e2e.P99), preempt, 100*share)
	}
	for _, c := range rep.Classes {
		row(c.Class, c.SLO, c.Served, c.TTFT, c.E2E, c.Preemptions, c.KVShare)
	}
	row("ALL", "-", rep.Served, rep.TTFT, rep.E2E, rep.Preemptions, 1)
	w.Flush()
	fmt.Println()
}

func msRound(d time.Duration) string {
	return fmt.Sprintf("%dms", d.Milliseconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmlake-serve:", err)
	os.Exit(1)
}
