// Serving: compare KV-cache policies for LLM inference on the same
// heterogeneous multi-tenant request stream — the paper's Table 3 scope
// argument, executable, now with ServeGen-style client decomposition.
//
// The workload is the mixed-bursty mix: steady interactive chat, a strongly
// bursty agent tenant (Gamma interarrivals) and on-off batch backfill, each
// with its own SLO class. Three policies manage the KV cache of an
// OPT-1.3B server under continuous batching:
//
//   - contiguous: pad every sequence to the maximum length (pre-vLLM);
//   - paged: vLLM's block table inside one pre-reserved slab;
//   - chunked: grow each sequence through an ordinary tensor allocator,
//     run once over the caching allocator and once over GMLake.
//
// The per-SLO-class tables show what aggregates hide: under the pad-to-max
// baseline the batch classes absorb enormous queueing delay while paging
// and chunking keep every class's TTFT low — and admission/preemption are
// SLO-aware, so interactive tenants are evicted last.
//
// The next sections scale out: a fixed multi-replica cluster with
// priority aging, then an elastic fleet — queue-depth autoscaling with
// drain-on-idle, work-stealing re-dispatch of queued requests, and
// capacity-weighted dispatch for heterogeneous replicas.
//
// A fault-injection section crashes a replica mid-decode on a scripted
// schedule and walks through what recovery does: queued requests
// re-dispatch for free, in-flight ones retry with recompute-from-scratch
// cost (TTFT surviving only if the first token had streamed), deadlines
// split completions into goodput and misses, and admission shedding
// rejects provably-late requests up front.
//
// A session section switches to the chat-sessions mix — multi-turn
// conversations whose turn N+1 prompt embeds turn N's prompt and output —
// and compares dispatch policies with KV prefix reuse on: session-affinity
// routes a follow-up turn to the replica still holding its prefix, so the
// resident tokens skip prefill and the turn's TTFT drops, where jsq
// scatters the turns and mostly misses.
//
// The final section closes the specify→observe→calibrate loop with request
// traces: a capture hook records every completed request, the trace
// round-trips through a file byte-identically, replaying it reproduces the
// original report exactly, and fitting it recovers a calibrated mix with a
// quantified fit error.
//
// A closing section contrasts the two latency-reporting modes: exact
// nearest-rank percentiles (the default while a digest holds at most
// exact_samples raw values) versus the fixed-size streaming quantile
// sketch the digests spill into at million-request scale — same stream,
// near-identical percentiles, flat memory.
//
// # Request-trace file format
//
// A request trace stores one record per request — arrival offset
// (integer nanoseconds), client class, SLO tag, priority, prompt tokens,
// output tokens — sorted by arrival, in either of two versioned formats:
//
// JSONL (default; a header object, then one record per line):
//
//	{"format":"reqtrace","version":1}
//	{"arrival_ns":212334791,"class":"chat","slo":"interactive","priority":2,"prompt_tokens":120,"output_tokens":64}
//
// CSV (written for .csv paths; a version comment, a column header, rows):
//
//	#reqtrace v1
//	arrival_ns,class,slo,priority,prompt_tokens,output_tokens
//	212334791,chat,interactive,2,120,64
//
// Readers sniff the format from the first byte, reject newer versions, and
// validate ordering and token counts on load. Arrival offsets are exact
// integer nanoseconds, which is what makes file round trips byte-identical.
//
// Run with: go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	gmlake "repro"
)

func main() {
	mix := gmlake.MixedBurstyMix()
	reqs, err := gmlake.GenMixRequests(mix, 150, 7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := gmlake.OPT1_3B
	srvCfg := gmlake.ServeConfig{MaxBatch: 24}
	const capacity = 3 * gmlake.GiB / 2

	fmt.Printf("mix %s: %d requests over %d client classes, %.1f req/s aggregate\n\n",
		mix.Name, len(reqs), len(mix.Classes), mix.Rate)

	show := func(policy, pool string, rep gmlake.ServeReport, st gmlake.Stats) {
		fmt.Printf("%s over %s: served %d in %s virtual, %d preemptions, pool util %.1f%%, reserved %s\n",
			policy, pool, rep.Served, rep.Duration.Round(time.Millisecond), rep.Preemptions,
			100*st.Utilization(), gb(st.PeakReserved))
		fmt.Printf("  %-16s %-12s %7s %10s %10s %10s %8s\n",
			"class", "SLO", "served", "TTFT p50", "TTFT p99", "e2e p99", "KV share")
		for _, c := range rep.Classes {
			fmt.Printf("  %-16s %-12s %7d %8dms %8dms %8dms %7.1f%%\n",
				c.Class, c.SLO, c.Served, c.TTFT.P50.Milliseconds(),
				c.TTFT.P99.Milliseconds(), c.E2E.P99.Milliseconds(), 100*c.KVShare)
		}
		fmt.Println()
	}

	// Pad-to-max baseline.
	{
		sys := gmlake.NewSystem(capacity)
		alloc := gmlake.NewCaching(sys.Driver)
		mgr := gmlake.NewContiguousKV(alloc, cfg, 1024)
		rep, err := gmlake.ServeRequests(reqs, mgr, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		show("contiguous", "caching", rep, alloc.Stats())
	}

	// vLLM-style paging.
	{
		sys := gmlake.NewSystem(capacity)
		alloc := gmlake.NewCaching(sys.Driver)
		mgr, err := gmlake.NewPagedKV(alloc, cfg, 16, 448)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := gmlake.ServeRequests(reqs, mgr, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		show("paged (vLLM)", "caching", rep, alloc.Stats())
		mgr.Close()
	}

	// Ordinary-allocator growth, caching vs GMLake underneath.
	for _, pool := range []string{"caching", "gmlake"} {
		sys := gmlake.NewSystem(capacity)
		var alloc gmlake.MemoryAllocator
		if pool == "gmlake" {
			alloc = gmlake.New(sys.Driver)
		} else {
			alloc = gmlake.NewCaching(sys.Driver)
		}
		mgr := gmlake.NewChunkedKV(alloc, cfg, 64)
		rep, err := gmlake.ServeRequests(reqs, mgr, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		show("chunked", pool, rep, alloc.Stats())
	}

	fmt.Println("paged eliminates in-tensor padding; GMLake eliminates pool-level fragmentation")
	fmt.Println("under the chunked policy (compare the two chunked pool-util lines) — different")
	fmt.Println("scopes, complementary mechanisms (Table 3). per-class rows show the SLO story")
	fmt.Println("aggregates hide: batch absorbs the queueing tail.")
	fmt.Println()

	// Multi-replica cluster: the mix cranked to 4x its rate — a sustained
	// overload — sharded over three replicas behind a cluster-level
	// admission queue. Each replica gets its own device, pool and chunked
	// manager; join-shortest-queue dispatch routes each arrival to the
	// least-loaded replica, and priority aging keeps the batch tenant from
	// starving while the interactive tenants saturate admission.
	overload, err := gmlake.GenMixRequests(mix.WithRate(4*mix.Rate), 150, 7)
	if err != nil {
		log.Fatal(err)
	}
	newMgr := func(int) gmlake.KVCacheManager {
		sys := gmlake.NewSystem(capacity)
		return gmlake.NewChunkedKV(gmlake.New(sys.Driver), cfg, 64)
	}
	for _, aging := range []time.Duration{0, 2 * time.Second} {
		rep, err := gmlake.ServeClusterRequests(overload, newMgr, gmlake.ServeClusterConfig{
			Replicas: 3,
			Dispatch: gmlake.DispatchJSQ,
			Server:   gmlake.ServeConfig{MaxBatch: 4, Aging: aging},
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "aging off"
		if aging > 0 {
			label = "aging " + aging.String()
		}
		fmt.Printf("cluster 3x chunked/gmlake (jsq, %s): served %d in %s virtual, assigned %v\n",
			label, rep.Served, rep.Duration.Round(time.Millisecond), rep.Assigned)
		for _, c := range rep.Classes {
			fmt.Printf("  %-16s %-12s %7d %8dms %8dms %8dms\n",
				c.Class, c.SLO, c.Served, c.TTFT.P50.Milliseconds(),
				c.TTFT.P99.Milliseconds(), c.E2E.P99.Milliseconds())
		}
		fmt.Println()
	}
	fmt.Println("cluster percentiles merge the replicas' raw samples; with aging on, a starved")
	fmt.Println("batch request's effective priority rises one level per aging interval of wait,")
	fmt.Println("so fresh interactive arrivals eventually stop cutting ahead of it.")
	fmt.Println()

	// Elastic fleet: the same overload served by a queue-depth autoscaler
	// instead of a fixed fleet. The scaler watches the queued backlog in
	// virtual time: above ScaleUpDepth requests per active replica it
	// spawns one (up to MaxReplicas); when the backlog thins it marks the
	// highest-index replica draining — the replica takes no new work and
	// leaves the fleet only once its queue and batch are empty, the
	// drain-on-idle rule that keeps runs deterministic. Work-stealing
	// re-dispatch (Steal) lets a replica that goes idle take QUEUED (never
	// running) requests from a backlogged peer, so an early-draining
	// replica helps instead of idling.
	//
	// Worked drain-on-idle example: under the 4x burst the fleet grows
	// 1 -> 3; when arrivals stop, replica 2 finishes its queue first, is
	// marked draining, empties, and leaves — its replica-seconds stop
	// accruing there, while a static 3-replica fleet pays 3 x makespan.
	for _, steal := range []bool{false, true} {
		rep, err := gmlake.ServeClusterRequests(overload, newMgr, gmlake.ServeClusterConfig{
			MinReplicas: 1,
			MaxReplicas: 3,
			Steal:       steal,
			Dispatch:    gmlake.DispatchJSQ,
			Server:      gmlake.ServeConfig{MaxBatch: 4},
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "elastic 1..3"
		if steal {
			label = "elastic 1..3 + stealing"
		}
		stolen := 0
		for _, n := range rep.Stolen {
			stolen += n
		}
		fmt.Printf("%s: served %d in %s virtual, peak %d replicas, %d spawns, %d drains, %d stolen\n",
			label, rep.Served, rep.Duration.Round(time.Millisecond),
			rep.PeakReplicas, rep.Spawns, rep.Drains, stolen)
		fmt.Printf("  fleet cost %.1f replica-seconds (static 3x fleet would pay %.1f), e2e p99 %s\n",
			rep.ReplicaSeconds.Seconds(), (3 * rep.Duration).Seconds(),
			rep.E2E.P99.Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Println("a heterogeneous fleet sets ServeClusterConfig.Overrides: serve.ReplicaOverride{Capacity: 2,")
	fmt.Println("MaxBatch: 8} makes replica 0 a double-size instance, and jsq/least-kv divide its")
	fmt.Println("observed load by the weight so it legitimately absorbs twice the demand.")
	fmt.Println()

	// Fault injection: the same overloaded stream on a 3-replica fleet,
	// with replica 1 crashing mid-run on a scripted schedule and restarting
	// two seconds later. Everything replica 1 held at the crash instant is
	// affected, but not equally:
	//
	//   - queued requests (dispatched to replica 1 but not yet admitted)
	//     lost nothing but their place in line — the cluster re-dispatches
	//     them immediately, keeping their arrival-order ticket, at no
	//     retry cost;
	//   - in-flight requests (decoding when the KV cache vanished) must
	//     recompute from scratch on another replica. Each consumes one of
	//     Recovery.Retries attempts, re-entering dispatch after an
	//     exponential-backoff delay. Their TTFT is preserved only if the
	//     first token had already streamed to the client — the same
	//     contract preemption honours; E2E always stretches.
	//
	// With Retries: 0 the in-flight requests would instead be abandoned
	// and counted in Lost. The deadline (Timeout) bounds end-to-end
	// latency across retries: a completion past its deadline still counts
	// as served, but not as goodput. Shed goes one step further and
	// rejects a request at admission the moment its minimum service time
	// cannot fit inside what remains of the deadline, freeing the batch
	// slot for a request that can still make it.
	plan, err := gmlake.ParseServeFaultPlan("crash@t=6s:r1/restart@t=8s:r1")
	if err != nil {
		log.Fatal(err)
	}
	for _, recov := range []gmlake.ServeRecoveryConfig{
		{},           // abandon crashed in-flight work
		{Retries: 3}, // retry it, default 50ms delay doubling per attempt
	} {
		rep, err := gmlake.ServeClusterRequests(overload, newMgr, gmlake.ServeClusterConfig{
			Replicas: 3,
			Dispatch: gmlake.DispatchJSQ,
			Server:   gmlake.ServeConfig{MaxBatch: 4, Timeout: 60 * time.Second, Shed: true},
			Faults:   gmlake.ServeFaultConfig{Plan: plan},
			Recovery: recov,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "no retries"
		if recov.Retries > 0 {
			label = fmt.Sprintf("retries %d", recov.Retries)
		}
		fmt.Printf("crash@6s r1, restart@8s (%s): served %d, goodput %d, %d retries, %d lost, %d shed, %d misses, availability %.1f%%\n",
			label, rep.Served, rep.Goodput, rep.Retries, rep.Lost, rep.Shed,
			rep.DeadlineMisses, 100*rep.Availability)
	}
	fmt.Println()
	fmt.Println("faults fire only at event boundaries of the co-simulation, so a faulty run is")
	fmt.Println("exactly as deterministic as a fault-free one: same seed and plan, byte-identical")
	fmt.Println("report. Seeded MTTF/MTTR streams (ServeFaultConfig{MTTF, MTTR, Seed}) replace the")
	fmt.Println("script for statistical fault processes; the conf keys are mttf, mttr, fault_plan,")
	fmt.Println("timeout, retries, backoff, retry_budget and shed (same flags on gmlake-serve).")
	fmt.Println()

	// Multi-turn sessions and KV prefix reuse: the chat-sessions mix
	// generates conversations — turn N+1's prompt is turn N's prompt plus
	// its output plus a fresh user delta, arriving after a think-time gap,
	// with SessionID/Turn stamped on every request. PrefixReuse makes a
	// server remember, per completed session turn, how many tokens of that
	// conversation's KV it still holds; a follow-up turn admitted on the
	// same replica skips that many prompt tokens of prefill (a prefix
	// *hit* — its TTFT drops by exactly the skipped prefill time), while a
	// turn landing on a replica without the prefix pays full prefill (a
	// *miss*). Crashes, recompute preemption and deadline drops invalidate
	// residency — reuse is a compute shortcut, never a correctness risk.
	//
	// Residency is per replica, so in a fleet the dispatch policy decides
	// whether reuse ever fires: session-affinity routes a turn to the
	// replica holding its prefix and falls back to a base policy (jsq
	// here, affinity_base to change it) for first turns and lost prefixes.
	// The comparison below is the policy's whole trade, measured: affinity
	// converts misses into hits and cuts interactive TTFT, at the price of
	// a stickier (less balanced) assignment than pure jsq.
	sessMix := gmlake.ChatSessionsMix()
	sessReqs, err := gmlake.GenMixRequests(sessMix, 150, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mix %s: %d requests (multi-turn sessions over a batch floor)\n", sessMix.Name, len(sessReqs))
	for _, d := range []gmlake.DispatchPolicy{gmlake.DispatchSessionAffinity, gmlake.DispatchJSQ} {
		rep, err := gmlake.ServeClusterRequests(sessReqs, newMgr, gmlake.ServeClusterConfig{
			Replicas: 4,
			Dispatch: d,
			Server:   gmlake.ServeConfig{MaxBatch: 8, PrefixReuse: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		label := string(d)
		if d == gmlake.DispatchSessionAffinity {
			label = "session-affinity/jsq"
		}
		fmt.Printf("  %-20s TTFT p50 %4dms p99 %4dms  %3d hits %3d misses  %5d tokens reused  %3d affinity-routed  assigned %v\n",
			label, rep.TTFT.P50.Milliseconds(), rep.TTFT.P99.Milliseconds(),
			rep.PrefixHits, rep.PrefixMisses, rep.ReusedTokens, rep.AffinityRouted, rep.Assigned)
	}
	fmt.Println()
	fmt.Println("same stream, same reuse model — only the routing differs: affinity keeps a")
	fmt.Println("conversation on its replica so the resident prefix is there when the next turn")
	fmt.Println("arrives. The conf keys are serve_mix:chat-sessions, dispatch:session-affinity,")
	fmt.Println("prefix_reuse:true and affinity_base:<p>; gmlake-serve takes -mix chat-sessions")
	fmt.Println("-dispatch session-affinity -prefix-reuse -affinity-base jsq.")
	fmt.Println()

	// Request traces: capture → file → replay → calibrate. A capture hook
	// on the server records every completed request; the trace written to
	// disk (JSONL here — see the package comment for the format) replays
	// into the byte-identical request stream, so re-serving it reproduces
	// the original report exactly. Fitting the trace recovers a servegen
	// mix — class shares, arrival burstiness, length distributions — whose
	// fit error against the trace is measured, never assumed.
	dir, err := os.MkdirTemp("", "reqtrace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "captured.jsonl")

	capture := gmlake.NewRequestCapture()
	{
		sys := gmlake.NewSystem(capacity)
		mgr := gmlake.NewChunkedKV(gmlake.New(sys.Driver), cfg, 64)
		srvCfg := srvCfg
		srvCfg.OnComplete = capture.Hook()
		if _, err := gmlake.ServeRequests(reqs, mgr, srvCfg); err != nil {
			log.Fatal(err)
		}
	}
	if err := capture.Trace().WriteFile(tracePath); err != nil {
		log.Fatal(err)
	}
	loaded, err := gmlake.ReadRequestTrace(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := loaded.Replay(gmlake.TraceReplayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d completed requests into %s; replay identical to the generated stream: %v\n",
		capture.Count(), filepath.Base(tracePath), reflect.DeepEqual(replayed, reqs))

	fitted, err := gmlake.FitRequestTrace(loaded)
	if err != nil {
		log.Fatal(err)
	}
	fitErr, err := gmlake.RequestTraceFitError(loaded, fitted, len(reqs), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted mix: %d classes at %.1f req/s; fit error vs trace: rate %.1f%%, prompt mean %.1f%%, output mean %.1f%%\n",
		len(fitted.Classes), fitted.Rate, 100*fitErr.RateErr, 100*fitErr.PromptMeanErr, 100*fitErr.OutputMeanErr)
	stats := loaded.Stats()
	for _, c := range stats.Classes {
		fmt.Printf("  %-16s %6d reqs  %.2f req/s  prompt mean %4.0f  output mean %4.0f\n",
			c.Class, c.Requests, c.RatePerSec, c.MeanPrompt, c.MeanOutput)
	}
	fmt.Println()
	fmt.Println("the trace keys wire the same loop through configuration strings and gmlake-serve:")
	fmt.Println("  trace_out:prod.jsonl            capture a run        (-trace-out)")
	fmt.Println("  trace_in:prod.jsonl             replay it            (-trace-in)")
	fmt.Println("  trace_in:prod.jsonl,trace_scale:2   replay at 2x rate (-trace-scale)")
	fmt.Println("  trace_in:prod.jsonl,fit:true    serve the fitted mix (-fit)")
	fmt.Println()

	// Streaming percentiles: every latency table above was exact — each
	// digest retains raw samples and applies the exact nearest-rank rule
	// up to ServeConfig.ExactSamples values (default 8192, so small runs
	// like this one render byte-identically to the historical tables). One
	// sample past
	// the threshold the digest spills into a fixed-size deterministic
	// quantile sketch, so a 10M-request run keeps a few thousand buckets
	// instead of millions of samples, within a ~1% relative rank-error
	// bound. ExactSamples: -1 forces the sketch path from the first
	// sample — on the same stream its percentiles land next to the exact
	// ones, and the retained/sketched sample counts show the footprint
	// trade directly. The conf key is exact_samples:<n>
	// (-exact-samples on gmlake-serve and gmlake-bench).
	serveWith := func(exactSamples int) gmlake.ServeReport {
		sys := gmlake.NewSystem(capacity)
		mgr := gmlake.NewChunkedKV(gmlake.New(sys.Driver), cfg, 64)
		cfg := srvCfg
		cfg.ExactSamples = exactSamples
		rep, err := gmlake.ServeRequests(reqs, mgr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	exactRep, sketchRep := serveWith(0), serveWith(-1)
	fmt.Printf("exact digests (default): E2E p50/p99 %v/%v, %d raw samples retained, %d sketched\n",
		exactRep.E2E.P50, exactRep.E2E.P99, exactRep.RetainedSamples, exactRep.SketchedSamples)
	fmt.Printf("sketch-only (exact_samples:-1): E2E p50/p99 %v/%v, %d raw samples retained, %d sketched\n",
		sketchRep.E2E.P50, sketchRep.E2E.P99, sketchRep.RetainedSamples, sketchRep.SketchedSamples)
}

func gb(n int64) string { return fmt.Sprintf("%.2f GB", float64(n)/float64(gmlake.GiB)) }
