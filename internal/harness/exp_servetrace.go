package harness

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/reqtrace"
	"repro/internal/serve"
	"repro/internal/servegen"
)

// Fit-quality tolerances the servetrace experiment states and the tests
// enforce: a stream regenerated from the fitted mix must match the captured
// trace within these relative errors on mean rate and mean token lengths.
const (
	serveTraceRateTol = 0.15
	serveTraceLenTol  = 0.25
)

// serveTraceResult is one mix's slice of the servetrace tables.
type serveTraceResult struct {
	rows    [][]string // per-source per-class serving rows
	fitRows [][]string // per-class fit-error rows
}

// ServeTraceExperiment closes the specify→observe→calibrate loop on the
// serving substrate. For every canonical mix it (1) serves the generated
// stream with a capture hook recording completions into a request trace,
// (2) replays the trace — the replayed rows are byte-identical to the
// generated ones, the round-trip guarantee — and (3) fits a servegen mix to
// the trace and serves a stream regenerated from the fit, with a per-class
// fit-error table (moment match + KS distance) quantifying how much of the
// hand-picked mix the calibration recovered.
//
// The experiment serves only the canonical mixes. A trace file is replayed
// or fitted by gmlake-serve -trace-in (with -trace-scale, -fit), whose
// -policy chunked defaults are this testbed: a 1.5 GiB device, batch 24,
// chunked KV over the caching allocator.
//
// Cells run on the parallel experiment engine (one cell per mix, each on
// private rigs), so the tables are byte-identical at any parallelism.
func (e *Env) ServeTraceExperiment() []*Table {
	results := runCells(e, servegen.Mixes(), func(mix servegen.Mix) serveTraceResult {
		return e.serveTraceCell(mix.Name, e.stream(mix, serveMixRequests))
	})

	main := &Table{
		ID: "servetrace",
		Title: fmt.Sprintf("Generate→capture→replay→calibrate round trip, OPT-1.3B, %d requests, %s GB device",
			serveMixRequests, gb(serveMixCapacity)),
		Header: []string{"mix", "source", "class", "SLO",
			"served", "TTFT p50", "TTFT p99", "e2e p50", "e2e p99", "preempt"},
	}
	fit := &Table{
		ID:    "servetrace-fit",
		Title: "Calibration fit error: fitted mix vs captured trace (relative errors; KS in [0,1])",
		Header: []string{"mix", "class", "SLO", "arrival fit",
			"rate err", "prompt err", "output err", "KS prompt", "KS output"},
	}
	for _, r := range results {
		for _, row := range r.rows {
			main.AddRow(row...)
		}
		for _, row := range r.fitRows {
			fit.AddRow(row...)
		}
	}
	main.AddNote("the generated rows are served with a reqtrace capture hook; the replayed rows re-serve the")
	main.AddNote("captured trace and are byte-identical to the generated ones (the round-trip guarantee); the")
	main.AddNote("fitted rows serve a stream regenerated from the calibrated mix — close, never identical.")
	fit.AddNote("tolerance: the fitted mix stays within %.0f%% on mean rate and %.0f%% on mean prompt/output",
		100*serveTraceRateTol, 100*serveTraceLenTol)
	fit.AddNote("length (ALL row); per-class KS distances expose what moment matching hides, e.g. an")
	fit.AddNote("extreme-burst class fitted as on-off rather than Gamma.")
	return []*Table{main, fit}
}

// serveTraceCell runs one mix's generate→capture→replay→fit pipeline.
func (e *Env) serveTraceCell(name string, reqs []serve.Request) serveTraceResult {
	serveOn := func(stream []serve.Request, hook func(serve.Request)) serve.Report {
		r := e.newServeRig(AllocCaching)
		mgr := serve.NewChunkedKV(r.alloc, model.OPT1_3B, serveMixChunkTokens)
		rep, err := serve.Serve(stream, mgr, serve.ServerConfig{
			MaxBatch: serveMixMaxBatch, OnComplete: hook,
		})
		if err != nil {
			panic("harness: servetrace " + name + ": " + err.Error())
		}
		return rep
	}

	var res serveTraceResult
	addRows := func(source string, rep serve.Report) {
		for _, row := range classRows(rep) {
			res.rows = append(res.rows, append([]string{name, source}, row...))
		}
	}

	cap := reqtrace.NewCapture()
	addRows("generated", serveOn(reqs, cap.Hook()))
	tr := cap.Trace()

	replayed, err := tr.Replay(reqtrace.ReplayOptions{})
	if err != nil {
		panic("harness: servetrace " + name + ": " + err.Error())
	}
	addRows("replayed", serveOn(replayed, nil))

	fitted, err := reqtrace.Fit(tr)
	if err != nil {
		panic("harness: servetrace " + name + ": " + err.Error())
	}
	synth := e.stream(fitted, len(reqs))
	addRows("fitted", serveOn(synth, nil))

	// The fit-error report compares the exact stream the fitted rows
	// served — no regeneration, no implicit (n, seed) coupling.
	fitRep := reqtrace.CompareTraces(tr, reqtrace.FromRequests(synth))
	for _, ce := range fitRep.Classes {
		arrival := "-"
		for _, c := range fitted.Classes {
			if c.Name == ce.Class {
				arrival = c.Arrival.Describe()
			}
		}
		res.fitRows = append(res.fitRows, []string{name, ce.Class, ce.SLO, arrival,
			pct(ce.RateErr), pct(ce.PromptMeanErr), pct(ce.OutputMeanErr),
			fmt.Sprintf("%.2f", ce.PromptKS), fmt.Sprintf("%.2f", ce.OutputKS)})
	}
	res.fitRows = append(res.fitRows, []string{name, "ALL", "-", "-",
		pct(fitRep.RateErr), pct(fitRep.PromptMeanErr), pct(fitRep.OutputMeanErr), "-", "-"})
	return res
}
