package harness

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/reqtrace"
	"repro/internal/servegen"
)

func renderServeTrace(t *testing.T, e *Env) string {
	t.Helper()
	tables, err := e.ServeTraceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tbl := range tables {
		tbl.Render(&sb)
	}
	return sb.String()
}

// TestServeTraceRoundTripRows is the harness-level round-trip acceptance:
// for every mix, the replayed rows are byte-identical to the generated
// ones, class for class.
func TestServeTraceRoundTripRows(t *testing.T) {
	tables, err := NewEnv().ServeTraceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	main := tables[0]
	type key struct{ mix, class string }
	generated := map[key][]string{}
	replayed := map[key][]string{}
	for _, row := range main.Rows {
		k := key{row[0], row[2]}
		switch row[1] {
		case "generated":
			generated[k] = row[3:]
		case "replayed":
			replayed[k] = row[3:]
		}
	}
	if len(generated) == 0 || len(generated) != len(replayed) {
		t.Fatalf("row coverage: %d generated vs %d replayed keys", len(generated), len(replayed))
	}
	for k, g := range generated {
		r, ok := replayed[k]
		if !ok {
			t.Fatalf("%v has no replayed row", k)
		}
		if strings.Join(g, "|") != strings.Join(r, "|") {
			t.Fatalf("%v: replayed row %v differs from generated %v", k, r, g)
		}
	}
}

// TestServeTraceFitTolerance enforces the stated acceptance bound: the
// fitted mix's aggregate rate and mean-length errors (the ALL row of the
// fit table) stay within serveTraceRateTol / serveTraceLenTol for every
// mix, and every mix class appears in the fit table.
func TestServeTraceFitTolerance(t *testing.T) {
	tables, err := NewEnv().ServeTraceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	fit := tables[1]
	parsePct := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad percentage cell %q", s)
		}
		return v / 100
	}
	allRows := 0
	classes := map[string]int{}
	for _, row := range fit.Rows {
		if row[1] != "ALL" {
			classes[row[0]]++
			continue
		}
		allRows++
		if e := parsePct(row[4]); e > serveTraceRateTol {
			t.Errorf("%s: aggregate rate error %s above %.0f%%", row[0], row[4], 100*serveTraceRateTol)
		}
		for _, cell := range []string{row[5], row[6]} {
			if e := parsePct(cell); e > serveTraceLenTol {
				t.Errorf("%s: mean length error %s above %.0f%%", row[0], cell, 100*serveTraceLenTol)
			}
		}
	}
	mixes := servegen.Mixes()
	if allRows != len(mixes) {
		t.Fatalf("%d ALL rows for %d mixes", allRows, len(mixes))
	}
	for _, mix := range mixes {
		if classes[mix.Name] != len(mix.Classes) {
			t.Errorf("%s: %d fit rows, mix has %d classes", mix.Name, classes[mix.Name], len(mix.Classes))
		}
	}
}

// TestServeTraceMissingFile: a nonexistent trace_in path is a clear error
// through the harness — named in the message, never a panic — and the
// RunExperiment wrapper renders it as a note.
func TestServeTraceMissingFile(t *testing.T) {
	e := NewEnv()
	e.TraceIn = "/nonexistent/prod-trace.jsonl"
	_, err := e.ServeTraceExperiment()
	if err == nil || !strings.Contains(err.Error(), "/nonexistent/prod-trace.jsonl") {
		t.Fatalf("error %v does not name the missing trace", err)
	}
	tables := e.RunExperiment("servetrace")
	if len(tables) != 1 || len(tables[0].Notes) == 0 ||
		!strings.Contains(tables[0].Notes[0], "/nonexistent/prod-trace.jsonl") {
		t.Fatalf("RunExperiment did not surface the load error: %+v", tables)
	}
}

// TestServeTraceFromFile drives the trace_in path end to end: capture a
// mix to a file, replay it through the experiment, and check the replayed
// table matches the file's roster.
func TestServeTraceFromFile(t *testing.T) {
	reqs, err := servegen.ChatHeavy().Generate(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "captured.csv")
	if err := reqtrace.FromRequests(reqs).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	e := NewEnv()
	e.TraceIn = path
	tables, err := e.ServeTraceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	sawReplay := false
	for _, row := range tables[0].Rows {
		if row[0] != path {
			t.Fatalf("row labeled %q, want the trace path", row[0])
		}
		if row[1] == "replayed" {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Fatal("no replayed rows for the trace file")
	}
}
