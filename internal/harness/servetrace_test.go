package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/servegen"
)

// TestServeTraceRoundTripRows is the harness-level round-trip acceptance:
// for every mix, the replayed rows are byte-identical to the generated
// ones, class for class.
func TestServeTraceRoundTripRows(t *testing.T) {
	tables := NewEnv().ServeTraceExperiment()
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
	tables := NewEnv().ServeTraceExperiment()
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
