package harness

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell ("12.3", "95.9%").
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

func TestStreamsExperimentShape(t *testing.T) {
	tbl := NewEnv().StreamsExperiment()
	byKey := map[string]float64{}
	for _, row := range tbl.Rows {
		byKey[row[0]+"/"+row[1]] = cell(t, row[2])
	}
	for _, alloc := range []string{"caching", "gmlake"} {
		if byKey[alloc+"/true"] <= byKey[alloc+"/false"] {
			t.Fatalf("%s: sharing did not inflate reserved (%v vs %v)",
				alloc, byKey[alloc+"/true"], byKey[alloc+"/false"])
		}
	}
	// The allocator claim: deferred frees leave blocks that GMLake stitches
	// back into service, so it reserves less than caching under sharing.
	if byKey["gmlake/true"] >= byKey["caching/true"] {
		t.Fatalf("sharing: GMLake reserved %v GB, not below caching's %v GB",
			byKey["gmlake/true"], byKey["caching/true"])
	}
}

func TestServingExperimentShape(t *testing.T) {
	tbl := NewEnv().ServingExperiment()
	var chunkCaching, chunkGMLake float64 // pool utilization
	var contigWaste, pagedWaste float64
	for _, row := range tbl.Rows {
		switch {
		case row[0] == "chunked" && row[1] == "caching":
			chunkCaching = cell(t, row[6])
		case row[0] == "chunked" && row[1] == "gmlake":
			chunkGMLake = cell(t, row[6])
		case row[0] == "contiguous":
			contigWaste = cell(t, row[4])
		case strings.HasPrefix(row[0], "paged"):
			pagedWaste = cell(t, row[4])
		}
	}
	if chunkGMLake <= chunkCaching {
		t.Fatalf("GMLake pool utilization %v%% not above caching %v%%", chunkGMLake, chunkCaching)
	}
	if contigWaste < 5*pagedWaste {
		t.Fatalf("contiguous waste %v%% not far above paged %v%%", contigWaste, pagedWaste)
	}
	for _, row := range tbl.Rows {
		if row[2] != "120" {
			t.Fatalf("policy %s/%s served %s of 120", row[0], row[1], row[2])
		}
	}
}

func TestFragIndexExperimentShape(t *testing.T) {
	e := NewEnv()
	e.TotalSteps = 6 // keep the test quick; indices are visible early
	tbl := e.FragIndexExperiment()
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if v := cell(t, row[4]); v < 0 || v > 100 {
			t.Fatalf("ext frag out of range: %v", row)
		}
		// unusable@1GB ≥ unusable@512MB (monotone in request size).
		if cell(t, row[6]) < cell(t, row[5]) {
			t.Fatalf("unusable index not monotone: %v", row)
		}
	}
}

func TestPipelineExperimentShape(t *testing.T) {
	e := NewEnv()
	e.TotalSteps = 10
	tbl := e.PipelineExperiment()
	util := map[string]float64{}
	reserved := map[string]float64{}
	for _, row := range tbl.Rows {
		key := row[0] + "/" + row[1]
		reserved[key] = cell(t, row[2])
		util[key] = cell(t, row[3])
		if row[4] != "0" {
			t.Fatalf("unexpected OOM: %v", row)
		}
	}
	for _, sched := range []string{"GPipe", "1F1B"} {
		if util[sched+"/gmlake"] < util[sched+"/caching"] {
			t.Fatalf("%s: GMLake util below caching", sched)
		}
		if reserved[sched+"/gmlake"] > reserved[sched+"/caching"] {
			t.Fatalf("%s: GMLake reserved above caching", sched)
		}
	}
	// 1F1B must hold less than GPipe on the same allocator.
	if reserved["1F1B/caching"] >= reserved["GPipe/caching"] {
		t.Fatal("1F1B did not reduce reserved memory vs GPipe")
	}
}
