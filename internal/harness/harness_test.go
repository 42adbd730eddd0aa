package harness

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastEnv keeps integration tests quick: small step budgets are enough to
// check orderings and invariants (full figures use cmd/gmlake-bench).
func fastEnv() *Env {
	e := NewEnv()
	e.TotalSteps = 12
	e.MaxSteps = 60
	e.MeasureSteps = 4
	return e
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := NewEnv().Table1()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	wantTotals := []float64{115.4, 9.1, 1.5}
	for i, row := range tbl.Rows {
		got, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantTotals[i])/wantTotals[i] > 0.05 {
			t.Errorf("row %d total = %v, paper %v", i, got, wantTotals[i])
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	tbl := NewEnv().Figure6()
	if tbl.Rows[0][0] != "Native" {
		t.Fatal("first row must be the native allocator")
	}
	native2GB, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	vmm2MB, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if ratio := vmm2MB / native2GB; ratio < 100 || ratio > 130 {
		t.Fatalf("2MB-chunk VMM / native = %.0fx, paper ~115x", ratio)
	}
	// Latency must fall monotonically down the chunk-size column.
	prev := math.Inf(1)
	for _, row := range tbl.Rows[1:] {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("latency not decreasing at chunk %s", row[0])
		}
		prev = v
	}
}

func TestRunWorkloadReportsOOM(t *testing.T) {
	e := fastEnv()
	e.Capacity = 2 * sim.GiB
	res := e.RunWorkload(workload.Spec{Model: model.OPT13B, World: 1, Batch: 1}, AllocCaching, RunOptions{})
	if !res.OOM {
		t.Fatal("13B on 2 GiB should OOM")
	}
	if res.Steps != 0 {
		t.Fatalf("Steps = %d after setup OOM", res.Steps)
	}
}

func TestGMLakeBeatsCachingOnIrregularWorkload(t *testing.T) {
	e := fastEnv()
	spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyLR, World: 4, Batch: 32}
	base, gml := e.Compare(spec, RunOptions{})
	if base.OOM || gml.OOM {
		t.Fatal("unexpected OOM")
	}
	if gml.PeakReserved >= base.PeakReserved {
		t.Fatalf("GMLake reserved %d not below caching %d", gml.PeakReserved, base.PeakReserved)
	}
	if gml.Utilization() <= base.Utilization() {
		t.Fatalf("GMLake utilization %.3f not above caching %.3f", gml.Utilization(), base.Utilization())
	}
	if gml.Utilization() < 0.95 {
		t.Fatalf("GMLake utilization %.3f, want >= 0.95 (paper: 90-95%%+)", gml.Utilization())
	}
}

func TestRegularWorkloadBothNearPerfect(t *testing.T) {
	e := fastEnv()
	spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyN, World: 4, Batch: 16}
	base, gml := e.Compare(spec, RunOptions{})
	if base.Utilization() < 0.95 || gml.Utilization() < 0.95 {
		t.Fatalf("plain training should not fragment: caching %.3f gmlake %.3f",
			base.Utilization(), gml.Utilization())
	}
}

func TestThroughputParityAfterConvergence(t *testing.T) {
	e := NewEnv() // full warm-up so GMLake converges
	e.MeasureSteps = 6
	spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyLR, World: 4, Batch: 32}
	base, gml := e.Compare(spec, RunOptions{})
	if base.OOM || gml.OOM {
		t.Fatal("unexpected OOM")
	}
	ratio := gml.Throughput() / base.Throughput()
	if ratio < 0.9 || ratio > 1.2 {
		t.Fatalf("throughput ratio gmlake/caching = %.2f, want ~1 (paper: comparable)", ratio)
	}
}

func TestOOMFrontierOrdering(t *testing.T) {
	// At some batch size the caching allocator must die before GMLake does
	// (Figure 13's headline behaviour), and GMLake must never OOM at a
	// batch the baseline survives.
	e := fastEnv()
	sawBaselineOnlyOOM := false
	batches := []int{64, 128, 192, 224, 249}
	if testing.Short() {
		// Scaled-down frontier: one surviving batch and the two points
		// where only the baseline dies.
		batches = []int{64, 224, 249}
	}
	for _, b := range batches {
		spec := workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyLR, World: 4, Batch: b}
		base, gml := e.Compare(spec, RunOptions{})
		if gml.OOM && !base.OOM {
			t.Fatalf("GMLake OOM'd at batch %d while caching survived", b)
		}
		if base.OOM && !gml.OOM {
			sawBaselineOnlyOOM = true
		}
	}
	if !sawBaselineOnlyOOM {
		t.Fatal("no batch where only the baseline OOMs; Figure 13's frontier is missing")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"A", "BB"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 5)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "A", "BB", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRunRecords(t *testing.T) {
	e := fastEnv()
	tr := e.TraceRun(workload.Spec{Model: model.OPT1_3B, Strategy: workload.StrategyN, World: 2, Batch: 4}, 2)
	st := tr.Stats()
	if st.Allocs == 0 || st.Frees == 0 {
		t.Fatalf("trace empty: %+v", st)
	}
	if st.Frees > st.Allocs {
		t.Fatal("more frees than allocs")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if got := NewEnv().RunExperiment("nope"); got != nil {
		t.Fatal("unknown experiment returned tables")
	}
}

// TestNativeSlowdown: the native allocator makes training clearly slower
// end to end, and its allocator-time ratio, which no compute dilutes,
// exceeds the end-to-end one.
func TestNativeSlowdown(t *testing.T) {
	e := fastEnv()
	ratio := e.NativeSlowdownEndToEnd()
	if ratio < 1.5 {
		t.Fatalf("native end-to-end slowdown = %.2fx, want clearly slower (paper 9.7x)", ratio)
	}
	if alloc := e.NativeVsCachingSpeedup(2000); alloc <= ratio {
		t.Fatalf("native allocator-time ratio %.2fx is not above the end-to-end %.2fx", alloc, ratio)
	}
}

func TestFigure5MoreAndSmallerAllocs(t *testing.T) {
	e := fastEnv()
	tbl := e.Figure5()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	plainAllocs, _ := strconv.ParseInt(tbl.Rows[0][1], 10, 64)
	lrAllocs, _ := strconv.ParseInt(tbl.Rows[1][1], 10, 64)
	plainMean, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	lrMean, _ := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if lrAllocs <= plainAllocs {
		t.Fatalf("LR allocs %d not more than plain %d", lrAllocs, plainAllocs)
	}
	if lrMean >= plainMean {
		t.Fatalf("LR mean %.0f not smaller than plain %.0f", lrMean, plainMean)
	}
}
