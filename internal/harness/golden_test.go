package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.golden from the Parallelism=1 rendering")

// goldenEnv is the one budget every testdata/golden file is recorded at,
// small enough that all 25 experiments render in seconds.
func goldenEnv(parallelism int) *Env {
	e := NewEnv()
	e.TotalSteps, e.MaxSteps, e.MeasureSteps = 3, 6, 2
	e.Parallelism = parallelism
	return e
}

// goldenRuns holds each experiment's tables at goldenEnv(1), run once per
// test binary: TestAllExperimentsSmoke checks their structure,
// TestExperimentGoldens their bytes.
var goldenRuns = map[string][]*Table{}

func goldenTables(x experiment) []*Table {
	if _, ok := goldenRuns[x.id]; !ok {
		goldenRuns[x.id] = x.run(goldenEnv(1))
	}
	return goldenRuns[x.id]
}

func render(tables []*Table) string {
	var sb strings.Builder
	for _, tbl := range tables {
		tbl.Render(&sb)
	}
	return sb.String()
}

func goldenPath(id string) string { return filepath.Join("testdata", "golden", id+".golden") }

// firstDiff names the first line at which two renderings part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one rendering ends (%d lines vs %d)", min(len(g), len(w)), len(g), len(w))
}

// TestExperimentGoldens pins every experiment's rendered tables to a
// checked-in file, at Parallelism 1 and 8 against the same bytes: equality
// to one file catches drift, nondeterminism between runs and divergence
// across worker counts at once. The files were recorded from commit
// 2fcbba7; after an intended change to a simulated number, regenerate with
//
//	go test ./internal/harness -run TestExperimentGoldens -update
//
// and review the diff. -short skips the four heavyweight sweeps only.
func TestExperimentGoldens(t *testing.T) {
	for _, x := range experiments() {
		t.Run(x.id, func(t *testing.T) {
			if testing.Short() && heavyExperiments[x.id] {
				t.Skip("heavyweight sweep; full run only")
			}
			seq := render(goldenTables(x))
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath(x.id)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(x.id), []byte(seq), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath(x.id))
			if err != nil {
				t.Fatal(err)
			}
			if seq != string(want) {
				t.Errorf("Parallelism 1 drifted from %s at %s", goldenPath(x.id), firstDiff(seq, string(want)))
			}
			if par := render(x.run(goldenEnv(8))); par != string(want) {
				t.Errorf("Parallelism 8 drifted from %s at %s", goldenPath(x.id), firstDiff(par, string(want)))
			}
		})
	}
}

// TestNoOrphanGoldens fails on a testdata/golden file whose id names no
// experiment: a golden that outlives its experiment pins nothing, and
// deleting the one without the other is how such a file is left behind.
func TestNoOrphanGoldens(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".golden")
		if _, ok := Claims[id]; !ok {
			t.Errorf("%s pins no experiment: %q is not in experiments()", f, id)
		}
	}
}
