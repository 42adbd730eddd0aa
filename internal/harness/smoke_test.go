package harness

import (
	"strings"
	"testing"
)

// heavyExperiments take multiple seconds even at the minimum step budget
// (they sweep many workload × allocator cells); -short trades their
// coverage for a fast suite, the full run keeps the paper tables honest.
var heavyExperiments = map[string]bool{
	"figure10": true,
	"figure11": true,
	"figure13": true,
	"headline": true,
}

// TestAllExperimentsSmoke runs every registered experiment with a tiny step
// budget — the one the goldens are recorded at — exercising all runner code
// paths and validating table structure. -short skips the heavyweight
// sweeps; the full-budget numbers are what `gmlake-bench` prints.
func TestAllExperimentsSmoke(t *testing.T) {
	for _, x := range experiments() {
		id := x.id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && heavyExperiments[id] {
				t.Skip("heavyweight sweep; full run only")
			}
			tables := goldenTables(x)
			if len(tables) == 0 {
				t.Fatalf("experiment %q produced no tables", id)
			}
			for _, tbl := range tables {
				if tbl.ID == "" || tbl.Title == "" {
					t.Errorf("%s: missing id/title", id)
				}
				if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
					t.Errorf("%s: empty table", tbl.ID)
				}
				for i, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s row %d: %d cells vs %d headers", tbl.ID, i, len(row), len(tbl.Header))
					}
					for j, cell := range row {
						if strings.TrimSpace(cell) == "" {
							t.Errorf("%s row %d col %d: empty cell", tbl.ID, i, j)
						}
					}
				}
				var sb strings.Builder
				tbl.Render(&sb)
				if !strings.Contains(sb.String(), tbl.ID) {
					t.Errorf("%s: render missing id", tbl.ID)
				}
			}
		})
	}
}
