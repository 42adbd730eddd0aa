package harness

import (
	"os"
	"path/filepath"
	"regexp"
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

// claimForm is the shape of an experiment's claim: a paper anchor or
// "beyond: " and an aim or ROADMAP item, then a colon and the claim.
var claimForm = regexp.MustCompile(`^(abstract|§\d+(\.\d+)*|(Table|Figure) \d+|beyond: (north star|aim [1-4]|item \d+(\([a-z]\))?)): \S`)

// citedTest matches a pkg.TestName citation inside a claim.
var citedTest = regexp.MustCompile(`\b([a-z]+)\.(Test\w+)\b`)

// TestEveryExperimentClaims holds the claims index true: every experiment
// names the claim it serves in the agreed form, and every test a claim
// cites as its tie exists in the named internal package.
func TestEveryExperimentClaims(t *testing.T) {
	for _, x := range experiments() {
		if !claimForm.MatchString(x.claim) {
			t.Errorf("%s: claim %q is not \"<anchor>: <claim>\"", x.id, x.claim)
		}
		for _, m := range citedTest.FindAllStringSubmatch(x.claim, -1) {
			files, err := filepath.Glob(filepath.Join("..", m[1], "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				found = found || strings.Contains(string(src), "func "+m[2]+"(t *testing.T)")
			}
			if !found {
				t.Errorf("%s: claim cites %s.%s, which no test file of internal/%s declares", x.id, m[1], m[2], m[1])
			}
		}
	}
}
