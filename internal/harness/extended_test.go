package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// parseGB parses a "12.3" cell; returns -1 for OOM.
func parseGB(t *testing.T, cell string) float64 {
	t.Helper()
	if cell == "OOM" {
		return -1
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("bad GB cell %q: %v", cell, err)
	}
	return v
}

func TestExtendedOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment")
	}
	e := fastEnv()
	tbl := e.Extended()
	// Group reserved memory by strategy; within each, caching must be the
	// worst and every defragmenter must improve on it.
	byStrategy := map[string]map[string]float64{}
	for _, row := range tbl.Rows {
		strat, alloc := row[0], row[1]
		if byStrategy[strat] == nil {
			byStrategy[strat] = map[string]float64{}
		}
		byStrategy[strat][alloc] = parseGB(t, row[2])
	}
	for strat, m := range byStrategy {
		base := m[AllocCaching]
		if base < 0 {
			continue
		}
		for _, name := range []string{AllocGMLake, AllocExpandable, AllocCompact} {
			if m[name] < 0 {
				t.Errorf("%s: %s OOM'd where caching survived", strat, name)
				continue
			}
			if m[name] >= base {
				t.Errorf("%s: %s reserved %.1f GB, not below caching %.1f GB",
					strat, name, m[name], base)
			}
		}
		// GMLake must be at least as good as expandable segments (interior
		// holes cost the latter).
		if m[AllocGMLake] > m[AllocExpandable]+0.1 {
			t.Errorf("%s: gmlake %.1f GB worse than expandable %.1f GB",
				strat, m[AllocGMLake], m[AllocExpandable])
		}
	}
}

// TestExtendedGolden pins the full-budget `extended` table — the one table
// with an expandable and a compact row — to the bytes recorded from commit
// 97d824e, before the two allocators shared one arena.
func TestExtendedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget experiment")
	}
	want, err := os.ReadFile("testdata/extended.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	NewEnv().Extended().Render(&got)
	if got.String() != string(want) {
		t.Errorf("extended renders\n%s\nwant\n%s", got.String(), want)
	}
}

func TestAblationsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment")
	}
	e := fastEnv()
	tbl := e.Ablations()
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 variants", len(tbl.Rows))
	}
	stitches := map[string]int64{}
	for _, row := range tbl.Rows {
		n, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		stitches[row[0]] = n
	}
	if stitches["destroy-on-split"] <= stitches["default"] {
		t.Errorf("destroy-on-split stitches %d not above default %d",
			stitches["destroy-on-split"], stitches["default"])
	}
	if stitches["spool-cap-64"] <= stitches["default"] {
		t.Errorf("tiny sPool cap stitches %d not above default %d",
			stitches["spool-cap-64"], stitches["default"])
	}
}

func TestRunGMLakeVariantUsesConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := fastEnv()
	res := e.runGMLakeVariant(coreConfigVariant{
		name:   "check",
		mutate: func(c *core.Config) { c.MaxSBlocks = 1 },
	})
	if res.stitchFrees == 0 {
		t.Fatal("MaxSBlocks=1 produced no StitchFree evictions; config not applied")
	}
}
