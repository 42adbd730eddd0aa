package harness

import (
	"testing"

	"repro/internal/servegen"
)

// TestServeMixExperimentShape: per-class rows must appear for all three KV
// policies under all three mixes, with no OOM rows and the mixes' class
// rosters complete.
func TestServeMixExperimentShape(t *testing.T) {
	tbl := NewEnv().ServeMixExperiment()

	type key struct{ mix, policy, pool string }
	classes := map[key]map[string]bool{}
	for _, row := range tbl.Rows {
		if row[5] == "OOM" {
			t.Fatalf("OOM row: %v", row)
		}
		k := key{row[0], row[1], row[2]}
		if classes[k] == nil {
			classes[k] = map[string]bool{}
		}
		classes[k][row[3]] = true
	}

	policies := []key{} // expected (policy, pool) combinations per mix
	for _, p := range kvPolicies(serveMixSlabBlocks) {
		policies = append(policies, key{policy: p.policy, pool: p.pool})
	}
	for _, mix := range servegen.Mixes() {
		for _, p := range policies {
			k := key{mix.Name, p.policy, p.pool}
			got := classes[k]
			if len(got) != len(mix.Classes) {
				t.Errorf("%v: %d class rows, mix has %d classes", k, len(got), len(mix.Classes))
				continue
			}
			for _, c := range mix.Classes {
				if !got[c.Name] {
					t.Errorf("%v: class %s missing", k, c.Name)
				}
			}
		}
	}
}
