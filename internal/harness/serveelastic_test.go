package harness

import (
	"strconv"
	"testing"
)

// TestServeElasticScalingBehaviour checks the rows mean what they claim:
// every fleet serves the full stream, the elastic fleets actually scale
// (spawns > 0, peak within bounds) and consume strictly fewer
// replica-seconds than the static MaxReplicas fleet, and the stealing
// fleet records steals.
func TestServeElasticScalingBehaviour(t *testing.T) {
	tbl := NewEnv().serveElasticScaling()
	fleets := serveElasticFleets()
	if len(tbl.Rows)%len(fleets) != 0 {
		t.Fatalf("%d rows for %d fleets", len(tbl.Rows), len(fleets))
	}
	col := func(row []string, name string) string {
		for i, h := range tbl.Header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q", name)
		return ""
	}
	num := func(row []string, name string) float64 {
		v, err := strconv.ParseFloat(col(row, name), 64)
		if err != nil {
			t.Fatalf("column %q = %q: %v", name, col(row, name), err)
		}
		return v
	}
	for base := 0; base < len(tbl.Rows); base += len(fleets) {
		static := tbl.Rows[base]
		mix := col(static, "mix")
		staticRS := num(static, "replica-secs")
		for off, row := range tbl.Rows[base : base+len(fleets)] {
			if col(row, "served") != col(static, "served") {
				t.Errorf("%s/%s served %s, static served %s",
					mix, col(row, "fleet"), col(row, "served"), col(static, "served"))
			}
			if peak := num(row, "peak"); peak < 1 || peak > serveElasticMaxFleet {
				t.Errorf("%s/%s peak %v outside [1, %d]", mix, col(row, "fleet"), peak, serveElasticMaxFleet)
			}
			if off == 0 {
				continue
			}
			if num(row, "spawns") == 0 {
				t.Errorf("%s/%s never scaled up under a %dx overload", mix, col(row, "fleet"), serveElasticRate)
			}
			if rs := num(row, "replica-secs"); rs >= staticRS {
				t.Errorf("%s/%s consumed %v replica-secs, static fleet %v — no drain savings",
					mix, col(row, "fleet"), rs, staticRS)
			}
		}
		if stolen := num(tbl.Rows[base+2], "stolen"); stolen < 0 {
			t.Errorf("%s: negative steal count %v", mix, stolen)
		}
	}
}

// TestServeElasticHeteroCapacityAware: on the heterogeneous table the
// load-aware policies route roughly twice the requests to the 2x replica,
// while round-robin splits evenly.
func TestServeElasticHeteroCapacityAware(t *testing.T) {
	tbl := NewEnv().serveElasticHetero()
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	ratio := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("ratio %q: %v", row[len(row)-1], err)
		}
		return v
	}
	for _, row := range tbl.Rows {
		switch row[0] {
		case "round-robin":
			if r := ratio(row); r < 0.9 || r > 1.2 {
				t.Errorf("round-robin big/small ratio %v, want ~1", r)
			}
		case "jsq", "least-kv", "session-affinity":
			// session-affinity on a sessionless mix degenerates to its
			// jsq fallback, so it must stay capacity-aware too.
			if r := ratio(row); r < 1.5 {
				t.Errorf("%s big/small ratio %v, want ~2 (capacity-aware)", row[0], r)
			}
		default:
			t.Errorf("unexpected dispatch row %q", row[0])
		}
	}
}
