package reqtrace

import (
	"path/filepath"
	"testing"
)

// TestLoadSampleTrace covers the file loader on the checked-in sample — a
// small trace styled after the Azure LLM inference traces (code and
// conversation classes with long-prompt/short-output and long-output
// shapes, plus an on-off batch tenant) — so short test runs exercise the
// reader, Stats and Fit on real file bytes without any network.
func TestLoadSampleTrace(t *testing.T) {
	tr, err := ReadFile(filepath.Join("testdata", "azure_llm_sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Requests != 96 {
		t.Fatalf("sample has %d requests, want 96", s.Requests)
	}
	want := map[string]string{
		"code":         "interactive",
		"conversation": "standard",
		"batch-eval":   "batch",
	}
	if len(s.Classes) != len(want) {
		t.Fatalf("sample has %d classes, want %d", len(s.Classes), len(want))
	}
	for _, c := range s.Classes {
		slo, ok := want[c.Class]
		if !ok || c.SLO != slo {
			t.Fatalf("unexpected class %s/%s", c.Class, c.SLO)
		}
		if c.Requests == 0 || c.MeanPrompt <= 0 {
			t.Fatalf("class %s degenerate: %+v", c.Class, c)
		}
	}

	// The loaded trace replays and fits end to end.
	reqs, err := tr.Replay(ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 96 {
		t.Fatalf("replayed %d requests", len(reqs))
	}
	m, err := Fit(tr)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Generate(96, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareTraces(tr, FromRequests(synth))
	if rep.RateErr > 0.25 {
		t.Errorf("sample fit rate error %.1f%%", 100*rep.RateErr)
	}
}
