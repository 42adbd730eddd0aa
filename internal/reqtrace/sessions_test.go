package reqtrace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

func sessionTrace() Trace {
	return FromRequests([]serve.Request{
		{ArrivalAt: 0, Class: "chat", SLO: "interactive", Priority: 2, PromptLen: 64, OutputLen: 16, SessionID: "c#0", Turn: 0},
		{ArrivalAt: 100 * time.Millisecond, Class: "batch", SLO: "batch", PromptLen: 128, OutputLen: 32},
		{ArrivalAt: 2 * time.Second, Class: "chat", SLO: "interactive", Priority: 2, PromptLen: 104, OutputLen: 20, SessionID: "c#0", Turn: 1},
		{ArrivalAt: 5 * time.Second, Class: "chat", SLO: "interactive", Priority: 2, PromptLen: 148, OutputLen: 12, SessionID: "c#0", Turn: 2},
	})
}

// TestSessionTraceRoundTrip: session identity survives the JSONL format
// numerically exactly, alongside sessionless records in the same trace.
func TestSessionTraceRoundTrip(t *testing.T) {
	want := sessionTrace()
	var buf bytes.Buffer
	if err := want.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSessionlessOutputUnchanged: a trace with no sessions must serialize
// in the pre-session layout — no new keys.
func TestSessionlessOutputUnchanged(t *testing.T) {
	tr := Trace{Records: []serve.Request{
		{ArrivalAt: 0, Class: "chat", SLO: "interactive", Priority: 2, PromptLen: 64, OutputLen: 16},
		{ArrivalAt: time.Second, PromptLen: 32, OutputLen: 8},
	}}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonl.String(), "session_id") || strings.Contains(jsonl.String(), "turn") {
		t.Fatalf("sessionless JSONL mentions session fields:\n%s", jsonl.String())
	}
}

// TestPreSessionFilesStillRead: a v1 JSONL fixture written before the
// session extension (no session keys) reads back with zero session fields.
func TestPreSessionFilesStillRead(t *testing.T) {
	jsonl := `{"format":"reqtrace","version":1}
{"arrival_ns":0,"class":"chat","slo":"interactive","priority":2,"prompt_tokens":120,"output_tokens":64}
{"arrival_ns":212334791,"prompt_tokens":32,"output_tokens":8}
`
	tr, err := Read(strings.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("%d records", len(tr.Records))
	}
	for i, r := range tr.Records {
		if r.SessionID != "" || r.Turn != 0 {
			t.Errorf("record %d: unexpected session identity %q/%d", i, r.SessionID, r.Turn)
		}
	}
}

// TestValidateSessionOrdering: the session consistency rules.
func TestValidateSessionOrdering(t *testing.T) {
	ok := sessionTrace()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid session trace rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"turn without session", func(tr *Trace) { tr.Records[1].Turn = 1 }},
		{"negative turn", func(tr *Trace) { tr.Records[0].Turn = -1 }},
		{"repeated turn", func(tr *Trace) { tr.Records[2].Turn = 0 }},
		{"decreasing turn", func(tr *Trace) { tr.Records[3].Turn = 1; tr.Records[2].Turn = 2 }},
	}
	for _, c := range cases {
		tr := sessionTrace()
		c.mutate(&tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestReplayPropagatesSessions: replay keeps session identity, and looping
// a trace suffixes each pass's session IDs so looped conversations stay
// valid sessions instead of colliding with their earlier copies.
func TestReplayPropagatesSessions(t *testing.T) {
	tr := sessionTrace()
	once, err := tr.Replay(ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range once {
		if r.SessionID != tr.Records[i].SessionID || r.Turn != tr.Records[i].Turn {
			t.Fatalf("replay record %d: session %q/%d, want %q/%d",
				i, r.SessionID, r.Turn, tr.Records[i].SessionID, tr.Records[i].Turn)
		}
	}
	n := len(tr.Records)
	looped, err := tr.Replay(ReplayOptions{N: 3 * n})
	if err != nil {
		t.Fatal(err)
	}
	if got := looped[n].SessionID; got != "c#0~1" {
		t.Fatalf("pass-1 session id %q, want c#0~1", got)
	}
	if got := looped[2*n].SessionID; got != "c#0~2" {
		t.Fatalf("pass-2 session id %q, want c#0~2", got)
	}
	// The looped stream itself must survive capture-side validation.
	if err := FromRequests(looped).Validate(); err != nil {
		t.Fatalf("looped session stream invalid: %v", err)
	}
}

// TestSessionCaptureRoundTrip: generate → serve → capture → write → read →
// replay of the session mix reproduces the exact session identities.
func TestSessionCaptureRoundTrip(t *testing.T) {
	reqs, err := servegen.ChatSessions().Generate(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewCapture()
	if _, err := serve.Serve(reqs, chunkedMgr(8*sim.GiB), serve.ServerConfig{MaxBatch: 8, OnComplete: rec.Hook()}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := back.Replay(ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, reqs) {
		t.Fatal("session stream did not round-trip through capture and JSONL")
	}
}
