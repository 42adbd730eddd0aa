package reqtrace

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// genTrace is a captured mixed-bursty stream all the format tests share.
func genTrace(t *testing.T, n int) Trace {
	t.Helper()
	reqs, err := servegen.MixedBursty().Generate(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return FromRequests(reqs)
}

// TestRequestsRoundTrip: FromRequests keeps a generated stream as its
// records unchanged — the trace layer neither loses nor reorders anything,
// and servegen's IDs are already the records' positions.
func TestRequestsRoundTrip(t *testing.T) {
	reqs, err := servegen.MixedBursty().Generate(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := FromRequests(reqs).Records; !reflect.DeepEqual(got, reqs) {
		t.Fatal("FromRequests altered a generated stream")
	}
}

// TestFileFormatsRoundTrip: JSONL reproduces the trace exactly, and
// re-encoding the decoded trace is byte-identical.
func TestFileFormatsRoundTrip(t *testing.T) {
	tr := genTrace(t, 150)
	t.Run("jsonl", func(t *testing.T) {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatal("round trip altered the trace")
		}
		var buf2 bytes.Buffer
		if err := got.WriteJSONL(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}

// TestWriteFilePicksFormat: every path gets JSONL whatever its extension,
// and ReadFile loads it back unchanged.
func TestWriteFilePicksFormat(t *testing.T) {
	tr := genTrace(t, 40)
	var want bytes.Buffer
	if err := tr.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"t.jsonl", "t.csv", "t.trace"} {
		path := dir + "/" + name
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("%s: not the JSONL rendering (err %v)", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("%s: file round trip altered the trace", name)
		}
	}
}

// TestReadRejects covers the reader's failure modes: junk (a file in the
// retired #reqtrace CSV layout among it), newer versions, malformed records
// and invalid traces, each with a clear error.
func TestReadRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"junk", "hello\n", "bad JSONL header"},
		{"newer-jsonl", `{"format":"reqtrace","version":99}` + "\n", "newer than supported"},
		{"csv-era", "#reqtrace v1\narrival_ns,class,slo,priority,prompt_tokens,output_tokens\n0,chat,interactive,2,120,64\n", "bad JSONL header"},
		{"bad-header", `{"format":"memtrace","version":1}` + "\n", "bad JSONL header"},
		{"bad-record", `{"format":"reqtrace","version":1}` + "\n" + `{"arrival_ns":"x"}` + "\n", "line 2"},
		{"empty-trace", `{"format":"reqtrace","version":1}` + "\n", "empty trace"},
		{"negative-tokens", `{"format":"reqtrace","version":1}` + "\n" +
			`{"arrival_ns":5,"prompt_tokens":-1,"output_tokens":4}` + "\n", "tokens"},
		{"unsorted", `{"format":"reqtrace","version":1}` + "\n" +
			`{"arrival_ns":5,"prompt_tokens":1,"output_tokens":1}` + "\n" +
			`{"arrival_ns":4,"prompt_tokens":1,"output_tokens":1}` + "\n", "before record"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestReadFileMissing: a nonexistent path is a clear error naming the path.
func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile("/nonexistent/trace.jsonl")
	if err == nil || !strings.Contains(err.Error(), "/nonexistent/trace.jsonl") {
		t.Fatalf("error %v does not name the missing path", err)
	}
}

// TestStats: shares sum to 1, per-class rosters match the mix, and rates
// are counts over the span.
func TestStats(t *testing.T) {
	tr := genTrace(t, 300)
	s := tr.Stats()
	if s.Requests != 300 {
		t.Fatalf("requests %d", s.Requests)
	}
	if s.Span != tr.Records[len(tr.Records)-1].ArrivalAt {
		t.Fatalf("span %v", s.Span)
	}
	mix := servegen.MixedBursty()
	if len(s.Classes) != len(mix.Classes) {
		t.Fatalf("%d classes, mix has %d", len(s.Classes), len(mix.Classes))
	}
	var share float64
	total := 0
	for _, c := range s.Classes {
		share += c.Share
		total += c.Requests
		wantRate := float64(c.Requests) / s.Span.Seconds()
		if diff := c.RatePerSec - wantRate; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("class %s rate %g, want %g", c.Class, c.RatePerSec, wantRate)
		}
	}
	if total != 300 || share < 0.999 || share > 1.001 {
		t.Fatalf("class totals %d, share sum %g", total, share)
	}
}

// TestReplayOptions: zero options are the identity, N truncates and loops
// (with the constant-period shift), and Scale rescales arrivals only.
func TestReplayOptions(t *testing.T) {
	tr := genTrace(t, 100)
	orig := tr.Records

	got, err := tr.Replay(ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatal("zero-option replay is not the identity")
	}

	short, err := tr.Replay(ReplayOptions{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != 10 || !reflect.DeepEqual(short, orig[:10]) {
		t.Fatal("truncating replay differs from the trace prefix")
	}

	long, err := tr.Replay(ReplayOptions{N: 150})
	if err != nil {
		t.Fatal(err)
	}
	span := tr.Span()
	period := span + span/time.Duration(len(tr.Records)-1)
	for i := 100; i < 150; i++ {
		want := tr.Records[i-100].ArrivalAt + period
		if long[i].ArrivalAt != want {
			t.Fatalf("looped request %d arrives at %v, want %v", i, long[i].ArrivalAt, want)
		}
		if long[i].PromptLen != tr.Records[i-100].PromptLen {
			t.Fatalf("looped request %d lost its token counts", i)
		}
		if long[i].ID != i {
			t.Fatalf("looped request %d has ID %d", i, long[i].ID)
		}
	}

	fast, err := tr.Replay(ReplayOptions{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast[i].ArrivalAt != time.Duration(float64(orig[i].ArrivalAt)/2) {
			t.Fatalf("request %d not rescaled", i)
		}
		if fast[i].PromptLen != orig[i].PromptLen || fast[i].OutputLen != orig[i].OutputLen {
			t.Fatalf("request %d token counts scaled", i)
		}
	}

	for _, bad := range []ReplayOptions{{N: -1}, {Scale: -2}} {
		if _, err := tr.Replay(bad); err == nil {
			t.Fatalf("replay accepted %+v", bad)
		}
	}
}

// TestReplayPastClockRange: a scaled or looped arrival past the virtual
// clock's range is one error naming the request and the scale, never a
// stream whose arrivals wrapped to negative instants.
func TestReplayPastClockRange(t *testing.T) {
	// Span 3·2^60 and one gap of as much: the loop period is 6·2^60, so
	// the first looped arrival lands exactly on 2^63.
	late := FromRequests([]serve.Request{
		{ArrivalAt: 1 << 61, PromptLen: 1, OutputLen: 1},
		{ArrivalAt: 3 << 60, PromptLen: 1, OutputLen: 1},
	})
	// A span past half the range: the loop period itself overflows.
	wide := FromRequests([]serve.Request{
		{PromptLen: 1, OutputLen: 1},
		{ArrivalAt: 3 << 61, PromptLen: 1, OutputLen: 1},
	})
	for _, tc := range []struct {
		name string
		tr   Trace
		opts ReplayOptions
		want string
	}{
		{"scaled", genTrace(t, 50), ReplayOptions{Scale: 1e-15},
			"reqtrace: replayed request 0 arrives past the clock's range at scale 1e-15"},
		{"scaled onto 2^63", late, ReplayOptions{Scale: 0.25},
			"reqtrace: replayed request 0 arrives past the clock's range at scale 0.25"},
		{"looped onto 2^63", late, ReplayOptions{N: 3},
			"reqtrace: replayed request 2 arrives past the clock's range at scale 1"},
		{"loop period overflows", wide, ReplayOptions{N: 3},
			"reqtrace: replayed request 2 arrives past the clock's range at scale 1"},
	} {
		got, err := tc.tr.Replay(tc.opts)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
		if got != nil {
			t.Errorf("%s: a failed replay returned %d requests", tc.name, len(got))
		}
	}
	// Arrivals just inside the range still replay.
	if _, err := late.Replay(ReplayOptions{Scale: 0.5}); err != nil {
		t.Errorf("in-range scale refused: %v", err)
	}
}
