package conf

import (
	"strings"
	"testing"
)

// traceKeyCases is also a seed table of FuzzParse.
var traceKeyCases = []struct {
	in      string
	wantErr string // "" = must parse
	check   func(Config) bool
}{
	{
		in:    "trace_in:prod.jsonl",
		check: func(c Config) bool { return c.TraceIn == "prod.jsonl" && !c.Fit && c.TraceScale == 0 },
	},
	{
		in:    "trace_in:prod.csv,trace_out:replayed.jsonl",
		check: func(c Config) bool { return c.TraceIn == "prod.csv" && c.TraceOut == "replayed.jsonl" },
	},
	{
		in:    "trace_in:prod.jsonl,trace_scale:2.5",
		check: func(c Config) bool { return c.TraceScale == 2.5 },
	},
	{
		in:    "trace_in:prod.jsonl,fit:true",
		check: func(c Config) bool { return c.Fit },
	},
	{
		in:    "trace_in:prod.jsonl,fit:false",
		check: func(c Config) bool { return !c.Fit },
	},
	{
		in:    "backend:gmlake,trace_in:t.jsonl,fit:1,trace_scale:0.5,parallel:2",
		check: func(c Config) bool { return c.Backend == "gmlake" && c.Fit && c.TraceScale == 0.5 },
	},
	{
		// trace_out alone is fine: capture a synthetic run.
		in:    "serve_mix:chat-heavy,trace_out:captured.csv",
		check: func(c Config) bool { return c.TraceOut == "captured.csv" && c.ServeMix == "chat-heavy" },
	},
	{in: "fit:true", wantErr: "fit requires trace_in"},
	{in: "fit:1,serve_mix:chat-heavy", wantErr: "fit requires trace_in"},
	{in: "trace_scale:2", wantErr: "trace_scale requires trace_in"},
	{in: "trace_in:", wantErr: "trace_in needs a file path"},
	{in: "trace_out:", wantErr: "trace_out needs a file path"},
	{in: "trace_in:t.jsonl,trace_scale:0", wantErr: "trace_scale"},
	{in: "trace_in:t.jsonl,trace_scale:-1", wantErr: "trace_scale"},
	{in: "trace_in:t.jsonl,trace_scale:NaN", wantErr: "trace_scale"},
	{in: "trace_in:t.jsonl,fit:perhaps", wantErr: "fit must be a bool"},
}

// TestParseTraceKeys is the table-driven coverage of the request-trace
// configuration keys, including the cross-key rule that fit and
// trace_scale are rejected without a trace_in to act on.
func TestParseTraceKeys(t *testing.T) {
	for _, c := range traceKeyCases {
		cfg, err := Parse(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Parse(%q) error %v, want mention of %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !c.check(cfg) {
			t.Errorf("Parse(%q) = %+v fails check", c.in, cfg)
		}
	}
}
