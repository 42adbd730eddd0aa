package conf

import (
	"strings"
	"testing"
)

// TestUnknownKeySuggestions pins the did-you-mean behavior: a plausible
// typo names its nearest known key, gibberish gets no suggestion.
func TestUnknownKeySuggestions(t *testing.T) {
	cases := []struct {
		in      string
		suggest string // "" = error mentions no suggestion
	}{
		{"replicaz:4", "replicas"},
		{"serve_rte:6", "serve_rate"},
		{"maxreplicas:8", "max_replicas"},
		{"trace_n:x.jsonl", "trace_in"},
		{"backoffs:2", "backoff"},
		{"scale_cool_down:1s", "scale_cooldown"},
		{"garbage_collection_treshold:0.5", "garbage_collection_threshold"},
		{"warp_speed:9", ""},
		{"zzzzqqq:1", ""},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) accepted an unknown key", c.in)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown key") {
			t.Errorf("Parse(%q) error %q does not mention unknown key", c.in, msg)
			continue
		}
		if c.suggest == "" {
			if strings.Contains(msg, "did you mean") {
				t.Errorf("Parse(%q) suggested for gibberish: %q", c.in, msg)
			}
		} else if !strings.Contains(msg, `did you mean "`+c.suggest+`"`) {
			t.Errorf("Parse(%q) = %q, want suggestion %q", c.in, msg, c.suggest)
		}
	}
}
