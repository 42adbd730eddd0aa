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
		{"prefix_re_use:true", "prefix_reuse"},
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

// deletedKeyCases name the settings that became constants — the digest
// limit, the autoscaler's thresholds and the per-class retry budget — each
// with a value the key once accepted and one it once refused. Also a seed
// table of FuzzParse.
var deletedKeyCases = []string{
	"exact_samples:500", "exact_samples:lots",
	"scale_up:8", "scale_up:0",
	"scale_down:2", "scale_down:none",
	"scale_cooldown:500ms", "scale_cooldown:-1s",
	"retry_budget:8,timeout:30s,retries:3", "retry_budget:-4,timeout:30s,retries:3",
}

// TestDeletedKeysUnknown: whatever its value, a deleted key is refused as an
// unknown key, not parsed and not refused for its value.
func TestDeletedKeysUnknown(t *testing.T) {
	for _, s := range deletedKeyCases {
		key, _, _ := strings.Cut(s, ":")
		if _, err := Parse(s); err == nil || !strings.HasPrefix(err.Error(), `conf: unknown key "`+key+`"`) {
			t.Errorf("Parse(%q) = %v, want unknown key %q", s, err, key)
		}
	}
}
