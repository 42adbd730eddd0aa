package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// sessionStream builds a deterministic multi-turn stream: nSessions
// conversations of `turns` turns each, prompts growing by the prior
// exchange plus a fixed delta, interleaved across sessions by arrival.
func sessionStream(nSessions, turns int) []Request {
	var reqs []Request
	id := 0
	for s := 0; s < nSessions; s++ {
		prompt := 64 + (s*17)%64
		at := time.Duration(s) * 150 * time.Millisecond
		for turn := 0; turn < turns; turn++ {
			output := 12 + (s*7+turn*5)%20
			reqs = append(reqs, Request{
				ID: id, Class: "chat", SLO: "interactive", Priority: 2,
				ArrivalAt: at, PromptLen: prompt, OutputLen: output,
				SessionID: string(rune('a'+s%26)) + "#" + string(rune('0'+s/26)),
				Turn:      turn,
			})
			id++
			at += 2 * time.Second // past the turn's service time: think gap
			prompt += output + 24 + (turn*11)%16
		}
	}
	// Canonical arrival order, IDs renumbered like a generated stream.
	for i := 0; i < len(reqs); i++ {
		for j := i + 1; j < len(reqs); j++ {
			if reqs[j].ArrivalAt < reqs[i].ArrivalAt {
				reqs[i], reqs[j] = reqs[j], reqs[i]
			}
		}
	}
	for i := range reqs {
		reqs[i].ID = i
	}
	return reqs
}

// TestPrefixReuseCutsTTFT: the session tentpole's compute model on one
// server — with reuse on, a follow-up turn whose prefix is resident skips
// that many prompt tokens of prefill, so its TTFT (the p99 of a two-request
// run) drops by exactly the skipped prefill time, and the report counts the
// hit and the reused tokens.
func TestPrefixReuseCutsTTFT(t *testing.T) {
	reqs := []Request{
		{ID: 0, ArrivalAt: 0, PromptLen: 256, OutputLen: 16, SessionID: "s#0", Turn: 0},
		// The follow-up prompt is large enough that its TTFT stays the run's
		// maximum even after the reuse discount, so the p99 delta below
		// isolates exactly the skipped prefill.
		{ID: 1, ArrivalAt: 20 * time.Second, PromptLen: 1024, OutputLen: 16, SessionID: "s#0", Turn: 1},
	}
	run := func(reuse bool) Report {
		mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
		rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4, PrefixReuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(false)
	on := run(true)
	if off.PrefixHits != 0 || off.ReusedTokens != 0 {
		t.Fatalf("reuse off but counted hits: %+v", off)
	}
	// Turn 0 left prompt+output = 272 tokens resident; turn 1 reuses all of
	// them against its 1024-token prompt.
	if on.PrefixHits != 1 || on.ReusedTokens != 272 {
		t.Fatalf("hits %d reused %d, want 1/272", on.PrefixHits, on.ReusedTokens)
	}
	saved := time.Duration(on.ReusedTokens) * prefillTokenTime
	if got, want := off.TTFT.P99-on.TTFT.P99, saved; got != want {
		t.Fatalf("turn-1 TTFT saved %v, want exactly %v (off %v on %v)",
			got, want, off.TTFT.P99, on.TTFT.P99)
	}
	// Turn 0 is identical in both runs: no residency exists at its admit.
	if off.TTFT.P50 != on.TTFT.P50 {
		t.Fatalf("turn-0 TTFT changed under reuse: %v vs %v", off.TTFT.P50, on.TTFT.P50)
	}
}

// TestPrefixMissCounting: a turn > 0 with no residency is a miss, a turn 0
// never is, and residency is consumed per admit against the live map.
func TestPrefixMissCounting(t *testing.T) {
	reqs := []Request{
		// A session whose first turn was served elsewhere: immediate miss.
		{ID: 0, ArrivalAt: 0, PromptLen: 64, OutputLen: 8, SessionID: "x#0", Turn: 3},
		// A plain one-shot request: neither hit nor miss.
		{ID: 1, ArrivalAt: 5 * time.Second, PromptLen: 64, OutputLen: 8},
	}
	mgr := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
	rep, err := Serve(reqs, mgr, ServerConfig{MaxBatch: 4, PrefixReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixHits != 0 || rep.PrefixMisses != 1 || rep.ReusedTokens != 0 {
		t.Fatalf("hits/misses/reused = %d/%d/%d, want 0/1/0",
			rep.PrefixHits, rep.PrefixMisses, rep.ReusedTokens)
	}
}

// TestCrashClearsResidency: a crash loses the replica's KV wholesale, so
// every resident session prefix must vanish with it.
func TestCrashClearsResidency(t *testing.T) {
	mgr := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	s, err := newServer(mgr, ServerConfig{MaxBatch: 2, PrefixReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	s.resident["a#0"] = 128
	s.resident["b#0"] = 64
	if !s.hasResident("a#0") {
		t.Fatal("residency not visible before crash")
	}
	s.crash(time.Second)
	if len(s.resident) != 0 || s.hasResident("a#0") || s.hasResident("b#0") {
		t.Fatalf("crash left residency behind: %v", s.resident)
	}
}

// TestSessionAccountingInvariants runs the session stream through a fleet
// under affinity dispatch with reuse on and checks the white-box accounting:
// reused tokens never exceed the stream's prompt tokens, every request is
// served, and after the drain each replica's outstanding-KV numerator
// (dispatchedTokens − doneTokens) is exactly zero.
func TestSessionAccountingInvariants(t *testing.T) {
	reqs := sessionStream(8, 4)
	c, err := newClusterSched(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
		Replicas:     3,
		Dispatch:     DispatchSessionAffinity,
		AffinityBase: DispatchJSQ,
		Server:       ServerConfig{MaxBatch: 4, PrefixReuse: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != len(reqs) {
		t.Fatalf("served %d of %d", rep.Served, len(reqs))
	}
	var promptTokens int64
	for _, r := range reqs {
		promptTokens += int64(r.PromptLen)
	}
	if rep.ReusedTokens <= 0 || rep.ReusedTokens > promptTokens {
		t.Fatalf("reused %d tokens outside (0, %d]", rep.ReusedTokens, promptTokens)
	}
	if rep.AffinityRouted <= 0 {
		t.Fatal("affinity never routed on a pure session stream")
	}
	for i, r := range c.fleet {
		if out := r.dispatchedTokens - r.srv.doneTokens; out != 0 {
			t.Errorf("replica %d: %d outstanding tokens after drain", i, out)
		}
	}
}

// TestZeroSessionConfigByteIdentical is the regression differential: on a
// stream with no sessions, turning PrefixReuse on must not change one byte
// of the report, and session-affinity must reproduce its base policy
// exactly — across dispatch, elastic, stealing and fault configurations.
func TestZeroSessionConfigByteIdentical(t *testing.T) {
	reqs := mixedStream(60)
	bases := []ClusterConfig{
		{Replicas: 3, Dispatch: DispatchRoundRobin},
		{Replicas: 3, Dispatch: DispatchJSQ},
		{Replicas: 3, Dispatch: DispatchLeastKV},
		{Replicas: 3, Dispatch: DispatchJSQ, Steal: true},
		{Replicas: 1, MinReplicas: 1, MaxReplicas: 3, Dispatch: DispatchJSQ},
		{Replicas: 3, Dispatch: DispatchJSQ,
			Server:   ServerConfig{Timeout: 60 * time.Second},
			Faults:   FaultConfig{MTTF: 2 * time.Second, MTTR: 300 * time.Millisecond, Seed: 5},
			Recovery: RecoveryConfig{Retries: 3, Backoff: 2}},
	}
	run := func(cfg ClusterConfig) ClusterReport {
		if cfg.Server.MaxBatch == 0 {
			cfg.Server.MaxBatch = 4
		}
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return rep
	}
	for _, base := range bases {
		plain := run(base)
		withReuse := base
		withReuse.Server.PrefixReuse = true
		if got := run(withReuse); !reflect.DeepEqual(got, plain) {
			t.Errorf("dispatch %s: PrefixReuse changed a sessionless run:\nwith    %+v\nwithout %+v",
				base.Dispatch, got.Report, plain.Report)
		}
		affinity := base
		affinity.AffinityBase = base.Dispatch
		affinity.Dispatch = DispatchSessionAffinity
		affinity.Server.PrefixReuse = true
		if got := run(affinity); !reflect.DeepEqual(got, plain) {
			t.Errorf("dispatch %s: session-affinity diverged from its base on a sessionless run:\naffinity %+v\nbase     %+v",
				base.Dispatch, got.Report, plain.Report)
		}
	}
}

// TestSessionClusterDeterministic: the full session machinery — growing
// prompts, residency, sticky dispatch, faults — replays byte-identically
// from one seed.
func TestSessionClusterDeterministic(t *testing.T) {
	reqs := sessionStream(6, 3)
	run := func() ClusterReport {
		rep, err := ServeCluster(reqs, chunkedFactory(8*sim.GiB), ClusterConfig{
			Replicas:     3,
			Dispatch:     DispatchSessionAffinity,
			AffinityBase: DispatchLeastKV,
			Server:       ServerConfig{MaxBatch: 3, Timeout: 90 * time.Second, PrefixReuse: true},
			Faults:       FaultConfig{MTTF: 3 * time.Second, MTTR: 200 * time.Millisecond, Seed: 9},
			Recovery:     RecoveryConfig{Retries: 4, Backoff: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("session cluster run not reproducible:\n%+v\n%+v", a.Report, b.Report)
	}
}

// TestParseDispatchSuggestions pins the did-you-mean behavior of the
// dispatch-policy parser.
func TestParseDispatchSuggestions(t *testing.T) {
	cases := []struct {
		in      string
		wantErr string
	}{
		{"sesion-affinity", `did you mean "session-affinity"`},
		{"jqs", `did you mean "jsq"`},
		{"least-k", `did you mean "least-kv"`},
		{"round-robbin", `did you mean "round-robin"`},
		{"quantum-entangled", "have round-robin, jsq, least-kv, session-affinity"},
	}
	for _, c := range cases {
		_, err := ParseDispatch(c.in)
		if err == nil {
			t.Errorf("ParseDispatch(%q) accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseDispatch(%q) = %q, want substring %q", c.in, err, c.wantErr)
		}
	}
	for _, ok := range []string{"", "jsq", " Session-Affinity ", "least-kv"} {
		if _, err := ParseDispatch(ok); err != nil {
			t.Errorf("ParseDispatch(%q): %v", ok, err)
		}
	}
}

// TestEditDistance spot-checks the Levenshtein helper behind NearestName
// (conf's unknown-key hints and ParseDispatch's share it).
func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"replicas", "replicaz", 1},
		{"steal", "scale_up", 6},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.d {
			t.Errorf("editDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
		if got := editDistance(c.b, c.a); got != c.d {
			t.Errorf("editDistance(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.d)
		}
	}
}

// TestNearestName pins the shared did-you-mean rule: nearest within
// max(2, len/3) edits, equally near names resolve to the lexically first
// whatever the list order, and nothing near means no suggestion.
func TestNearestName(t *testing.T) {
	for _, c := range []struct {
		name  string
		known []string
		want  string
	}{
		{"jqs", []string{"round-robin", "jsq", "least-kv"}, "jsq"},
		{"mttx", []string{"mttr", "mttf"}, "mttf"},
		{"mttx", []string{"mttf", "mttr"}, "mttf"},
		{"scale_cool_down", []string{"scale_up", "scale_cooldown"}, "scale_cooldown"},
		{"abc", []string{"abcdef"}, ""},
		{"garbage_collection_treshold", []string{"garbage_collection_threshold"}, "garbage_collection_threshold"},
		{"zzzzqqq", []string{"steal", "shed"}, ""},
		{"x", nil, ""},
	} {
		if got := NearestName(c.name, c.known); got != c.want {
			t.Errorf("NearestName(%q, %v) = %q, want %q", c.name, c.known, got, c.want)
		}
	}
}
