package harness

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// Session-serving grid: the chat-sessions mix (multi-turn conversations
// whose prompts grow by the prior exchange) against a sessionless control,
// each sharded over a fixed fleet under three dispatch policies. Every
// replica runs with KV prefix reuse on, so the comparison isolates the
// dispatcher: session-affinity lands a follow-up turn on the replica that
// still holds its prefix and skips that prefill; jsq and least-kv scatter
// turns and pay it.
const serveSessionReplicas = 4

// serveSessionPolicies are the swept dispatch policies. Session-affinity
// names its fallback explicitly so the cell label carries the whole policy.
var serveSessionPolicies = []serve.ClusterConfig{
	{Dispatch: serve.DispatchSessionAffinity, AffinityBase: serve.DispatchJSQ},
	{Dispatch: serve.DispatchJSQ},
	{Dispatch: serve.DispatchLeastKV},
}

// ServeSessionExperiment quantifies session-affinity dispatch against jsq
// and least-kv on the chat-sessions mix: TTFT saved by routing turns to
// their resident prefix versus the load imbalance the stickiness costs.
// The mixed-bursty control row has no sessions, so affinity degenerates to
// its base policy there — those rows must match the jsq rows exactly.
func (e *Env) ServeSessionExperiment() *Table {
	t := &Table{
		ID: "servesession",
		Title: fmt.Sprintf("Session-affinity dispatch vs load balancing, OPT-1.3B, %d requests, %d replicas, prefix reuse on",
			serveMixRequests, serveSessionReplicas),
		Header: []string{"mix", "dispatch", "served", "TTFT p50", "TTFT p99",
			"e2e p99", "hits", "reused tok", "affinity", "assigned"},
	}
	var variants []fleetVariant
	for _, cfg := range serveSessionPolicies {
		label := string(cfg.Dispatch)
		if cfg.AffinityBase != "" {
			label += "/" + string(cfg.AffinityBase)
		}
		cfg.Replicas = serveSessionReplicas
		cfg.Server = serve.ServerConfig{MaxBatch: serveMixMaxBatch, PrefixReuse: true}
		variants = append(variants, fleetVariant{key: []string{label}, cfg: cfg})
	}
	mixes := []servegen.Mix{servegen.ChatSessions(), servegen.MixedBursty()}
	cells := e.grid(mixes, 1, serveMixRequests, variants)
	fail := []string{"OOM", "-", "-", "-", "-", "-", "-", "-"}
	e.sweepTable(t, cells, fail, func(_ int, rep serve.ClusterReport) [][]string {
		return [][]string{{fmt.Sprint(rep.Served),
			ms(rep.TTFT.P50), ms(rep.TTFT.P99), ms(rep.E2E.P99),
			fmt.Sprint(rep.PrefixHits), fmt.Sprint(rep.ReusedTokens),
			fmt.Sprint(rep.AffinityRouted), spread(rep.Assigned)}}
	})
	t.AddNote("one request stream per mix, sharded by the dispatch policy; hits/reused tok count the")
	t.AddNote("prefill skipped on a resident session prefix, affinity the requests the sticky probe")
	t.AddNote("routed. chat-sessions: affinity turns misses into hits; mixed-bursty has no sessions,")
	t.AddNote("so its affinity rows reproduce the base policy exactly and affinity stays 0.")
	return t
}
