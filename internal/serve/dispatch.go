package serve

import (
	"fmt"
	"strings"
)

// DispatchPolicy names a cluster-level dispatch policy: how the admission
// queue assigns an arriving request to a replica.
type DispatchPolicy string

const (
	// DispatchRoundRobin cycles arrivals over the active replicas in order
	// — oblivious to load, the baseline every smarter policy is measured
	// against.
	DispatchRoundRobin DispatchPolicy = "round-robin"
	// DispatchJSQ joins the shortest queue: the replica with the fewest
	// unfinished requests (queued plus decoding) per unit of capacity,
	// ties to the lowest replica index.
	DispatchJSQ DispatchPolicy = "jsq"
	// DispatchLeastKV picks the replica with the least outstanding KV
	// demand per unit of capacity — the sum of total tokens (prompt+output)
	// of its unfinished requests, a token-weighted shortest queue that sees
	// the difference between ten chat turns and ten long batch jobs.
	DispatchLeastKV DispatchPolicy = "least-kv"
	// DispatchSessionAffinity routes a request whose session prefix is
	// resident on an active replica to that replica — lowest index first,
	// though a session pins to one home so at most one replica holds its
	// prefix in practice — and everything else (first turns, invalidated
	// prefixes, homes that are down or draining) through the
	// ClusterConfig.AffinityBase policy, jsq when unset. Pair it with
	// ServerConfig.PrefixReuse: without residency every probe misses and
	// the policy degenerates to exactly its base.
	DispatchSessionAffinity DispatchPolicy = "session-affinity"
)

// DispatchPolicies lists the accepted policies in presentation order.
func DispatchPolicies() []DispatchPolicy {
	return []DispatchPolicy{DispatchRoundRobin, DispatchJSQ, DispatchLeastKV, DispatchSessionAffinity}
}

// ParseDispatch resolves a policy name ("" = round-robin). Names are
// case-insensitive and surrounding whitespace is ignored, so "JSQ" from a
// CLI flag or " least-kv " from a hand-edited conf file resolve like their
// canonical spellings. A near-miss ("sesion-affinity", "jqs") earns a
// did-you-mean suggestion, like conf's unknown-key diagnostics.
func ParseDispatch(name string) (DispatchPolicy, error) {
	norm := strings.ToLower(strings.TrimSpace(name))
	switch p := DispatchPolicy(norm); p {
	case "":
		return DispatchRoundRobin, nil
	case DispatchRoundRobin, DispatchJSQ, DispatchLeastKV, DispatchSessionAffinity:
		return p, nil
	}
	known := DispatchPolicies()
	names := make([]string, len(known))
	for i, p := range known {
		names[i] = string(p)
	}
	hint := ""
	if guess := NearestName(norm, names); guess != "" {
		hint = fmt.Sprintf("did you mean %q? ", guess)
	}
	return "", fmt.Errorf("serve: unknown dispatch policy %q (%shave %s)", name, hint, strings.Join(names, ", "))
}

// NearestName returns the known name closest to name in edit distance, the
// lexically first of equally close ones, or "" when none is within
// max(2, len(name)/3) edits: garbage should not earn a confident
// did-you-mean. conf's unknown-key hint uses it too.
func NearestName(name string, known []string) string {
	best, bestDist := "", max(2, len(name)/3)+1
	for _, k := range known {
		if d := editDistance(name, k); d < bestDist || (d == bestDist && k < best) {
			best, bestDist = k, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b (unit costs),
// computed with a rolling single-row table.
func editDistance(a, b string) int {
	row := make([]int, len(a)+1)
	for i := range row {
		row[i] = i
	}
	for j := 1; j <= len(b); j++ {
		diag := row[0] // the previous row's entry left of the one being filled
		row[0] = j
		for i := 1; i <= len(a); i++ {
			sub := diag
			if a[i-1] != b[j-1] {
				sub++
			}
			diag = row[i]
			row[i] = min(row[i-1]+1, row[i]+1, sub)
		}
	}
	return row[len(a)]
}

// dispatcher is the dispatch policy with the state it alone mutates.
type dispatcher struct {
	policy DispatchPolicy
	// base is session-affinity's fallback policy; unused under the others.
	base DispatchPolicy
	// cursor counts round-robin decisions: decision k goes to the
	// (k mod active)-th active replica in index order.
	cursor         int
	affinityRouted int
}

// load is the replica's demand per unit of capacity: outstanding KV tokens
// when byTokens (least-kv), unfinished requests — queued plus decoding —
// otherwise (jsq). Normalizing by capacity lets a Capacity-2 replica absorb
// twice the demand before it looks equally loaded.
func (r *clusterReplica) load(byTokens bool) float64 {
	if byTokens {
		return float64(r.dispatchedTokens-r.srv.doneTokens) / r.capacity
	}
	return float64(r.srv.pendingLen()+len(r.srv.running)) / r.capacity
}

// pick chooses the replica for a request among the active ones; callers
// guarantee there is one. Under session-affinity a request whose session
// prefix is resident on an active replica goes home to it regardless of
// load — that is the TTFT-versus-imbalance trade the policy exists to
// measure — and every other request falls back to the base policy.
// Round-robin cycles the active replicas in index order; the load-aware
// policies take the least loaded, ties to the lowest index. pick allocates
// nothing.
func (d *dispatcher) pick(fleet []*clusterReplica, req Request) int {
	policy := d.policy
	if policy == DispatchSessionAffinity {
		if req.SessionID != "" {
			for i, r := range fleet {
				if r.state == replicaActive && r.srv.hasResident(req.SessionID) {
					d.affinityRouted++
					return i
				}
			}
		}
		policy = d.base
	}
	if policy == DispatchRoundRobin {
		active := 0
		for _, r := range fleet {
			if r.state == replicaActive {
				active++
			}
		}
		skip := d.cursor % active
		d.cursor++
		for i, r := range fleet {
			if r.state == replicaActive {
				if skip == 0 {
					return i
				}
				skip--
			}
		}
	}
	best, bestLoad, byTokens := -1, 0.0, policy == DispatchLeastKV
	for i, r := range fleet {
		if r.state != replicaActive {
			continue
		}
		if l := r.load(byTokens); best == -1 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// stealableExcess is how many ready (arrived, unadmitted) requests the
// server holds beyond the batch slots it could still fill — the queued
// backlog a work-stealing scheduler may re-dispatch. Requests that would be
// admitted at the server's next event are not counted: stealing them could
// only delay them.
func (s *server) stealableExcess() int {
	free := max(0, s.cfg.MaxBatch-len(s.running))
	return max(0, s.ready.Len()-free)
}

// trySteal performs at most one work-stealing re-dispatch: the lowest-index
// starving active replica takes the lowest-ranked queued request from the
// peer with the largest un-admissible backlog. Only queued requests move —
// a decoding sequence is never migrated — and the stolen request keeps its
// FIFO ticket, so the move is exactly a late dispatch decision.
func (c *clusterSched) trySteal() bool {
	thief := -1
	for i, r := range c.fleet {
		if r.state == replicaActive && len(r.srv.running) == 0 && r.srv.ready.Len() == 0 {
			thief = i
			break
		}
	}
	if thief == -1 {
		return false
	}
	victim, excess := -1, 0
	for i, r := range c.fleet {
		if i == thief || r.state == replicaStopped {
			continue
		}
		if e := r.srv.stealableExcess(); e > excess {
			victim, excess = i, e
		}
	}
	if victim == -1 {
		return false
	}
	// On a heterogeneous fleet the thief's pool may be smaller than the
	// victim's: a request that cannot fit the idle thief even alone must
	// stay queued where it is (stealing it would abort the run as a hard
	// admission failure). A trial admit answers exactly that question; the
	// reservation is released immediately either way.
	from, to := c.fleet[victim], c.fleet[thief]
	cand := from.srv.ready.Max() // the victim's excess is ready work: never nil
	h, err := to.srv.mgr.Admit(*cand.Value.req)
	if err != nil {
		return false
	}
	to.srv.mgr.Release(h)
	w := cand.Value
	from.srv.ready.Delete(cand)
	from.dispatchedTokens -= int64(w.req.TotalTokens())
	c.touch(victim)
	c.place(thief, w, c.now)
	to.stolen++
	return true
}
