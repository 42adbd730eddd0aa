// Package serve is an LLM inference-serving substrate: a deterministic
// request generator, three KV-cache management policies, and a continuous-
// batching server loop that measures how much GPU memory each policy wastes.
//
// The paper's related-work discussion (§6, Table 3) separates vLLM — which
// defragments *inside* a tensor by paging the KV cache — from GMLake, which
// defragments the memory pool *under* whatever tensors the application
// allocates. This package makes that separation executable: the paged
// manager reproduces vLLM's block table, the contiguous manager reproduces
// the pad-to-max baseline vLLM replaced, and the chunked manager grows each
// sequence through an ordinary allocator — so running it over the caching
// allocator versus GMLake shows the pool-level fragmentation GMLake removes
// on a workload vLLM's technique does not touch.
//
// # Records
//
// Every entity of a run has exactly one record, owned by one place:
//
//   - A request in the run is a track. The cluster scheduler's queue — an
//     input cursor over the caller's slice, and the run's only reader of it,
//     Serve being a one-replica cluster — issues the track when it
//     dispatches the request, and from then on whoever holds the request
//     holds it: a server's future queue, its ready tree (through the track's
//     one embedded node) or its batch, or the cluster's re-dispatch pool.
//     FIFO ticket, first-token time, granted retries and the state of the
//     current admission (KV handle, the decode tick it was admitted at,
//     class record) all live on it; no map is keyed by a request. When the
//     request leaves the run — completion, deadline abort, expiry, shed or
//     crash loss — its samples have reached the class digests, and the step,
//     admission or crash that ended it returns the track to the run's free
//     list, the queue's, which reissues it to a later arrival with every
//     field overwritten; so a run holds no more tracks than its peak of
//     requests in flight. Completion marks a track done, and completing a
//     done track panics — which is why OnComplete fires once per request
//     under any amount of retrying.
//   - A client class is a classAgg on a server's tally: served count, TTFT
//     and E2E digests, evictions and KV token-steps. The first admission of
//     the class creates it, which can be on a replica that crashes before
//     the class has anything to report there; so a class appears in a report
//     only once it is rostered — by a completion, an unfinished request at
//     seal, or a failed run's undispatched requests. A cluster report merges
//     the replicas' records class by class, each cluster digest sharing the
//     replicas' runs of samples instead of copying them. There is no
//     aggregate record: the aggregate percentiles are read at seal from the
//     class digests' runs where they lie.
//   - A KV sequence is a slot of its manager's seqTable, the one table under
//     the three policies: Admit issues the slot (released slots first, so the
//     table stays at the live-sequence high-water mark), Release vacates it
//     and the handle is dead until the slot is issued again. A policy adds
//     only its growth body (and, for blocks of the paged slab, how they are
//     returned).
//   - Decode progress is the server's, not the manager's. A running track
//     has generated one token per decode tick since its admission, so its
//     completion tick follows from its output length, and its next chunk
//     boundary from the room its manager last reported. The server keeps
//     each sequence's next event in a min-index and tells the manager only
//     at the events — Reserve at a boundary, in admission order — plus one
//     O(1) Decode per step that credits every live sequence a token. A step
//     therefore costs O(1) plus O(sequences with an event): a boundary, a
//     completion or a deadline. A track's KV token-steps are settled in
//     closed form when it leaves the batch.
//
// # Latency reporting: exact, then sketched
//
// Every latency distribution a report renders (TTFT and E2E, aggregate and
// per class) streams through a digest that retains raw samples — in runs of
// 16 up to 256 slots, filled in turn and never copied — and applies the
// exact nearest-rank percentile rule up to DefaultExactSamples values, so
// ordinary runs render byte-identical to the historical exact tables.
// One sample past the threshold the digest spills into a fixed-size
// deterministic mergeable quantile sketch (internal/quantile) and stays
// O(1) in memory from then on: a 10M-request run holds a few thousand
// sketch buckets instead of tens of millions of samples, at the sketch's
// documented relative rank-error bound. Whether a digest is exact or
// sketched is a pure function of its total sample count, so cluster
// union-merges agree with a single-stream digest regardless of merge
// order. Report.RetainedSamples and Report.SketchedSamples expose the
// split — the memory-footprint proxy the scale benchmark tracks.
//
// # Sessions and KV prefix reuse
//
// Requests can belong to multi-turn sessions (Request.SessionID/Turn): turn
// N+1's prompt embeds turn N's prompt and output as a shared prefix. With
// ServerConfig.PrefixReuse enabled a server remembers, per session, how many
// context tokens of the last completed turn are still resident in its KV
// cache; a follow-up turn that finds its prefix resident skips that many
// prompt tokens of prefill — its TTFT drops by exactly the skipped
// prefill time. Residency interacts honestly with the failure and memory
// paths: a crash clears the whole table, and preemption-recompute, a
// deadline abort or a shed of a session's sequence invalidates that
// session's entry (the recompute throws the shared prefix away). Reports
// grow PrefixHits, PrefixMisses and ReusedTokens. Zero-session request
// streams and PrefixReuse-off configurations take none of these paths and
// reproduce the pre-session scheduler byte for byte.
//
// At the cluster level the DispatchSessionAffinity policy routes a turn to
// the replica whose prefix table holds its session, falling back to
// ClusterConfig.AffinityBase (jsq when unset) when the prefix is gone or
// the replica is down or draining — trading TTFT saved for the load
// imbalance session pinning induces, which ClusterReport.AffinityRouted
// and the per-replica Assigned counts quantify.
//
// # Failure model and the event-boundary determinism contract
//
// A cluster run can inject replica faults (ClusterConfig.Faults): a crash
// loses the replica's KV cache and every in-flight sequence, removes it
// from dispatch, and a later restart returns it empty. Faults come from a
// seeded MTTF/MTTR process or a scripted plan (ParseFaultPlan), and are
// injected only at event boundaries of the co-simulation — between decode
// steps, never inside one — so a faulty run is exactly as deterministic as
// a fault-free one: same seed and plan, byte-identical report, at any test
// parallelism. A crash that falls mid-step on a replica's clock takes
// effect at the next boundary the scheduler reaches.
//
// Recovery mirrors the preemption semantics: queued requests displaced by
// a crash are re-dispatched immediately (a late dispatch decision, FIFO
// ticket kept), while in-flight sequences are retried with recompute-from-
// scratch cost under ClusterConfig.Recovery's bounded retries and
// exponential backoff — their TTFT survives only if the first token had
// already streamed. Requests denied a retry are Lost.
// Request deadlines (ServerConfig.Timeout) bound end-to-end latency across
// retries; deadline-aware admission shedding (ServerConfig.Shed) rejects
// requests that provably cannot meet them. Reports grow Crashes, Restarts,
// DeadlineMisses, Shed and Goodput, and ClusterReport adds Retries, Lost
// and capacity-weighted Availability — all merged across replicas exactly
// like the existing counters and digests.
//
// The byte-identity invariants this package leans on — virtual time only,
// seeded randomness only, no map-iteration order in any report path — are
// enforced statically by the determinism-contract linter (internal/lint,
// run as `go run ./cmd/gmlake-lint ./...` and gated in CI), not just by
// the differential tests.
package serve

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// KVBytesPerToken returns the bytes one token's key+value vectors occupy
// across all layers of cfg.
func KVBytesPerToken(cfg model.Config) int64 {
	return 2 * int64(cfg.Layers) * int64(cfg.Hidden) * model.DTypeBytes
}

// Request is one serving request. The zero values of the multi-tenant
// fields (empty class and SLO, priority 0, arrival 0) reproduce the original
// homogeneous behaviour: every request belongs to one anonymous class and is
// available at time zero.
type Request struct {
	ID int

	// Class names the client class the request belongs to (servegen's
	// tenant decomposition); empty means the default class.
	Class string
	// SLO is the request's service-level class tag, reported per class.
	SLO string
	// Priority orders admission and protects against preemption: higher
	// priorities are admitted first and evicted last.
	Priority int
	// ArrivalAt is when the request enters the system on the server's
	// virtual clock; the server never admits a request early.
	ArrivalAt time.Duration

	PromptLen int // tokens in the prompt (prefill)
	OutputLen int // tokens to generate (decode steps)

	// SessionID ties multi-turn requests together: turn N+1 of a session
	// carries the same SessionID and its prompt embeds turn N's prompt and
	// output as a shared prefix. An empty SessionID (with Turn 0) is the
	// original one-shot request and takes none of the session code paths.
	SessionID string
	// Turn is the request's 0-based position within its session.
	Turn int
}

// TotalTokens returns the sequence length at completion.
func (r Request) TotalTokens() int { return r.PromptLen + r.OutputLen }

// GenConfig shapes the synthetic request mix.
type GenConfig struct {
	// Prompt lengths are uniform in [MinPrompt, MaxPrompt].
	MinPrompt, MaxPrompt int
	// Output lengths are uniform in [MinOutput, MaxOutput] — the
	// unpredictable-length decode that makes pad-to-max so wasteful.
	MinOutput, MaxOutput int
}

// DefaultGenConfig returns a chat-like mix: short-to-medium prompts with
// highly variable outputs.
func DefaultGenConfig() GenConfig {
	return GenConfig{MinPrompt: 16, MaxPrompt: 512, MinOutput: 8, MaxOutput: 512}
}

func (c GenConfig) validate() error {
	if c.MinPrompt <= 0 || c.MaxPrompt < c.MinPrompt {
		return fmt.Errorf("serve: prompt range [%d,%d]", c.MinPrompt, c.MaxPrompt)
	}
	if c.MinOutput <= 0 || c.MaxOutput < c.MinOutput {
		return fmt.Errorf("serve: output range [%d,%d]", c.MinOutput, c.MaxOutput)
	}
	return nil
}

// GenRequests returns n deterministic requests drawn from cfg with the
// given seed.
func GenRequests(n int, cfg GenConfig, seed uint64) ([]Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: %d requests", n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			ID:        i,
			PromptLen: cfg.MinPrompt + rng.Intn(cfg.MaxPrompt-cfg.MinPrompt+1),
			OutputLen: cfg.MinOutput + rng.Intn(cfg.MaxOutput-cfg.MinOutput+1),
		}
	}
	return out, nil
}

// Serve runs the requests to completion under continuous batching: admit
// arrived requests while memory and the batch cap allow (highest priority
// first), decode one token per active sequence per step, release
// completions, and — when a sequence's next chunk hits the memory wall —
// preempt the lowest-priority, most recently admitted other sequence and
// requeue it in full (vLLM's recompute-preemption, made SLO-aware).
// With ServerConfig.Aging set, "priority" throughout means the aged
// effective priority — Priority + wait/Aging — so starved low-priority
// requests eventually outrank fresh high-priority arrivals.
//
// Serve is ServeCluster over one static replica with mgr as its cache
// manager, and returns the cluster report's merged view — one scheduler, so
// one way into a server. The scheduler reads reqs in place through an
// arrival-ordered cursor (reqs need not be sorted, is not written, and must
// not change during the call) and dispatches each request at its arrival
// instant. On the server, arrived requests sit in a priority-ordered tree
// and the batch is a slice in admission order, so admission and the
// idle-jump are O(log n), victim selection is a scan at the memory wall
// only, and host memory beyond reqs itself follows the work in flight, not
// the stream length. On long backlogged streams the loop's bookkeeping is
// O(total work · log n).
//
// Time is simulated on an internal virtual clock (see ServerConfig's step
// costs); per-request arrival, first-token and completion times feed the
// per-class TTFT/E2E percentiles in the report. A request with no prompt or
// no output tokens is an error before anything is served. The report is
// sealed on the error paths too, so callers always see the duration, class
// rows and percentiles of whatever work completed before the failure.
func Serve(reqs []Request, mgr CacheManager, cfg ServerConfig) (Report, error) {
	// The server's own check first: its errors name no replica.
	if err := cfg.validate(-1); err != nil {
		return Report{}, err
	}
	c, err := newClusterSched(reqs, func(int) CacheManager { return mgr }, ClusterConfig{Replicas: 1, Server: cfg})
	if err != nil {
		return Report{}, err
	}
	rep, _, err := c.run()
	return rep.Report, err
}

// SeqHandle identifies one admitted sequence inside a cache manager.
type SeqHandle int

// CacheManager is one KV-cache management policy. The server owns decode
// progress: it knows when each sequence next fills its storage, and tells
// the manager only at those boundaries (Reserve) and once per decode step
// (Decode), never once per token per sequence.
type CacheManager interface {
	// Admit reserves KV storage for a request's prompt. It fails when the
	// backing memory cannot hold the sequence; the server then retries
	// after other sequences complete.
	Admit(r Request) (SeqHandle, error)

	// Append extends the sequence by one generated token: Reserve, then
	// store the token.
	Append(h SeqHandle) error

	// Reserve makes room for the sequence's next token — growing its
	// storage exactly as Append would when it is full — and returns how
	// many tokens fit before it must grow again (≥ 1).
	Reserve(h SeqHandle) (room int, err error)

	// Decode stores one token in every live sequence, each of which must
	// have room for it. It is O(1).
	Decode()

	// Release frees the sequence's storage.
	Release(h SeqHandle)

	// UsedBytes is the memory currently taken from the device or
	// allocator; LogicalBytes is the KV data actually stored. Their gap
	// is the policy's waste.
	UsedBytes() int64
	LogicalBytes() int64
}

// wasteRatio is 1 − logical/used for a manager's UsedBytes and LogicalBytes
// read at one instant; zero when nothing is allocated.
func wasteRatio(used, logical int64) float64 {
	if used == 0 {
		return 0
	}
	return 1 - float64(logical)/float64(used)
}
