// Package servegen generates heterogeneous multi-tenant serving workloads
// with ServeGen-style client decomposition: the aggregate request stream is
// the merge of N independent client classes, each with its own arrival
// process (Poisson, bursty Gamma, on-off), rate share, prompt/output length
// distributions and SLO class. Production traces are dominated by exactly
// this structure — a few heavy-rate bursty clients over a long tail of
// steady ones — which a single homogeneous mix cannot reproduce.
//
// Classes can be multi-turn (ClientClass.Sessions): each arrival starts a
// session whose follow-up turns arrive after think-time gaps and carry a
// prompt that embeds the prior turns' prompt+output as a growing shared
// prefix, tagged with SessionID/Turn — the workload shape the serving side's
// KV prefix-reuse model and session-affinity dispatch exploit. ChatSessions
// is the predefined session-heavy mix.
//
// Everything is driven by the repository's seeded PRNG: the same seed yields
// a byte-identical request stream, so serving experiments are replayable and
// differential tests can compare KV-cache policies on the exact same
// traffic.
package servegen

import (
	"fmt"
	"math"
	"time"

	"repro/internal/container"
	"repro/internal/serve"
	"repro/internal/sim"
)

// SLO class tags. Priorities order preemption and admission: interactive
// traffic is served first and evicted last.
const (
	SLOInteractive = "interactive"
	SLOStandard    = "standard"
	SLOBatch       = "batch"
)

// SLOPriority maps an SLO class tag to the scheduling priority carried on
// each request (higher = more latency-sensitive). Unknown tags get the
// standard priority.
func SLOPriority(slo string) int {
	switch slo {
	case SLOInteractive:
		return 2
	case SLOBatch:
		return 0
	default:
		return 1
	}
}

// DistKind names a token-length distribution family.
type DistKind string

// Length distribution families.
const (
	DistDeterministic DistKind = "deterministic"
	DistUniform       DistKind = "uniform"
	DistLognormal     DistKind = "lognormal"
)

// LengthDist is a prompt or output token-length distribution.
type LengthDist struct {
	Kind DistKind

	// Value is the fixed length of a deterministic distribution.
	Value int

	// Min and Max bound uniform draws and clamp lognormal ones.
	Min, Max int

	// Mean and CV parameterize the lognormal family: Mean is the
	// distribution mean in tokens, CV its coefficient of variation. The
	// long right tail (CV near or above 1) is what production length
	// traces show and uniform mixes miss.
	Mean, CV float64
}

// Deterministic returns the fixed-length distribution.
func Deterministic(v int) LengthDist {
	return LengthDist{Kind: DistDeterministic, Value: v}
}

// Uniform returns the uniform distribution on [min, max].
func Uniform(min, max int) LengthDist {
	return LengthDist{Kind: DistUniform, Min: min, Max: max}
}

// Lognormal returns a discretized lognormal with the given mean and
// coefficient of variation, clamped to [min, max].
func Lognormal(mean, cv float64, min, max int) LengthDist {
	return LengthDist{Kind: DistLognormal, Mean: mean, CV: cv, Min: min, Max: max}
}

func (d LengthDist) validate(what string) error {
	switch d.Kind {
	case DistDeterministic:
		if d.Value <= 0 {
			return fmt.Errorf("servegen: %s deterministic length %d", what, d.Value)
		}
	case DistUniform:
		if d.Min <= 0 || d.Max < d.Min {
			return fmt.Errorf("servegen: %s uniform range [%d,%d]", what, d.Min, d.Max)
		}
	case DistLognormal:
		if d.Mean <= 0 || d.CV <= 0 {
			return fmt.Errorf("servegen: %s lognormal mean %g cv %g", what, d.Mean, d.CV)
		}
		if d.Min <= 0 || d.Max < d.Min {
			return fmt.Errorf("servegen: %s lognormal clamp [%d,%d]", what, d.Min, d.Max)
		}
	default:
		return fmt.Errorf("servegen: %s has unknown distribution %q", what, d.Kind)
	}
	return nil
}

// Describe renders the distribution compactly for reports and CLIs.
func (d LengthDist) Describe() string {
	switch d.Kind {
	case DistDeterministic:
		return fmt.Sprintf("=%d", d.Value)
	case DistUniform:
		return fmt.Sprintf("U[%d,%d]", d.Min, d.Max)
	case DistLognormal:
		return fmt.Sprintf("logn(%.0f,cv %.1f)", d.Mean, d.CV)
	default:
		return string(d.Kind)
	}
}

// MeanTokens returns the distribution mean before clamping (exact for
// deterministic and uniform; the lognormal parameter for lognormal).
func (d LengthDist) MeanTokens() float64 {
	switch d.Kind {
	case DistDeterministic:
		return float64(d.Value)
	case DistUniform:
		return float64(d.Min+d.Max) / 2
	default:
		return d.Mean
	}
}

func (d LengthDist) sample(rng *sim.RNG) int {
	switch d.Kind {
	case DistDeterministic:
		return d.Value
	case DistUniform:
		return d.Min + rng.Intn(d.Max-d.Min+1)
	default: // lognormal, discretized by rounding
		sigma2 := math.Log(1 + d.CV*d.CV)
		mu := math.Log(d.Mean) - sigma2/2
		v := int(math.Round(math.Exp(mu + math.Sqrt(sigma2)*normal(rng))))
		if v < d.Min {
			v = d.Min
		}
		if v > d.Max {
			v = d.Max
		}
		return v
	}
}

// normal returns a standard normal draw (Box–Muller on the seeded RNG).
func normal(rng *sim.RNG) float64 {
	u1 := 1 - rng.Float64() // (0,1]: log never sees 0
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// gamma returns a draw from Gamma(shape k, scale 1) via Marsaglia–Tsang,
// boosted for k < 1.
func gamma(rng *sim.RNG, k float64) float64 {
	if k < 1 {
		u := 1 - rng.Float64()
		return gamma(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := normal(rng)
		t := 1 + c*x
		if t <= 0 {
			continue
		}
		v := t * t * t
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ArrivalKind names an arrival process family.
type ArrivalKind string

// Arrival process families.
const (
	// ArrivalPoisson is memoryless steady traffic (interarrival CV 1).
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalGamma draws Gamma interarrivals with a configurable CV:
	// CV > 1 clusters arrivals into bursts separated by lulls.
	ArrivalGamma ArrivalKind = "gamma"
	// ArrivalOnOff confines arrivals to the on-window of a fixed cycle —
	// the batch-job pattern of periodic submission waves.
	ArrivalOnOff ArrivalKind = "onoff"
)

// ArrivalProcess describes when one client class submits requests.
type ArrivalProcess struct {
	Kind ArrivalKind

	// CV is the Gamma interarrival coefficient of variation (> 0).
	CV float64

	// OnFraction is the on-window share of each on-off cycle, in (0, 1].
	OnFraction float64
	// Cycle is the on-off cycle length.
	Cycle time.Duration
}

// Poisson returns the memoryless arrival process.
func Poisson() ArrivalProcess { return ArrivalProcess{Kind: ArrivalPoisson} }

// Bursty returns a Gamma arrival process with interarrival CV cv.
func Bursty(cv float64) ArrivalProcess {
	return ArrivalProcess{Kind: ArrivalGamma, CV: cv}
}

// OnOff returns an on-off process submitting only during the first
// onFraction of each cycle.
func OnOff(onFraction float64, cycle time.Duration) ArrivalProcess {
	return ArrivalProcess{Kind: ArrivalOnOff, OnFraction: onFraction, Cycle: cycle}
}

// Describe renders the arrival process compactly for reports and CLIs.
func (a ArrivalProcess) Describe() string {
	switch a.Kind {
	case ArrivalGamma:
		return fmt.Sprintf("gamma cv=%.1f", a.CV)
	case ArrivalOnOff:
		return fmt.Sprintf("on-off %.0f%%/%s", 100*a.OnFraction, a.Cycle.Round(100*time.Millisecond))
	default:
		return string(a.Kind)
	}
}

func (a ArrivalProcess) validate(what string) error {
	switch a.Kind {
	case ArrivalPoisson:
	case ArrivalGamma:
		if a.CV <= 0 {
			return fmt.Errorf("servegen: %s gamma cv %g", what, a.CV)
		}
	case ArrivalOnOff:
		if a.OnFraction <= 0 || a.OnFraction > 1 {
			return fmt.Errorf("servegen: %s on-fraction %g", what, a.OnFraction)
		}
		if a.Cycle <= 0 {
			return fmt.Errorf("servegen: %s cycle %v", what, a.Cycle)
		}
	default:
		return fmt.Errorf("servegen: %s has unknown arrival process %q", what, a.Kind)
	}
	return nil
}

// arrivals generates n arrival times (seconds) at aggregate rate ratePerSec.
func (a ArrivalProcess) arrivals(rng *sim.RNG, ratePerSec float64, n int) []float64 {
	out := make([]float64, n)
	switch a.Kind {
	case ArrivalGamma:
		// Interarrival Gamma with mean 1/rate and CV cv: shape k = 1/cv²,
		// scale θ = cv²/rate.
		k := 1 / (a.CV * a.CV)
		theta := 1 / (ratePerSec * k)
		t := 0.0
		for i := range out {
			t += gamma(rng, k) * theta
			out[i] = t
		}
	case ArrivalOnOff:
		// Poisson at the boosted on-rate in "on-time", then mapped onto the
		// wall clock so the aggregate rate stays ratePerSec.
		onRate := ratePerSec / a.OnFraction
		cycle := a.Cycle.Seconds()
		onLen := a.OnFraction * cycle
		tau := 0.0 // cumulative on-time
		for i := range out {
			tau += expDraw(rng, onRate)
			out[i] = math.Floor(tau/onLen)*cycle + math.Mod(tau, onLen)
		}
	default: // Poisson
		t := 0.0
		for i := range out {
			t += expDraw(rng, ratePerSec)
			out[i] = t
		}
	}
	return out
}

// expDraw returns an exponential interarrival at the given rate.
func expDraw(rng *sim.RNG, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// ClientClass is one tenant population in a mix.
type ClientClass struct {
	// Name identifies the class in reports.
	Name string
	// SLO is the class's service-level tag (SLOInteractive, SLOStandard,
	// SLOBatch); it sets request priority for admission and preemption.
	SLO string
	// Share is the class's relative share of the mix's aggregate rate
	// (shares are normalized, so they need not sum to 1).
	Share float64
	// Arrival is the class's arrival process.
	Arrival ArrivalProcess
	// Prompt and Output are the class's token-length distributions. For a
	// session class they parameterize turn 0; follow-up turns grow the
	// prompt per the session profile.
	Prompt, Output LengthDist
	// Sessions, when non-nil, makes the class multi-turn: each arrival the
	// class's arrival process produces starts a session whose follow-up
	// turns share a growing prompt prefix. Nil keeps the class one-shot.
	// See SessionProfile.
	Sessions *SessionProfile
}

// Mix is a multi-tenant serving workload: an aggregate request rate
// decomposed over client classes.
type Mix struct {
	// Name identifies the mix in reports and configuration strings.
	Name string
	// Rate is the aggregate request rate in requests per second.
	Rate float64
	// Classes are the tenant populations; at least one is required.
	Classes []ClientClass
}

// Validate checks the mix is well-formed.
func (m Mix) Validate() error {
	if m.Rate <= 0 {
		return fmt.Errorf("servegen: mix %q rate %g", m.Name, m.Rate)
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("servegen: mix %q has no classes", m.Name)
	}
	seen := map[string]bool{}
	for _, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("servegen: mix %q has an unnamed class", m.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("servegen: mix %q repeats class %q", m.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Share <= 0 {
			return fmt.Errorf("servegen: class %q share %g", c.Name, c.Share)
		}
		if err := c.Arrival.validate("class " + c.Name); err != nil {
			return err
		}
		if err := c.Prompt.validate("class " + c.Name + " prompt"); err != nil {
			return err
		}
		if err := c.Output.validate("class " + c.Name + " output"); err != nil {
			return err
		}
		if c.Sessions != nil {
			if err := c.Sessions.validate("class " + c.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// WithRate returns a copy of m with the aggregate rate set to ratePerSec.
func (m Mix) WithRate(ratePerSec float64) Mix {
	m.Rate = ratePerSec
	return m
}

// WithBurstCV returns a copy of m with every Gamma-arrival class set to
// interarrival CV cv (the burst_cv configuration knob).
func (m Mix) WithBurstCV(cv float64) Mix {
	classes := append([]ClientClass(nil), m.Classes...)
	for i := range classes {
		if classes[i].Arrival.Kind == ArrivalGamma {
			classes[i].Arrival.CV = cv
		}
	}
	m.Classes = classes
	return m
}

// Generate returns the first n requests of the merged multi-tenant stream,
// ordered by arrival and identified 0..n-1. The same (mix, n, seed) yields
// a byte-identical stream; the per-class sub-streams are seeded
// independently, so adding a class does not perturb the others' draws.
//
// The stream is the k-way merge of the classes' sub-streams under the total
// order (ArrivalAt, class index, session index, turn), cut at n. Only what
// is served is sampled: a request's lengths are drawn when it becomes its
// class's head, a session is expanded when the merge frontier reaches its
// start. Arrival times are the exception — every class still draws all n
// of them up front, because a class draws its lengths from the same RNG
// *after* its n arrivals; skipping arrival draws would change every stream.
// Generation therefore holds 8 B × n × classes of arrival times, not
// O(clients). n arrivals per class always cover the merged first-n horizon:
// a lower-rate class spreads its n draws over a longer span.
//
// A session class's arrival process produces session starts rather than
// individual requests: each start expands into that session's turns (same
// SessionID, consecutive Turn numbers, think-time gaps, growing prompt —
// see SessionProfile), so the class contributes its sessions' turns to the
// merge. Turn arrivals are strictly increasing within a session, so the
// first-n truncation always keeps a prefix of each session's turns — a turn
// never appears without its predecessors. A mix with no session classes
// draws exactly the sequence it always did.
//
// The merge needs each class's arrival times non-decreasing, which every
// arrival process guarantees by construction up to float rounding (on-off
// folds cumulative on-time with a floor and a mod that must agree at cycle
// boundaries); a class that breaks it is an error, never a mis-ordered
// stream (see merge).
func (m Mix) Generate(n int, seed uint64) ([]serve.Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("servegen: %d requests", n)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var totalShare float64
	for _, c := range m.Classes {
		totalShare += c.Share
	}

	// Each class draws its sub-stream from its own splitmix-derived seed.
	root := sim.NewRNG(seed)
	streams := make([]classStream, len(m.Classes))
	for k := range m.Classes {
		c := &m.Classes[k]
		rng := sim.NewRNG(root.Uint64())
		streams[k] = classStream{class: c, rng: rng, times: c.Arrival.arrivals(rng, m.Rate*c.Share/totalShare, n)}
	}
	return merge(streams, n)
}

// merge returns the first n requests of the k-way merge of the class
// streams, which hold their arrival draws and at least n requests between
// them, identified 0..n-1. A stream whose arrival times step backwards (NaN
// included) is an error.
func merge(streams []classStream, n int) ([]serve.Request, error) {
	for k := range streams {
		s := &streams[k]
		if i := firstDisorder(s.times); i >= 0 {
			return nil, fmt.Errorf("servegen: class %q arrival %d at %gs is out of order (after %gs)", s.class.Name, i, s.times[i], s.times[i-1])
		}
		if s.class.Sessions != nil {
			s.turns = container.NewHeap(turnLess)
		}
		s.advance()
	}
	out := make([]serve.Request, n)
	for i := range out {
		// The strict comparison leaves ties to the lowest class index.
		best := &streams[0]
		for k := 1; k < len(streams); k++ {
			if s := &streams[k]; !best.ok || (s.ok && s.head.ArrivalAt < best.head.ArrivalAt) {
				best = s
			}
		}
		out[i] = best.head
		out[i].ID = i
		best.advance()
	}
	return out, nil
}

// firstDisorder returns the first index whose arrival time is not at or
// after its predecessor's (NaN included), or -1 when times is non-decreasing.
func firstDisorder(times []float64) int {
	for i := 1; i < len(times); i++ {
		if !(times[i] >= times[i-1]) {
			return i
		}
	}
	return -1
}

// classStream is one class's sub-stream, sampled lazily in the order the
// eager generator drew it: arrival by arrival for a one-shot class, session
// by session for a session class. head is the class's earliest request not
// yet merged, valid while ok.
type classStream struct {
	class *ClientClass
	rng   *sim.RNG
	times []float64 // all n arrival draws, non-decreasing
	next  int       // first arrival not yet sampled
	head  serve.Request
	ok    bool

	// turns holds a session class's expanded, not yet merged turns, minimum
	// under turnLess first (nil for a one-shot class). Sessions overlap, so a
	// later session's turn 0 can precede an earlier session's turn 3.
	turns *container.Heap[sessionTurn]
}

// sessionTurn is one pending turn with the session index that orders it
// against a same-instant turn of another session.
type sessionTurn struct {
	req serve.Request
	si  int
}

// turnLess is the order of a session class's buffer under a stable sort by
// arrival: (ArrivalAt, session index, turn).
func turnLess(a, b sessionTurn) bool {
	if a.req.ArrivalAt != b.req.ArrivalAt {
		return a.req.ArrivalAt < b.req.ArrivalAt
	}
	if a.si != b.si {
		return a.si < b.si
	}
	return a.req.Turn < b.req.Turn
}

// arrivalAt converts an arrival draw to the virtual clock.
func arrivalAt(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// advance samples the class's next head, or clears ok when its n arrivals
// are used up.
func (s *classStream) advance() {
	c := s.class
	if c.Sessions == nil {
		if s.ok = s.next < len(s.times); !s.ok {
			return
		}
		s.head = serve.Request{
			Class:     c.Name,
			SLO:       c.SLO,
			Priority:  SLOPriority(c.SLO),
			ArrivalAt: arrivalAt(s.times[s.next]),
			PromptLen: c.Prompt.sample(s.rng),
			OutputLen: c.Output.sample(s.rng),
		}
		s.next++
		return
	}
	// Expand every session that starts before the earliest pending turn; one
	// starting at the same instant has the higher session index and waits.
	for s.next < len(s.times) && (s.turns.Len() == 0 || arrivalAt(s.times[s.next]) < s.turns.Peek().req.ArrivalAt) {
		for _, r := range c.Sessions.expand(s.rng, *c, s.next, s.times[s.next]) {
			s.turns.Push(sessionTurn{req: r, si: s.next})
		}
		s.next++
	}
	if s.ok = s.turns.Len() > 0; s.ok {
		s.head = s.turns.Pop().req
	}
}
