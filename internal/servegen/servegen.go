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
// traffic. A float product that feeds a sum or a difference is wrapped in
// float64(...): the explicit conversion rounds it, so no architecture may
// fuse the two into one multiply-add, and arm64 draws the bits amd64 does
// (scripts/fma_check.sh holds the package to it).
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
		if !positiveFinite(d.Mean) || !positiveFinite(d.CV) {
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

// positiveFinite reports whether x is in (0, +Inf); NaN is not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// sampler draws from a LengthDist. A lognormal's μ and σ depend only on the
// distribution, so a class works them out once, not on every draw.
type sampler struct {
	dist      LengthDist
	mu, sigma float64
}

func (d LengthDist) sampler() sampler {
	s := sampler{dist: d}
	if d.Kind == DistLognormal {
		sigma2 := math.Log(1 + float64(d.CV*d.CV))
		s.mu = math.Log(d.Mean) - float64(sigma2/2)
		s.sigma = math.Sqrt(sigma2)
	}
	return s
}

func (s *sampler) sample(rng *sim.RNG) int {
	d := &s.dist
	switch d.Kind {
	case DistDeterministic:
		return d.Value
	case DistUniform:
		return d.Min + rng.Intn(d.Max-d.Min+1)
	default: // lognormal, discretized by rounding
		v := int(math.Round(math.Exp(s.mu + float64(s.sigma*normal(rng)))))
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
	u1 := 1 - float64(rng.Float64()) // (0,1]: log never sees 0
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// gamma returns a draw from Gamma(shape k, scale 1) via Marsaglia–Tsang,
// boosted for k < 1.
func gamma(rng *sim.RNG, k float64) float64 {
	if k < 1 {
		u := 1 - float64(rng.Float64())
		return gamma(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := normal(rng)
		t := 1 + float64(c*x)
		if t <= 0 {
			continue
		}
		v := float64(t * t * t)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
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
		// The draws' shape 1/cv² must be positive and finite too: a CV
		// near 0 or huge passes as a number but draws NaN arrivals.
		if !positiveFinite(a.CV) || !positiveFinite(1/(a.CV*a.CV)) {
			return fmt.Errorf("servegen: %s gamma cv %g (shape 1/cv² out of range)", what, a.CV)
		}
	case ArrivalOnOff:
		if !(a.OnFraction > 0 && a.OnFraction <= 1) {
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
	if a.Kind != ArrivalGamma {
		s := a.lazy(ratePerSec, n)
		for i := range out {
			out[i] = s.draw(rng)
		}
		return out
	}
	k, theta := gammaParams(a.CV, ratePerSec)
	t := 0.0
	for i := range out {
		t += float64(gamma(rng, k) * theta)
		out[i] = t
	}
	return out
}

// gammaParams returns the shape k = 1/cv² and scale θ = cv²/rate of Gamma
// interarrivals with mean 1/rate and CV cv.
func gammaParams(cv, ratePerSec float64) (k, theta float64) {
	k = 1 / (cv * cv)
	return k, 1 / (ratePerSec * k)
}

// stream returns a class's n arrivals at ratePerSec drawn from rng, and
// leaves rng where drawing all n would: the class draws its lengths from
// it next. Poisson and on-off consume exactly one draw per arrival, so they
// draw each arrival when it is read, from a copy of rng, and rng skips the
// n draws in O(1). Gamma's rejection sampling consumes a variable number,
// so it draws all n now.
func (a ArrivalProcess) stream(rng *sim.RNG, ratePerSec float64, n int) arrivalStream {
	if a.Kind == ArrivalGamma {
		return arrivalStream{times: a.arrivals(rng, ratePerSec, n), n: n}
	}
	s := a.lazy(ratePerSec, n)
	s.rng = *rng
	rng.Skip(uint64(n))
	return s
}

// lazy returns the stream of a one-draw-per-arrival process (Poisson,
// on-off) at ratePerSec, drawing from its zero RNG until the caller sets it.
func (a ArrivalProcess) lazy(ratePerSec float64, n int) arrivalStream {
	if a.Kind != ArrivalOnOff {
		return arrivalStream{rate: ratePerSec, n: n}
	}
	cycle := a.Cycle.Seconds()
	return arrivalStream{rate: ratePerSec / a.OnFraction, onLen: a.OnFraction * cycle, cycle: cycle, n: n}
}

// arrivalStream is a class's n arrival times, read in order. Gamma's are
// drawn up front. Poisson and on-off draw one exponential gap per arrival:
// Poisson accumulates the gaps on the wall clock; on-off accumulates them in
// on-time at the boosted on-rate and maps the sum onto the wall clock, so
// the aggregate rate stays the class rate.
type arrivalStream struct {
	times        []float64 // drawn up front; nil when each is drawn on read
	rng          sim.RNG   // the lazy draws' own copy of the class RNG
	rate         float64   // rate of the exponential gaps
	onLen, cycle float64   // on-off window and cycle in seconds; cycle 0 for Poisson
	t            float64   // cumulative time, or on-time for on-off
	n            int
}

// read returns arrival i; reads must come in order, i = 0, 1, 2, ...
func (a *arrivalStream) read(i int) float64 {
	if a.times != nil {
		return a.times[i]
	}
	return a.draw(&a.rng)
}

// draw returns the next arrival time of a one-draw-per-arrival process.
func (a *arrivalStream) draw(rng *sim.RNG) float64 {
	a.t += expDraw(rng, a.rate)
	if a.cycle == 0 {
		return a.t
	}
	return float64(math.Floor(a.t/a.onLen)*a.cycle) + math.Mod(a.t, a.onLen)
}

// expDraw returns an exponential interarrival at the given rate.
func expDraw(rng *sim.RNG, rate float64) float64 {
	return -math.Log(1-float64(rng.Float64())) / rate
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

// Validate checks the mix is well-formed. Every rate, share, mean and CV
// must be positive and finite: NaN slips through a plain "<= 0" check.
func (m Mix) Validate() error {
	if !positiveFinite(m.Rate) {
		return fmt.Errorf("servegen: mix %q rate %g", m.Name, m.Rate)
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("servegen: mix %q has no classes", m.Name)
	}
	seen := map[string]bool{}
	var totalShare float64
	for _, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("servegen: mix %q has an unnamed class", m.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("servegen: mix %q repeats class %q", m.Name, c.Name)
		}
		seen[c.Name] = true
		if !positiveFinite(c.Share) {
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
		totalShare += c.Share
	}
	// A Gamma class's scale θ = cv²/rate, at the class rate Generate
	// derives, overflows at a huge CV and a low rate even when the shape is
	// in range, and would draw NaN arrivals.
	for _, c := range m.Classes {
		rate := m.Rate * c.Share / totalShare
		if _, theta := gammaParams(c.Arrival.CV, rate); c.Arrival.Kind == ArrivalGamma && !positiveFinite(theta) {
			return fmt.Errorf("servegen: class %q gamma cv %g at rate %g/s (scale cv²/rate out of range)",
				c.Name, c.Arrival.CV, rate)
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
// is served is sampled: an arrival time is drawn when the merge reads it, a
// request's lengths when it becomes its class's head, a session is expanded
// when the merge frontier reaches its start. A class's RNG yields its n
// arrival draws first and its lengths after them. Poisson and on-off
// consume exactly one draw per arrival, so such a class draws arrivals from
// a copy of its RNG and skips the original past all n in O(1): the lengths
// come out bit for bit as if every arrival had been drawn. A Gamma class
// consumes a variable number of draws per arrival, so it alone still draws
// its n arrival times up front and holds them, 8 B × n. n arrivals per
// class always cover the merged first-n horizon: a lower-rate class spreads
// its n draws over a longer span.
//
// A session class's arrival process produces session starts rather than
// individual requests: each start expands into that session's turns (same
// SessionID, consecutive Turn numbers, think-time gaps, growing prompt —
// see SessionProfile), so the class contributes its sessions' turns to the
// merge. A session's turns wait in its class's heap as 40-byte records
// keyed by (arrival, session index, turn) and become requests only when
// they reach the class's head; n is at most MaxInt32 because the key packs
// the session index into 32 bits. Turn arrivals are strictly increasing
// within a session until they saturate at the clock's end, where the key's
// (session, turn) tie-break alone keeps them in order, so the first-n
// truncation always keeps a prefix of each session's turns — a turn never
// appears without its predecessors. A mix with no session classes draws
// exactly the sequence it always did.
//
// The merge needs each class's arrival times non-decreasing, which every
// arrival process guarantees by construction up to float rounding (on-off
// folds cumulative on-time with a floor and a mod that must agree at cycle
// boundaries); an arrival the merge reads that breaks it is an error, never
// a mis-ordered stream (see merge).
func (m Mix) Generate(n int, seed uint64) ([]serve.Request, error) {
	if n <= 0 {
		return nil, fmt.Errorf("servegen: %d requests", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("servegen: %d requests, at most %d", n, math.MaxInt32)
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
		arr := c.Arrival.stream(rng, m.Rate*c.Share/totalShare, n)
		streams[k] = newClassStream(c, *rng, arr)
	}
	return merge(streams, n)
}

// merge returns the first n requests of the k-way merge of the class
// streams, which hold at least n requests between them, identified 0..n-1.
// An arrival the merge reads that steps back from its predecessor (NaN
// included) is an error.
func merge(streams []classStream, n int) ([]serve.Request, error) {
	for k := range streams {
		if err := streams[k].advance(); err != nil {
			return nil, err
		}
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
		if err := best.advance(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classStream is one class's sub-stream, sampled lazily in the order the
// eager generator drew it: arrival by arrival for a one-shot class, session
// by session for a session class. head is the class's earliest request not
// yet merged, valid while ok.
type classStream struct {
	class *ClientClass
	rng   sim.RNG // the class's length and session draws
	arr   arrivalStream
	next  int     // first arrival not yet sampled
	at    float64 // arrival next, read once next < arr.n
	head  serve.Request
	ok    bool

	prompt, output          sampler
	turnCount, think, delta sampler // session classes only

	// turns holds a session class's expanded, not yet merged turns under
	// the key turnKey gives them, the earliest first (empty for a one-shot
	// class). Sessions overlap, so a later session's turn 0 can precede an
	// earlier session's turn 3.
	turns container.Heap[sessionTurn]
}

// newClassStream returns class c's sub-stream over its arrivals arr, drawing
// lengths and sessions from rng.
func newClassStream(c *ClientClass, rng sim.RNG, arr arrivalStream) classStream {
	s := classStream{class: c, rng: rng, arr: arr, prompt: c.Prompt.sampler(), output: c.Output.sampler()}
	if p := c.Sessions; p != nil {
		s.turnCount, s.think, s.delta = p.Turns.sampler(), p.Think.sampler(), p.Delta.sampler()
	}
	if arr.n > 0 {
		s.at = s.arr.read(0)
	}
	return s
}

// sessionTurn is one pending turn: what its request carries beside the
// class's constants and the arrival instant its key holds.
type sessionTurn struct {
	prompt, output, turn int
	sid                  string
}

// turnKey is turn's key in its class's heap, the order of the class's turns
// under a stable sort by arrival: (arrival, session index, turn). Generate
// bounds n, and with it the session index, by MaxInt32, so the index fills
// Lo's top half; a turn past 2³² would need more turns pending than memory
// holds.
func turnKey(at time.Duration, si, turn int) container.Key {
	return container.Key{Hi: int64(at), Lo: int64(si)<<32 | int64(turn)}
}

// arrivalAt converts an arrival draw to the virtual clock. A draw past the
// clock's range (≈ 292 years, reached by a class with a tiny share) stays at
// its end: converting it would wrap to a negative instant that sorts first.
func arrivalAt(sec float64) time.Duration {
	ns := sec * float64(time.Second)
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// advance samples the class's next head, or clears ok when its n arrivals
// are used up.
func (s *classStream) advance() error {
	c := s.class
	if c.Sessions == nil {
		if s.ok = s.next < s.arr.n; !s.ok {
			return nil
		}
		s.head = serve.Request{
			Class:     c.Name,
			SLO:       c.SLO,
			Priority:  SLOPriority(c.SLO),
			ArrivalAt: arrivalAt(s.at),
			PromptLen: s.prompt.sample(&s.rng),
			OutputLen: s.output.sample(&s.rng),
		}
		return s.step()
	}
	// Expand every session that starts before the earliest pending turn; one
	// starting at the same instant has the higher session index and waits.
	for s.next < s.arr.n {
		if s.turns.Len() > 0 {
			if k, _ := s.turns.Peek(); k.Hi <= int64(arrivalAt(s.at)) {
				break
			}
		}
		s.expand(s.next, s.at)
		if err := s.step(); err != nil {
			return err
		}
	}
	if s.ok = s.turns.Len() > 0; s.ok {
		k, t := s.turns.Pop()
		s.head = serve.Request{
			Class:     c.Name,
			SLO:       c.SLO,
			Priority:  SLOPriority(c.SLO),
			ArrivalAt: time.Duration(k.Hi),
			PromptLen: t.prompt,
			OutputLen: t.output,
			SessionID: t.sid,
			Turn:      t.turn,
		}
	}
	return nil
}

// step moves past arrival next and reads the one after it, if any. An
// arrival before its predecessor (NaN included) is an error.
func (s *classStream) step() error {
	s.next++
	if s.next >= s.arr.n {
		return nil
	}
	prev := s.at
	if s.at = s.arr.read(s.next); !(s.at >= prev) {
		return fmt.Errorf("servegen: class %q arrival %d at %gs is out of order (after %gs)", s.class.Name, s.next, s.at, prev)
	}
	return nil
}
