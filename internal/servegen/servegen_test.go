package servegen

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/serve"
	"repro/internal/sim"
)

// TestGenerateDeterministic: the same (mix, n, seed) must yield a
// byte-identical request stream; different seeds must diverge.
func TestGenerateDeterministic(t *testing.T) {
	for _, mix := range Mixes() {
		a, err := mix.Generate(300, 7)
		if err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
		b, err := mix.Generate(300, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 300 || len(b) != 300 {
			t.Fatalf("%s: lengths %d/%d", mix.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs across identical seeds:\n%+v\n%+v",
					mix.Name, i, a[i], b[i])
			}
		}
		c, err := mix.Generate(300, 8)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical streams", mix.Name)
		}
	}
}

// TestGenerateWellFormed: IDs are 0..n-1 in arrival order, arrivals
// non-decreasing, lengths positive, class/SLO tags populated with the
// right priorities.
func TestGenerateWellFormed(t *testing.T) {
	for _, mix := range Mixes() {
		reqs, err := mix.Generate(400, 3)
		if err != nil {
			t.Fatal(err)
		}
		classes := map[string]bool{}
		var prev time.Duration
		for i, r := range reqs {
			if r.ID != i {
				t.Fatalf("%s: request %d has ID %d", mix.Name, i, r.ID)
			}
			if r.ArrivalAt < prev {
				t.Fatalf("%s: arrivals not sorted at %d", mix.Name, i)
			}
			prev = r.ArrivalAt
			if r.PromptLen <= 0 || r.OutputLen <= 0 {
				t.Fatalf("%s: request %d lengths %d/%d", mix.Name, i, r.PromptLen, r.OutputLen)
			}
			if r.Class == "" || r.SLO == "" {
				t.Fatalf("%s: request %d missing class/SLO", mix.Name, i)
			}
			if r.Priority != SLOPriority(r.SLO) {
				t.Fatalf("%s: request %d priority %d for SLO %s", mix.Name, i, r.Priority, r.SLO)
			}
			classes[r.Class] = true
		}
		if len(classes) != len(mix.Classes) {
			t.Fatalf("%s: %d classes in stream, mix has %d", mix.Name, len(classes), len(mix.Classes))
		}
	}
}

// TestRateShares: empirical per-class counts track the configured rate
// shares within sampling tolerance.
func TestRateShares(t *testing.T) {
	mix := ChatHeavy()
	const n = 4000
	reqs, err := mix.Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Class]++
	}
	var total float64
	for _, c := range mix.Classes {
		total += c.Share
	}
	for _, c := range mix.Classes {
		want := c.Share / total
		got := float64(counts[c.Name]) / n
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("class %s: empirical share %.3f, spec %.3f", c.Name, got, want)
		}
	}
}

// TestLengthDistributionMeans: empirical means of the three families track
// their specs (wide clamps so the lognormal's truncation bias is
// negligible).
func TestLengthDistributionMeans(t *testing.T) {
	cases := []struct {
		name string
		dist LengthDist
		tol  float64 // relative tolerance on the mean
	}{
		{"deterministic", Deterministic(128), 0},
		{"uniform", Uniform(64, 192), 0.05},
		{"lognormal", Lognormal(100, 0.8, 1, 100000), 0.08},
	}
	for _, tc := range cases {
		mix := Mix{
			Name: "single",
			Rate: 10,
			Classes: []ClientClass{{
				Name: "only", SLO: SLOStandard, Share: 1,
				Arrival: Poisson(), Prompt: tc.dist, Output: Deterministic(1),
			}},
		}
		reqs, err := mix.Generate(4000, 5)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range reqs {
			sum += float64(r.PromptLen)
		}
		got := sum / float64(len(reqs))
		want := tc.dist.MeanTokens()
		if tc.tol == 0 {
			if got != want {
				t.Errorf("%s: mean %.2f, want exactly %.2f", tc.name, got, want)
			}
		} else if math.Abs(got-want)/want > tc.tol {
			t.Errorf("%s: mean %.2f, spec %.2f (tol %.0f%%)", tc.name, got, want, 100*tc.tol)
		}
	}
}

// interarrivalCV estimates the interarrival coefficient of variation of a
// single-class stream.
func interarrivalCV(t *testing.T, arrival ArrivalProcess, n int, seed uint64) float64 {
	t.Helper()
	mix := Mix{
		Name: "single",
		Rate: 5,
		Classes: []ClientClass{{
			Name: "only", SLO: SLOStandard, Share: 1,
			Arrival: arrival, Prompt: Deterministic(16), Output: Deterministic(4),
		}},
	}
	reqs, err := mix.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for i := 1; i < len(reqs); i++ {
		gaps = append(gaps, (reqs[i].ArrivalAt - reqs[i-1].ArrivalAt).Seconds())
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	var varsum float64
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	return math.Sqrt(varsum/float64(len(gaps))) / mean
}

// TestArrivalBurstiness: Poisson interarrivals sit near CV 1, Gamma CV 4
// well above — the burstiness knob is real.
func TestArrivalBurstiness(t *testing.T) {
	if cv := interarrivalCV(t, Poisson(), 4000, 9); cv < 0.8 || cv > 1.25 {
		t.Errorf("poisson interarrival CV %.2f, want ≈ 1", cv)
	}
	if cv := interarrivalCV(t, Bursty(4), 4000, 9); cv < 2 {
		t.Errorf("gamma(cv=4) interarrival CV %.2f, want clearly bursty (> 2)", cv)
	}
}

// TestOnOffConfinesArrivals: every on-off arrival lands inside the
// on-window of its cycle.
func TestOnOffConfinesArrivals(t *testing.T) {
	const onFraction = 0.25
	cycle := 10 * time.Second
	mix := Mix{
		Name: "single",
		Rate: 5,
		Classes: []ClientClass{{
			Name: "only", SLO: SLOBatch, Share: 1,
			Arrival: OnOff(onFraction, cycle),
			Prompt:  Deterministic(16), Output: Deterministic(4),
		}},
	}
	reqs, err := mix.Generate(2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	onLen := time.Duration(onFraction * float64(cycle))
	for _, r := range reqs {
		if phase := r.ArrivalAt % cycle; phase > onLen {
			t.Fatalf("arrival %v lands in the off-window (phase %v, on-window %v)",
				r.ArrivalAt, phase, onLen)
		}
	}
}

// TestMixByName: aliases resolve, unknown names error, every canonical mix
// validates.
func TestMixByName(t *testing.T) {
	for _, name := range MixNames() {
		m, err := MixByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if m, err := MixByName("chat+batch"); err != nil || m.Name != "mixed-bursty" {
		t.Fatalf("chat+batch resolved to %q, %v", m.Name, err)
	}
	if _, err := MixByName("nope"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestOverrides: WithRate scales arrival density, WithBurstCV rewrites only
// Gamma classes.
func TestOverrides(t *testing.T) {
	base := MixedBursty()
	fast := base.WithRate(base.Rate * 4)
	a, err := base.Generate(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fast.Generate(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if span, fastSpan := a[len(a)-1].ArrivalAt, b[len(b)-1].ArrivalAt; fastSpan >= span {
		t.Fatalf("4x rate did not compress the stream: %v vs %v", fastSpan, span)
	}

	cv := base.WithBurstCV(8)
	var sawGamma bool
	for i, c := range cv.Classes {
		if c.Arrival.Kind == ArrivalGamma {
			sawGamma = true
			if c.Arrival.CV != 8 {
				t.Fatalf("gamma class %s CV %.1f after override", c.Name, c.Arrival.CV)
			}
		} else if !reflect.DeepEqual(c.Arrival, base.Classes[i].Arrival) {
			t.Fatalf("non-gamma class %s mutated by WithBurstCV", c.Name)
		}
	}
	if !sawGamma {
		t.Fatal("mixed-bursty has no gamma class to override")
	}
	if base.Classes[1].Arrival.CV == 8 {
		t.Fatal("WithBurstCV mutated the receiver")
	}
}

// TestValidateRejectsMalformed covers the validation paths.
func TestValidateRejectsMalformed(t *testing.T) {
	good := ClientClass{
		Name: "c", SLO: SLOStandard, Share: 1,
		Arrival: Poisson(), Prompt: Deterministic(8), Output: Deterministic(8),
	}
	cases := []Mix{
		{Name: "no-rate", Rate: 0, Classes: []ClientClass{good}},
		{Name: "no-classes", Rate: 1},
		{Name: "bad-share", Rate: 1, Classes: []ClientClass{{Name: "c", Share: 0, Arrival: Poisson(), Prompt: Deterministic(8), Output: Deterministic(8)}}},
		{Name: "dup", Rate: 1, Classes: []ClientClass{good, good}},
		{Name: "bad-prompt", Rate: 1, Classes: []ClientClass{{Name: "c", Share: 1, Arrival: Poisson(), Prompt: Uniform(10, 5), Output: Deterministic(8)}}},
		{Name: "bad-arrival", Rate: 1, Classes: []ClientClass{{Name: "c", Share: 1, Arrival: Bursty(0), Prompt: Deterministic(8), Output: Deterministic(8)}}},
		{Name: "bad-onoff", Rate: 1, Classes: []ClientClass{{Name: "c", Share: 1, Arrival: OnOff(1.5, time.Second), Prompt: Deterministic(8), Output: Deterministic(8)}}},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %q validated", m.Name)
		}
		if _, err := m.Generate(10, 1); err == nil {
			t.Errorf("mix %q generated", m.Name)
		}
	}
	// n is an int64 so the row past MaxInt32 compiles where int is 32 bits;
	// there it wraps to a non-positive n, which is rejected too.
	for _, n := range []int64{0, -1, math.MaxInt32 + 1, math.MaxInt64} {
		_, err := ChatSessions().Generate(int(n), 1)
		if err == nil {
			t.Errorf("n=%d accepted", n)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "servegen: ") || strings.Contains(msg, "\n") {
			t.Errorf("n=%d: error %q is not one servegen: line", n, msg)
		}
	}
}

// TestValidateRejectsNonFinite: NaN passes every "<= 0" check and ±Inf
// every lower bound, so each float field is checked for them explicitly.
// A NaN or infinite lognormal parameter would clamp every draw to Min, and a
// NaN rate, share, CV or on-fraction would surface only as an out-of-order
// arrival; both are rejected up front with a one-line error.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(m *Mix)
	}{
		{"rate NaN", func(m *Mix) { m.Rate = nan }},
		{"rate +Inf", func(m *Mix) { m.Rate = inf }},
		{"share NaN", func(m *Mix) { m.Classes[0].Share = nan }},
		{"share +Inf", func(m *Mix) { m.Classes[0].Share = inf }},
		{"prompt mean NaN", func(m *Mix) { m.Classes[0].Prompt = Lognormal(nan, 1, 8, 512) }},
		{"prompt mean +Inf", func(m *Mix) { m.Classes[0].Prompt = Lognormal(inf, 1, 8, 512) }},
		{"output cv +Inf", func(m *Mix) { m.Classes[0].Output = Lognormal(100, inf, 4, 320) }},
		{"output cv NaN", func(m *Mix) { m.Classes[0].Output = Lognormal(100, nan, 4, 320) }},
		{"session think cv NaN", func(m *Mix) {
			p := *m.Classes[0].Sessions
			p.Think = Lognormal(1500, nan, 200, 6000)
			m.Classes[0].Sessions = &p
		}},
		{"gamma cv NaN", func(m *Mix) { m.Classes[1].Arrival = Bursty(nan) }},
		{"gamma cv +Inf", func(m *Mix) { m.Classes[1].Arrival = Bursty(inf) }},
		{"gamma cv 1e-300 (shape +Inf)", func(m *Mix) { m.Classes[1].Arrival = Bursty(1e-300) }},
		{"gamma cv 1e200 (shape 0)", func(m *Mix) { m.Classes[1].Arrival = Bursty(1e200) }},
		{"gamma cv 1e154 at a low rate (scale +Inf)", func(m *Mix) { m.Rate = 0.01; m.Classes[1].Arrival = Bursty(1e154) }},
		{"on-fraction NaN", func(m *Mix) { m.Classes[1].Arrival = OnOff(nan, time.Second) }},
	}
	for _, tc := range cases {
		m := ChatSessions()
		m.Classes = append([]ClientClass(nil), m.Classes...)
		tc.edit(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "servegen: ") || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q is not one servegen: line", tc.name, msg)
		}
		if _, err := m.Generate(10, 1); err == nil {
			t.Errorf("%s: generated", tc.name)
		}
	}
}

// TestSeedIndependencePerClass: per-class sub-streams are independently
// seeded, so a class keeps its draws when another class is appended.
func TestSeedIndependencePerClass(t *testing.T) {
	one := Mix{
		Name: "one",
		Rate: 2,
		Classes: []ClientClass{{
			Name: "a", SLO: SLOStandard, Share: 1,
			Arrival: Poisson(), Prompt: Uniform(8, 64), Output: Uniform(8, 64),
		}},
	}
	two := one
	two.Classes = append([]ClientClass{}, one.Classes...)
	two.Classes = append(two.Classes, ClientClass{
		Name: "b", SLO: SLOBatch, Share: 0.001,
		Arrival: Poisson(), Prompt: Deterministic(8), Output: Deterministic(8),
	})
	// Scale the aggregate so class a's share-normalized rate stays at its
	// solo value.
	two.Rate = one.Rate * 1.001

	ra, err := one.Generate(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := two.Generate(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Class a's first draws (lengths, not merged order) must be unchanged.
	var la, lb []int
	for _, r := range ra {
		if r.Class == "a" {
			la = append(la, r.PromptLen, r.OutputLen)
		}
	}
	for _, r := range rb {
		if r.Class == "a" {
			lb = append(lb, r.PromptLen, r.OutputLen)
		}
	}
	if len(lb) == 0 {
		t.Fatal("class a vanished")
	}
	for i := range lb {
		if i >= len(la) {
			break
		}
		if la[i] != lb[i] {
			t.Fatalf("class a draw %d changed when class b was appended", i)
		}
	}
}

// TestOnOffCycleBoundary drives the on-off on-time→wall-clock mapping
// directly across many cycle boundaries: arrivals must be non-decreasing,
// every arrival must land inside an on-window even when the cumulative
// on-time tau is at (or within float noise of) an exact multiple of the
// window length, and consecutive arrivals that straddle d cycle boundaries
// must be separated by at least the d off-windows between them.
func TestOnOffCycleBoundary(t *testing.T) {
	const onFraction = 0.2
	cycle := 4 * time.Second
	proc := OnOff(onFraction, cycle)
	// A rate high enough that several arrivals land in every on-window and
	// the stream crosses many boundaries.
	times := proc.arrivals(sim.NewRNG(17), 25, 4000)

	onLen := onFraction * cycle.Seconds()
	cycleS := cycle.Seconds()
	boundaries := 0
	for i, at := range times {
		if at < 0 {
			t.Fatalf("arrival %d negative: %v", i, at)
		}
		phase := math.Mod(at, cycleS)
		if phase > onLen*(1+1e-9) {
			t.Fatalf("arrival %d at %.9fs lands in the off-window (phase %.9fs, on-window %.9fs)",
				i, at, phase, onLen)
		}
		if i == 0 {
			continue
		}
		if at < times[i-1] {
			t.Fatalf("arrival %d at %.9fs before arrival %d at %.9fs", i, at, i-1, times[i-1])
		}
		if d := int(math.Floor(at/cycleS)) - int(math.Floor(times[i-1]/cycleS)); d >= 1 {
			boundaries++
			// Straddling d boundaries skips d off-windows of (1-on)·cycle
			// each; the two in-window offsets can eat at most one on-window.
			if gap, min := at-times[i-1], float64(d)*(cycleS-onLen)-onLen; gap < min {
				t.Fatalf("arrivals %d→%d straddle %d boundaries with gap %.9fs < %.9fs",
					i-1, i, d, gap, min)
			}
		}
	}
	if boundaries < 3 {
		t.Fatalf("stream crossed only %d cycle boundaries; boundary seam untested", boundaries)
	}
}

// classRNGs derives k class RNGs from seed the way Generate does.
func classRNGs(seed uint64, k int) []*sim.RNG {
	root := sim.NewRNG(seed)
	rngs := make([]*sim.RNG, k)
	for i := range rngs {
		rngs[i] = sim.NewRNG(root.Uint64())
	}
	return rngs
}

// referenceGenerate is the eager generator Generate replaced, kept as the
// test-only specification of the stream: every class draws its n arrivals,
// then referenceMerge materialises them.
func referenceGenerate(m Mix, n int, seed uint64) []serve.Request {
	var totalShare float64
	for _, c := range m.Classes {
		totalShare += c.Share
	}
	rngs := classRNGs(seed, len(m.Classes))
	times := make([][]float64, len(m.Classes))
	for k, c := range m.Classes {
		times[k] = c.Arrival.arrivals(rngs[k], m.Rate*c.Share/totalShare, n)
	}
	return referenceMerge(m.Classes, rngs, times, n)
}

// referenceMerge is merge's specification: materialise every class's
// requests (a session class: all its sessions' turns) class-major in one
// buffer, stable-sort it by arrival, keep the first n. The stable sort over
// the class-major buffer is where the total order (ArrivalAt, class index,
// session index, turn) comes from.
func referenceMerge(classes []ClientClass, rngs []*sim.RNG, times [][]float64, n int) []serve.Request {
	var all []serve.Request
	for k, c := range classes {
		rng := rngs[k]
		if c.Sessions != nil {
			for si, at := range times[k] {
				all = append(all, c.Sessions.expand(rng, c, si, at)...)
			}
			continue
		}
		for _, at := range times[k] {
			all = append(all, serve.Request{
				Class:     c.Name,
				SLO:       c.SLO,
				Priority:  SLOPriority(c.SLO),
				ArrivalAt: arrivalAt(at),
				PromptLen: c.Prompt.sample(rng),
				OutputLen: c.Output.sample(rng),
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ArrivalAt < all[j].ArrivalAt })
	all = all[:n]
	for i := range all {
		all[i].ID = i
	}
	return all
}

// sample is the reference's length draw: the eager generator's, which
// works a lognormal's μ and σ out again on every draw. Generate's samplers
// must draw the same values.
func (d LengthDist) sample(rng *sim.RNG) int {
	switch d.Kind {
	case DistDeterministic:
		return d.Value
	case DistUniform:
		return d.Min + rng.Intn(d.Max-d.Min+1)
	default: // lognormal, discretized by rounding
		sigma2 := math.Log(1 + float64(d.CV*d.CV))
		mu := math.Log(d.Mean) - float64(sigma2/2)
		v := int(math.Round(math.Exp(mu + float64(math.Sqrt(sigma2)*normal(rng)))))
		if v < d.Min {
			v = d.Min
		}
		if v > d.Max {
			v = d.Max
		}
		return v
	}
}

// expand is the reference's session expansion: the eager generator's, which
// returns each session's turns in a fresh slice and formats the session ID
// with fmt.Sprintf. classStream.expand must push the same turns.
func (p *SessionProfile) expand(rng *sim.RNG, c ClientClass, si int, startSec float64) []serve.Request {
	turns := p.Turns.sample(rng)
	if turns < 1 {
		turns = 1
	}
	sid := fmt.Sprintf("%s#%d", c.Name, si)
	at := startSec
	prompt := c.Prompt.sample(rng)
	out := make([]serve.Request, 0, turns)
	for t := 0; t < turns; t++ {
		output := c.Output.sample(rng)
		out = append(out, serve.Request{
			Class:     c.Name,
			SLO:       c.SLO,
			Priority:  SLOPriority(c.SLO),
			ArrivalAt: arrivalAt(at),
			PromptLen: prompt,
			OutputLen: output,
			SessionID: sid,
			Turn:      t,
		})
		if t == turns-1 {
			break
		}
		at += float64(p.Think.sample(rng)) / 1e3
		prompt += output + p.Delta.sample(rng)
		if p.MaxPrompt > 0 && prompt > p.MaxPrompt {
			prompt = p.MaxPrompt
		}
	}
	return out
}

// tieMix is a hand-built merge input that forces the merge's tie-breaks:
// classes with hand-set arrival offsets in seconds, one list per class.
type tieMix struct {
	name    string
	classes []ClientClass
	offsets [][]float64
}

// streams returns the mix's class streams, their RNGs derived from seed.
func (tm tieMix) streams(seed uint64) []classStream {
	rngs := classRNGs(seed, len(tm.classes))
	out := make([]classStream, len(tm.classes))
	for k := range tm.classes {
		out[k] = newClassStream(&tm.classes[k], *rngs[k], arrivalStream{times: tm.offsets[k], n: len(tm.offsets[k])})
	}
	return out
}

// size is how many requests the mix holds at least: one per offset, a
// session having at least one turn.
func (tm tieMix) size() int {
	n := 0
	for _, o := range tm.offsets {
		n += len(o)
	}
	return n
}

// tieMixes force equal arrival instants across classes, across sessions of
// one class and between a session's follow-up turn and another class's
// arrival.
func tieMixes() []tieMix {
	offsets := []float64{0, 1, 1, 2, 3, 3, 3, 5}
	ticker := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	session := &SessionProfile{Turns: Uniform(1, 4), Think: Deterministic(1000), Delta: Uniform(1, 8)}
	oneShot := func(name string) ClientClass {
		return ClientClass{Name: name, SLO: SLOStandard, Share: 1, Arrival: Poisson(), Prompt: Uniform(1, 64), Output: Uniform(1, 64)}
	}
	chat := oneShot("chat")
	chat.Sessions = session
	return []tieMix{
		// Two classes with identical offsets: every instant is a tie between
		// the classes, and the repeated offsets tie within each.
		{"twin-traces", []ClientClass{oneShot("a"), oneShot("b")}, [][]float64{offsets, offsets}},
		// A session class whose think time (1 s) equals the other class's
		// arrival gap: follow-up turns tie with the other class's arrivals
		// and with later sessions' starts.
		{"think-equals-gap", []ClientClass{chat, oneShot("ticker")}, [][]float64{offsets, ticker}},
		// The session class second, so its ties lose to the one-shot class.
		{"sessions-last", []ClientClass{oneShot("ticker"), chat}, [][]float64{ticker[:4], offsets}},
		{"one-session-class", []ClientClass{chat}, [][]float64{offsets}},
	}
}

// requireEqual fails t with the first request where got and want differ.
func requireEqual(t *testing.T, got, want []serve.Request, what string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want {
		if i < len(got) && got[i] != want[i] {
			t.Fatalf("%s: request %d\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: lengths %d/%d", what, len(got), len(want))
}

// TestGenerateMatchesReference is the acceptance test of the lazy merge:
// Generate must be reflect.DeepEqual to the eager materialise-and-stable-sort
// reference over every predefined mix and two hand-built ones, sizes from 1
// past the point where one class alone could fill the stream, several seeds
// and rates; merge must equal it on the tie-forcing mixes at every size.
func TestGenerateMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 7, 100, 5000, 60000}
	seeds := []uint64{0, 1, 7, 42, 1 << 40, math.MaxUint64}
	if testing.Short() {
		sizes, seeds = sizes[:5], seeds[:3]
	}
	mixes := append(Mixes(), ChatSessions(),
		Mix{Name: "one-class", Rate: 3, Classes: []ClientClass{
			{Name: "only", SLO: SLOStandard, Share: 1, Arrival: Bursty(4), Prompt: Uniform(1, 64), Output: Uniform(1, 64)},
		}},
		// A 1000:1 rate split: the heavy class alone contributes nearly all
		// of the first n, the light one only a handful.
		Mix{Name: "lopsided", Rate: 50, Classes: []ClientClass{
			{Name: "heavy", SLO: SLOBatch, Share: 1000, Arrival: OnOff(0.3, 2*time.Second), Prompt: Lognormal(64, 1, 1, 512), Output: Uniform(1, 8)},
			{Name: "light", SLO: SLOInteractive, Share: 1, Arrival: Poisson(), Prompt: Deterministic(8), Output: Deterministic(8)},
		}},
		// Every class draws one value per arrival, so every class reads its
		// arrivals lazily and draws its lengths from a skipped RNG.
		Mix{Name: "one-draw-only", Rate: 6, Classes: []ClientClass{
			{Name: "steady", SLO: SLOInteractive, Share: 3, Arrival: Poisson(), Prompt: Lognormal(120, 1, 8, 512), Output: Lognormal(90, 0.8, 4, 256)},
			{Name: "waves", SLO: SLOBatch, Share: 2, Arrival: OnOff(0.2, 5*time.Second), Prompt: Uniform(64, 512), Output: Lognormal(40, 0.5, 4, 128)},
			{Name: "trickle", SLO: SLOStandard, Share: 0.5, Arrival: OnOff(0.7, 700*time.Millisecond), Prompt: Deterministic(32), Output: Uniform(1, 32)},
		}},
		// The ghost class serves nothing in the first n, yet draws its
		// head's lengths from its skipped RNG, after the busy class's.
		Mix{Name: "ghost-share", Rate: 4, Classes: []ClientClass{
			{Name: "busy", SLO: SLOStandard, Share: 1, Arrival: Bursty(2), Prompt: Uniform(1, 64), Output: Uniform(1, 64)},
			{Name: "ghost", SLO: SLOBatch, Share: 1e-9, Arrival: Poisson(), Prompt: Lognormal(64, 1, 1, 512), Output: Uniform(1, 8)},
		}},
		glacialSessions(),
		// A Poisson session class at a tiny share: a few sessions at the
		// larger sizes, none at the smaller ones.
		Mix{Name: "rare-sessions", Rate: 4, Classes: []ClientClass{
			{Name: "bulk", SLO: SLOBatch, Share: 1, Arrival: OnOff(0.5, 3*time.Second), Prompt: Uniform(1, 64), Output: Uniform(1, 64)},
			{Name: "chat", SLO: SLOInteractive, Share: 0.002, Arrival: Poisson(), Prompt: Lognormal(96, 0.8, 8, 256), Output: Lognormal(80, 0.8, 4, 160),
				Sessions: &SessionProfile{Turns: Uniform(2, 5), Think: Lognormal(1500, 0.6, 200, 6000), Delta: Lognormal(48, 0.8, 4, 128), MaxPrompt: 640}},
		}},
	)
	for _, base := range mixes {
		t.Run(base.Name, func(t *testing.T) {
			t.Parallel()
			for _, rateScale := range []float64{1, 8, 128} {
				mix := base.WithRate(base.Rate * rateScale)
				for _, n := range sizes {
					for _, seed := range seeds {
						got, err := mix.Generate(n, seed)
						if err != nil {
							t.Fatalf("rate×%g n=%d seed=%d: %v", rateScale, n, seed, err)
						}
						requireEqual(t, got, referenceGenerate(mix, n, seed), fmt.Sprintf("rate×%g n=%d seed=%d", rateScale, n, seed))
					}
				}
			}
		})
	}
	for _, tm := range tieMixes() {
		t.Run(tm.name, func(t *testing.T) {
			for n := 1; n <= tm.size(); n++ {
				for _, seed := range seeds {
					got, err := merge(tm.streams(seed), n)
					if err != nil {
						t.Fatalf("n=%d seed=%d: %v", n, seed, err)
					}
					requireEqual(t, got, referenceMerge(tm.classes, classRNGs(seed, len(tm.classes)), tm.offsets, n), fmt.Sprintf("n=%d seed=%d", n, seed))
				}
			}
		})
	}
}

// TestTieMixesTie keeps the tie-forcing mixes honest: each multi-class one
// must actually produce equal arrival instants across classes.
func TestTieMixesTie(t *testing.T) {
	for _, tm := range tieMixes() {
		if len(tm.classes) < 2 {
			continue
		}
		reqs, err := merge(tm.streams(1), tm.size())
		if err != nil {
			t.Fatal(err)
		}
		ties := 0
		for i := 1; i < len(reqs); i++ {
			if reqs[i].ArrivalAt == reqs[i-1].ArrivalAt && reqs[i].Class != reqs[i-1].Class {
				ties++
			}
		}
		if ties == 0 {
			t.Errorf("%s: no cross-class tie in %d requests", tm.name, len(reqs))
		}
	}
}

// TestArrivalsNonDecreasing is the invariant the merge stands on, over all
// three arrival kinds: a class's drawn arrival times never step backwards.
func TestArrivalsNonDecreasing(t *testing.T) {
	procs := []ArrivalProcess{
		Poisson(), Bursty(0.3), Bursty(6),
		OnOff(0.25, 20*time.Second), OnOff(0.01, 100*time.Millisecond), OnOff(1, time.Second), OnOff(1.0/3, 3*time.Second),
	}
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, p := range procs {
		for _, rate := range []float64{0.01, 1, 37.5, 4096} {
			for seed := uint64(0); seed < 8; seed++ {
				times := p.arrivals(sim.NewRNG(seed), rate, n)
				if i := firstDisorder(times); i >= 0 {
					t.Fatalf("%s rate %g seed %d: arrival %d at %v after %v", p.Describe(), rate, seed, i, times[i], times[i-1])
				}
			}
		}
	}
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

// TestGenerateRejectsDisorderedArrivals: arrival times the merge cannot
// order are an error naming class and index, never a mis-ordered stream.
// No arrival process draws them, so the test feeds them to merge directly.
func TestGenerateRejectsDisorderedArrivals(t *testing.T) {
	if i := firstDisorder([]float64{0, 1, 1, 0.5, 2}); i != 3 {
		t.Fatalf("firstDisorder = %d, want 3", i)
	}
	mix := MixedBursty()
	tm := tieMix{classes: mix.Classes[:2], offsets: [][]float64{{0, 1, 2}, {0, math.NaN(), 2}}}
	_, err := merge(tm.streams(1), 6)
	want := `servegen: class "agent" arrival 1 at NaNs is out of order`
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}

	// A lazily drawn stream is checked as the merge reads it. An on-fraction
	// above 1 (which Validate rejects) makes the on-off fold step back at its
	// first cycle boundary; the error must name the arrival and times the
	// eager check over the same draws would have.
	class := ClientClass{Name: "overlap", SLO: SLOBatch, Share: 1, Arrival: OnOff(1.5, time.Second), Prompt: Uniform(1, 64), Output: Uniform(1, 64)}
	const n = 40
	times := class.Arrival.arrivals(classRNGs(3, 1)[0], 4, n)
	i := firstDisorder(times)
	if i < 3 || i >= n-2 {
		t.Fatalf("disorder at arrival %d, want one inside the served prefix", i)
	}
	lazy := func() []classStream {
		rng := classRNGs(3, 1)[0]
		arr := class.Arrival.stream(rng, 4, n)
		if arr.times != nil {
			t.Fatal("on-off arrivals drawn up front")
		}
		return []classStream{newClassStream(&class, *rng, arr)}
	}
	_, err = merge(lazy(), n)
	want = fmt.Sprintf("servegen: class %q arrival %d at %gs is out of order (after %gs)", class.Name, i, times[i], times[i-1])
	if err == nil || err.Error() != want {
		t.Fatalf("lazy err = %v, want %q", err, want)
	}
	// A stream cut before the merge reads the disordered arrival is served:
	// unread arrivals never reach the stream.
	if _, err := merge(lazy(), 1); err != nil {
		t.Fatalf("cut before the disorder: %v", err)
	}
}

// TestGenerateAllocationBudget: generation allocates the output, the Gamma
// class's n arrival times and little else — an O(classes × n) request
// buffer cannot come back unnoticed (the eager generator read 1589
// B/request here).
func TestGenerateAllocationBudget(t *testing.T) {
	const n = 100_000
	mix := MixedBursty()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reqs, err := mix.Generate(n, 7)
	runtime.ReadMemStats(&after)
	if err != nil || len(reqs) != n {
		t.Fatal(len(reqs), err)
	}
	if perReq := float64(after.TotalAlloc-before.TotalAlloc) / n; perReq > 160 {
		t.Fatalf("Generate allocated %.0f B/request, budget 160", perReq)
	}
}

// TestGenerateOneDrawMixBudget: a mix whose classes all draw one value per
// arrival (Poisson, on-off) holds no arrival times, so generation allocates
// the output and a constant. Drawing each class's n arrivals up front would
// add 8 B × n × classes.
func TestGenerateOneDrawMixBudget(t *testing.T) {
	const n = 100_000
	const slack = 64 << 10
	mix := BatchHeavy()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reqs, err := mix.Generate(n, 7)
	runtime.ReadMemStats(&after)
	if err != nil || len(reqs) != n {
		t.Fatal(len(reqs), err)
	}
	budget := n*uint64(unsafe.Sizeof(serve.Request{})) + slack
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("Generate allocated %d B, budget %d (n × sizeof(Request) + %d)", got, budget, slack)
	}
}

// TestSessionTurnSize: a pending session turn is what its request carries
// beside the class's constants and its key, not a whole serve.Request (104
// bytes): the heap moves these records on every sift.
func TestSessionTurnSize(t *testing.T) {
	if size := unsafe.Sizeof(sessionTurn{}); size > 40 {
		t.Fatalf("sessionTurn is %d bytes, budget 40", size)
	}
}

// glacialSessions is one session class so slow that its turns pass the
// virtual clock's range within a few hundred requests: the saturated turns
// all arrive at its end, and their order — session by session, turn by
// turn — rests on the turn key's tie-break alone.
func glacialSessions() Mix {
	return Mix{Name: "glacial-sessions", Rate: 1e-8, Classes: []ClientClass{
		{Name: "glacial", SLO: SLOInteractive, Share: 1, Arrival: Poisson(), Prompt: Uniform(1, 64), Output: Uniform(1, 64),
			Sessions: &SessionProfile{Turns: Uniform(2, 5), Think: Lognormal(1500, 0.6, 200, 6000), Delta: Uniform(1, 8), MaxPrompt: 640}},
	}}
}

// TestArrivalsPastClockRange: a class slow enough to draw arrivals past the
// virtual clock's range (≈ 292 years) keeps them at its end, in order,
// instead of wrapping them to negative instants. The glacial session mix
// must saturate follow-up turns, so that its reference comparison tests the
// turn key's tie-break.
func TestArrivalsPastClockRange(t *testing.T) {
	sessions, err := glacialSessions().Generate(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	saturated := 0
	for _, r := range sessions {
		if r.ArrivalAt == math.MaxInt64 && r.Turn > 0 {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("glacial-sessions saturates no follow-up turn at n=500")
	}

	mix := Mix{Name: "glacial", Rate: 1e-8, Classes: []ClientClass{
		{Name: "only", SLO: SLOBatch, Share: 1, Arrival: Poisson(), Prompt: Deterministic(8), Output: Deterministic(8)},
	}}
	reqs, err := mix.Generate(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].ArrivalAt < reqs[i-1].ArrivalAt {
			t.Fatalf("request %d at %v before %v", i, reqs[i].ArrivalAt, reqs[i-1].ArrivalAt)
		}
	}
	if last := reqs[len(reqs)-1].ArrivalAt; last != math.MaxInt64 {
		t.Fatalf("last arrival %v, want the clock's end", last)
	}
}
