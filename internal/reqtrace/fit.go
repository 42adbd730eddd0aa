package reqtrace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/servegen"
)

// Fitting thresholds. Interarrival CV within PoissonCVBand of 1 fits the
// memoryless process; a class whose arrivals occupy at most OnOffDutyMax of
// the trace horizon in at least two separated bursts fits an on-off cycle.
const (
	poissonCVBand = 0.25
	onOffDutyMax  = 0.55
	onOffBins     = 48
)

// Fit recovers a servegen.Mix from a trace: per-class rate shares from
// request counts, arrival processes from interarrival statistics (Poisson
// within poissonCVBand of CV 1, Gamma with the observed CV otherwise, on-off
// with the observed duty cycle when arrivals bunch into separated bursts)
// and token-length distributions from sample moments (deterministic when
// degenerate, lognormal with the observed mean/CV clamped to the observed
// range otherwise). The fitted mix is a parametric model, not a copy: the
// quality of the fit is measured by CompareTraces, never assumed.
func Fit(t Trace) (servegen.Mix, error) {
	if err := t.Validate(); err != nil {
		return servegen.Mix{}, err
	}
	span := t.Span().Seconds()
	if span <= 0 {
		return servegen.Mix{}, fmt.Errorf("reqtrace: trace span is zero — cannot estimate rates")
	}
	byClass := splitClasses(t)
	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)

	m := servegen.Mix{
		Name: "fitted",
		Rate: float64(len(t.Records)) / span,
	}
	for _, name := range names {
		c := byClass[name]
		m.Classes = append(m.Classes, servegen.ClientClass{
			Name:    name,
			SLO:     c.slo,
			Share:   float64(len(c.arrivals)) / float64(len(t.Records)),
			Arrival: fitArrival(c.arrivals, span),
			Prompt:  fitLength(c.prompts),
			Output:  fitLength(c.outputs),
		})
	}
	if err := m.Validate(); err != nil {
		return servegen.Mix{}, fmt.Errorf("reqtrace: fitted mix invalid: %w", err)
	}
	return m, nil
}

// classSamples are one class's raw observations.
type classSamples struct {
	slo      string
	arrivals []float64 // seconds
	prompts  []int
	outputs  []int
}

func splitClasses(t Trace) map[string]*classSamples {
	byClass := map[string]*classSamples{}
	for _, r := range t.Records {
		name := r.Class
		if name == "" {
			name = "default"
		}
		c := byClass[name]
		if c == nil {
			c = &classSamples{slo: r.SLO}
			byClass[name] = c
		}
		c.arrivals = append(c.arrivals, r.ArrivalAt.Seconds())
		c.prompts = append(c.prompts, r.PromptLen)
		c.outputs = append(c.outputs, r.OutputLen)
	}
	return byClass
}

// fitArrival picks the arrival family for one class's arrival offsets over
// the trace horizon.
func fitArrival(times []float64, span float64) servegen.ArrivalProcess {
	if len(times) < 3 {
		return servegen.Poisson() // too few gaps to estimate anything
	}
	gaps := make([]float64, len(times)-1)
	for i := range gaps {
		gaps[i] = times[i+1] - times[i]
	}
	mean, cv := meanCV(gaps)
	if mean <= 0 {
		return servegen.Poisson()
	}

	// On-off: bin the horizon and look for separated bursts. The duty
	// cycle is the occupied-bin fraction, the cycle length the horizon per
	// burst — both recover the generator's parameters when the horizon
	// covers a few cycles.
	//
	// known-limitation: this check runs before the CV-based families, and
	// it keys on bin occupancy, not on the gap distribution's shape. An
	// extreme-CV Gamma process on a short horizon — a handful of dense
	// clumps separated by long silences, exactly what CV ≳ 4 produces
	// over a few hundred requests — occupies ≤ onOffDutyMax of the bins
	// in ≥ 2 bursts and therefore fits as on-off, not Gamma. Longer
	// horizons smear Gamma clumps across more bins and escape the trap.
	// TestFitExtremeCVGammaShortHorizonFitsAsOnOff pins the current
	// behavior; a future fix that separates heavy-tailed gaps from a true
	// duty cycle flips that test's expected arrival family and nothing
	// else.
	bins := onOffBins
	if bins > len(times) {
		bins = len(times)
	}
	occupied := make([]bool, bins)
	for _, at := range times {
		b := int(at / span * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		occupied[b] = true
	}
	on, bursts := 0, 0
	for i, o := range occupied {
		if o {
			on++
			if i == 0 || !occupied[i-1] {
				bursts++
			}
		}
	}
	if duty := float64(on) / float64(bins); duty <= onOffDutyMax && bursts >= 2 {
		cycle := time.Duration(span / float64(bursts) * float64(time.Second))
		return servegen.OnOff(duty, cycle)
	}

	if cv <= 0 || math.Abs(cv-1) <= poissonCVBand {
		return servegen.Poisson()
	}
	return servegen.Bursty(cv)
}

// fitLength fits a token-length distribution from its samples.
func fitLength(samples []int) servegen.LengthDist {
	min, max := samples[0], samples[0]
	fs := make([]float64, len(samples))
	for i, v := range samples {
		fs[i] = float64(v)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		return servegen.Deterministic(min)
	}
	mean, cv := meanCV(fs)
	return servegen.Lognormal(mean, cv, min, max)
}

// meanCV returns the sample mean and coefficient of variation.
func meanCV(xs []float64) (mean, cv float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += float64(d * d)
	}
	std := math.Sqrt(ss / float64(len(xs)))
	return mean, std / mean
}

// ClassFitError measures how one class of a synthetic stream generated from
// a mix deviates from the same class of a reference trace. Relative errors
// are |synthetic − observed| / observed; KS distances are two-sample
// Kolmogorov–Smirnov statistics in [0, 1].
type ClassFitError struct {
	Class string
	SLO   string

	TraceRequests int // class requests in the reference trace
	SynthRequests int // class requests in the generated stream

	RateErr       float64 // mean arrival rate
	PromptMeanErr float64 // mean prompt tokens
	OutputMeanErr float64 // mean output tokens

	ArrivalKS float64 // interarrival-gap distributions
	PromptKS  float64 // prompt-length distributions
	OutputKS  float64 // output-length distributions
}

// FitReport is the fit-error report of one mix against a reference trace:
// aggregate moment-match errors plus the per-class breakdown, classes
// sorted by name. A class present on only one side reports relative errors
// of 1 with zero requests on the missing side.
type FitReport struct {
	// RateErr, PromptMeanErr and OutputMeanErr are the aggregate
	// moment-match errors over the whole stream.
	RateErr       float64
	PromptMeanErr float64
	OutputMeanErr float64

	Classes []ClassFitError
}

// Class returns the named class's row, or nil.
func (r FitReport) Class(name string) *ClassFitError {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// CompareTraces measures how the synth trace deviates from the reference
// trace t: moment matches (rate, mean lengths) and per-class KS distances.
// It is the honesty check behind Fit — compare a stream generated from the
// fitted mix to know how much to trust the calibration, or one from a
// hand-picked mix to see what calibration would buy.
func CompareTraces(t, synth Trace) FitReport {
	obsStats, synStats := t.Stats(), synth.Stats()
	rep := FitReport{
		RateErr:       relErr(synStats.RatePerSec, obsStats.RatePerSec),
		PromptMeanErr: relErr(synStats.MeanPrompt, obsStats.MeanPrompt),
		OutputMeanErr: relErr(synStats.MeanOutput, obsStats.MeanOutput),
	}

	obs, syn := splitClasses(t), splitClasses(synth)
	names := map[string]bool{}
	for name := range obs {
		names[name] = true
	}
	for name := range syn {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		o, s := obs[name], syn[name]
		ce := ClassFitError{Class: name}
		switch {
		case o == nil: // invented by the mix
			ce.SLO = s.slo
			ce.SynthRequests = len(s.arrivals)
			ce.RateErr, ce.PromptMeanErr, ce.OutputMeanErr = 1, 1, 1
			ce.ArrivalKS, ce.PromptKS, ce.OutputKS = 1, 1, 1
		case s == nil: // dropped by the mix
			ce.SLO = o.slo
			ce.TraceRequests = len(o.arrivals)
			ce.RateErr, ce.PromptMeanErr, ce.OutputMeanErr = 1, 1, 1
			ce.ArrivalKS, ce.PromptKS, ce.OutputKS = 1, 1, 1
		default:
			ce.SLO = o.slo
			ce.TraceRequests = len(o.arrivals)
			ce.SynthRequests = len(s.arrivals)
			ce.RateErr = relErr(
				rate(s.arrivals, synth.Span().Seconds()),
				rate(o.arrivals, t.Span().Seconds()))
			ce.PromptMeanErr = relErr(meanInt(s.prompts), meanInt(o.prompts))
			ce.OutputMeanErr = relErr(meanInt(s.outputs), meanInt(o.outputs))
			ce.ArrivalKS = ksFloats(gapsOf(o.arrivals), gapsOf(s.arrivals))
			ce.PromptKS = ksInts(o.prompts, s.prompts)
			ce.OutputKS = ksInts(o.outputs, s.outputs)
		}
		rep.Classes = append(rep.Classes, ce)
	}
	return rep
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / want
}

func rate(times []float64, span float64) float64 {
	if span <= 0 {
		return 0
	}
	return float64(len(times)) / span
}

func meanInt(xs []int) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func gapsOf(times []float64) []float64 {
	if len(times) < 2 {
		return nil
	}
	gaps := make([]float64, len(times)-1)
	for i := range gaps {
		gaps[i] = times[i+1] - times[i]
	}
	return gaps
}

// ksInts is the two-sample KS distance over integer samples.
func ksInts(a, b []int) float64 {
	fa := make([]float64, len(a))
	for i, v := range a {
		fa[i] = float64(v)
	}
	fb := make([]float64, len(b))
	for i, v := range b {
		fb[i] = float64(v)
	}
	return ksFloats(fa, fb)
}

// ksFloats is the two-sample Kolmogorov–Smirnov statistic: the maximum gap
// between the two empirical CDFs. Inputs are copied before sorting. An
// empty side yields 1 (maximal mismatch) unless both are empty.
func ksFloats(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return 1
	}
	a = append([]float64(nil), a...)
	b = append([]float64(nil), b...)
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	var d float64
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}
