package reqtrace

import (
	"fmt"
	"math"
	"slices"
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
// range otherwise). It reads its classes, shares and rate from the trace's
// Stats. The fitted mix is a parametric model, not a copy: the quality of
// the fit is measured by CompareTraces, never assumed.
func Fit(t Trace) (servegen.Mix, error) {
	if err := t.Validate(); err != nil {
		return servegen.Mix{}, err
	}
	s := t.Stats()
	span := s.Span.Seconds()
	if span <= 0 {
		return servegen.Mix{}, fmt.Errorf("reqtrace: trace span is zero — cannot estimate rates")
	}
	m := servegen.Mix{Name: "fitted", Rate: s.RatePerSec}
	for _, c := range s.Classes {
		m.Classes = append(m.Classes, servegen.ClientClass{
			Name:    c.Class,
			SLO:     c.SLO,
			Share:   c.Share,
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

	RateErr       float64 // mean arrival rate
	PromptMeanErr float64 // mean prompt tokens
	OutputMeanErr float64 // mean output tokens

	PromptKS float64 // prompt-length distributions
	OutputKS float64 // output-length distributions
}

// FitReport is the fit-error report of one mix against a reference trace:
// aggregate moment-match errors plus the per-class breakdown, classes
// sorted by name. A class present on only one side keeps that side's SLO
// and reports every error as 1.
type FitReport struct {
	// RateErr, PromptMeanErr and OutputMeanErr are the aggregate
	// moment-match errors over the whole stream.
	RateErr       float64
	PromptMeanErr float64
	OutputMeanErr float64

	Classes []ClassFitError
}

// CompareTraces measures how the synth trace deviates from the reference
// trace t: moment matches (rate, mean lengths) and per-class KS distances.
// It is the honesty check behind Fit — compare a stream generated from the
// fitted mix to know how much to trust the calibration, or one from a
// hand-picked mix to see what calibration would buy. It walks the two
// traces' Stats classes, both sorted by name, side by side; a shared class
// takes the reference trace's SLO.
func CompareTraces(t, synth Trace) FitReport {
	obs, syn := t.Stats(), synth.Stats()
	rep := FitReport{
		RateErr:       relErr(syn.RatePerSec, obs.RatePerSec),
		PromptMeanErr: relErr(syn.MeanPrompt, obs.MeanPrompt),
		OutputMeanErr: relErr(syn.MeanOutput, obs.MeanOutput),
	}
	oneSided := func(c ClassStats) ClassFitError {
		return ClassFitError{Class: c.Class, SLO: c.SLO,
			RateErr: 1, PromptMeanErr: 1, OutputMeanErr: 1, PromptKS: 1, OutputKS: 1}
	}
	o, s := obs.Classes, syn.Classes
	for len(o) > 0 || len(s) > 0 {
		switch {
		case len(s) == 0 || len(o) > 0 && o[0].Class < s[0].Class: // dropped by the mix
			rep.Classes = append(rep.Classes, oneSided(o[0]))
			o = o[1:]
		case len(o) == 0 || s[0].Class < o[0].Class: // invented by the mix
			rep.Classes = append(rep.Classes, oneSided(s[0]))
			s = s[1:]
		default:
			rep.Classes = append(rep.Classes, ClassFitError{
				Class:         o[0].Class,
				SLO:           o[0].SLO,
				RateErr:       relErr(s[0].RatePerSec, o[0].RatePerSec),
				PromptMeanErr: relErr(s[0].MeanPrompt, o[0].MeanPrompt),
				OutputMeanErr: relErr(s[0].MeanOutput, o[0].MeanOutput),
				PromptKS:      ks(o[0].prompts, s[0].prompts),
				OutputKS:      ks(o[0].outputs, s[0].outputs),
			})
			o, s = o[1:], s[1:]
		}
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

// ks is the two-sample Kolmogorov–Smirnov statistic of two non-empty
// samples: the maximum gap between their empirical CDFs. It sorts both in
// place.
func ks(a, b []int) float64 {
	slices.Sort(a)
	slices.Sort(b)
	var i, j int
	var d float64
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
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
