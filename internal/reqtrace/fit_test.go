package reqtrace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// fitN is the fitting horizon: enough samples that moment estimates settle.
func fitN(t *testing.T) int {
	if testing.Short() {
		return 200
	}
	return 600
}

// TestFitRecoversCanonicalMixes: fitting a captured canonical stream
// recovers the class roster, shares, aggregate rate and length means
// within tolerance — the calibration loop's basic soundness.
func TestFitRecoversCanonicalMixes(t *testing.T) {
	n := fitN(t)
	for _, mix := range servegen.Mixes() {
		t.Run(mix.Name, func(t *testing.T) {
			reqs, err := mix.Generate(n, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr := FromRequests(reqs)
			m, err := Fit(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Classes) != len(mix.Classes) {
				t.Fatalf("fitted %d classes, mix has %d", len(m.Classes), len(mix.Classes))
			}
			stats := tr.Stats()
			if e := relErr(m.Rate, stats.RatePerSec); e > 1e-9 {
				t.Fatalf("fitted rate %g != observed %g", m.Rate, stats.RatePerSec)
			}
			var share float64
			for _, c := range m.Classes {
				share += c.Share
				cs := findClass(stats, c.Name)
				if cs == nil {
					t.Fatalf("fitted class %q not in the trace", c.Name)
				}
				if c.SLO != cs.SLO {
					t.Fatalf("class %s SLO %q, trace has %q", c.Name, c.SLO, cs.SLO)
				}
				if e := relErr(c.Share, cs.Share); e > 1e-9 {
					t.Fatalf("class %s share %g, trace share %g", c.Name, c.Share, cs.Share)
				}
				// The fitted length distributions match the observed means
				// within moment-fit tolerance.
				if e := relErr(c.Prompt.MeanTokens(), cs.MeanPrompt); e > 0.30 {
					t.Errorf("class %s prompt mean off by %.0f%%", c.Name, 100*e)
				}
				if e := relErr(c.Output.MeanTokens(), cs.MeanOutput); e > 0.30 {
					t.Errorf("class %s output mean off by %.0f%%", c.Name, 100*e)
				}
			}
			if share < 0.999 || share > 1.001 {
				t.Fatalf("fitted shares sum to %g", share)
			}
		})
	}
}

// TestFitErrorWithinTolerance is the acceptance bound: a stream regenerated
// from the fitted mix matches the reference trace within 15% on mean rate
// and 25% on mean prompt/output length.
func TestFitErrorWithinTolerance(t *testing.T) {
	n := fitN(t)
	for _, mix := range servegen.Mixes() {
		t.Run(mix.Name, func(t *testing.T) {
			reqs, err := mix.Generate(n, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr := FromRequests(reqs)
			m, err := Fit(tr)
			if err != nil {
				t.Fatal(err)
			}
			synth, err := m.Generate(n, 11)
			if err != nil {
				t.Fatal(err)
			}
			rep := CompareTraces(tr, FromRequests(synth))
			if rep.RateErr > 0.15 {
				t.Errorf("aggregate rate error %.1f%% above 15%%", 100*rep.RateErr)
			}
			if rep.PromptMeanErr > 0.25 || rep.OutputMeanErr > 0.25 {
				t.Errorf("aggregate length error prompt %.1f%% output %.1f%% above 25%%",
					100*rep.PromptMeanErr, 100*rep.OutputMeanErr)
			}
			if len(rep.Classes) != len(mix.Classes) {
				t.Fatalf("fit report covers %d classes, mix has %d", len(rep.Classes), len(mix.Classes))
			}
			for _, ce := range rep.Classes {
				if ce.TraceRequests == 0 || ce.SynthRequests == 0 {
					t.Errorf("class %s missing on one side: %d/%d", ce.Class, ce.TraceRequests, ce.SynthRequests)
				}
				if ce.PromptKS < 0 || ce.PromptKS > 1 || ce.OutputKS < 0 || ce.OutputKS > 1 {
					t.Errorf("class %s KS outside [0,1]: %+v", ce.Class, ce)
				}
			}
		})
	}
}

// TestFitArrivalFamilies pins the per-family recovery on single-class
// streams: Poisson stays Poisson, a CV-2.5 Gamma is recovered as Gamma with
// a CV in the right range, and a 25%-duty on-off cycle is detected with its
// duty and cycle in range.
func TestFitArrivalFamilies(t *testing.T) {
	n := fitN(t)
	single := func(arr servegen.ArrivalProcess) servegen.Mix {
		return servegen.Mix{
			Name: "single", Rate: 5,
			Classes: []servegen.ClientClass{{
				Name: "c", SLO: servegen.SLOStandard, Share: 1,
				Arrival: arr,
				Prompt:  servegen.Uniform(32, 256),
				Output:  servegen.Uniform(16, 128),
			}},
		}
	}
	fit1 := func(t *testing.T, arr servegen.ArrivalProcess) servegen.ArrivalProcess {
		t.Helper()
		reqs, err := single(arr).Generate(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Fit(FromRequests(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return m.Classes[0].Arrival
	}

	if got := fit1(t, servegen.Poisson()); got.Kind != servegen.ArrivalPoisson {
		t.Errorf("poisson fitted as %+v", got)
	}
	if got := fit1(t, servegen.Bursty(2.5)); got.Kind != servegen.ArrivalGamma {
		t.Errorf("gamma cv=2.5 fitted as %+v", got)
	} else if got.CV < 1.5 || got.CV > 4 {
		t.Errorf("gamma cv=2.5 fitted with cv %.2f", got.CV)
	}
	if got := fit1(t, servegen.OnOff(0.25, 20*time.Second)); got.Kind != servegen.ArrivalOnOff {
		t.Errorf("on-off fitted as %+v", got)
	} else {
		if got.OnFraction < 0.1 || got.OnFraction > onOffDutyMax {
			t.Errorf("on-off duty 0.25 fitted as %.2f", got.OnFraction)
		}
		if got.Cycle < 10*time.Second || got.Cycle > 40*time.Second {
			t.Errorf("on-off cycle 20s fitted as %v", got.Cycle)
		}
	}
}

// TestFitDegenerate: identical lengths fit a deterministic distribution;
// zero-span and empty traces fail with clear errors.
func TestFitDegenerate(t *testing.T) {
	tr := Trace{Records: []serve.Request{
		{ArrivalAt: 0, PromptLen: 64, OutputLen: 8},
		{ArrivalAt: time.Second, PromptLen: 64, OutputLen: 8},
		{ArrivalAt: 2 * time.Second, PromptLen: 64, OutputLen: 8},
	}}
	m, err := Fit(tr)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Classes[0]
	if c.Name != "default" {
		t.Fatalf("empty class fitted as %q", c.Name)
	}
	if c.Prompt.Kind != servegen.DistDeterministic || c.Prompt.Value != 64 {
		t.Fatalf("identical prompts fitted as %+v", c.Prompt)
	}
	if c.Output.Kind != servegen.DistDeterministic || c.Output.Value != 8 {
		t.Fatalf("identical outputs fitted as %+v", c.Output)
	}

	if _, err := Fit(Trace{}); err == nil {
		t.Error("empty trace fitted")
	}
	zero := Trace{Records: []serve.Request{{PromptLen: 1, OutputLen: 1}}}
	if _, err := Fit(zero); err == nil || !strings.Contains(err.Error(), "span") {
		t.Errorf("zero-span trace: %v", err)
	}
}

func findClass(s Stats, name string) *ClassStats {
	for i := range s.Classes {
		if s.Classes[i].Class == name {
			return &s.Classes[i]
		}
	}
	return nil
}

// TestFitExtremeCVGammaShortHorizonFitsAsOnOff pins the known-limitation
// documented in fitArrival: an extreme-CV Gamma (bursty) arrival stream on
// a short horizon clumps into few dense bursts, passes the on-off duty
// cycle screen — which runs before the CV families — and fits as on-off
// rather than Gamma. This is the currently accepted misread (see
// ROADMAP's real-trace item); when fitArrival learns to tell heavy-tailed
// gaps from a duty cycle, flip the expected Kind here to ArrivalGamma.
func TestFitExtremeCVGammaShortHorizonFitsAsOnOff(t *testing.T) {
	mix := servegen.Mix{
		Name: "extreme", Rate: 5,
		Classes: []servegen.ClientClass{{
			Name: "c", SLO: servegen.SLOStandard, Share: 1,
			Arrival: servegen.Bursty(4.0),
			Prompt:  servegen.Uniform(32, 256),
			Output:  servegen.Uniform(16, 128),
		}},
	}
	// Short horizon: a few hundred requests, as in the trap's statement.
	reqs, err := mix.Generate(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(FromRequests(reqs))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Classes[0].Arrival
	if got.Kind != servegen.ArrivalOnOff {
		t.Fatalf("extreme-CV Gamma on a short horizon fitted as %+v — "+
			"if fitArrival was fixed to recognize heavy-tailed gaps, update "+
			"this regression test and the known-limitation comment", got)
	}
}
