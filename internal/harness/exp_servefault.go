package harness

import (
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/servegen"
)

// Fault-injection testbed. Intensities are calibrated to the ~15s virtual
// makespan of the 120-request mixes: "low" crashes a replica once or twice
// per run, "high" keeps roughly one replica of three in recovery at any
// moment. The deadline is loose enough that a fault-free run completes
// everything in time — misses and lost goodput are attributable to faults.
const (
	serveFaultFleet    = 3
	serveFaultBatch    = 6
	serveFaultTimeout  = 30 * time.Second
	serveFaultTightSLO = 15 * time.Second
	serveFaultMTTR     = 400 * time.Millisecond
)

// serveFaultRetry is the retry policy of every row that retries: three
// attempts with exponential backoff.
var serveFaultRetry = serve.RecoveryConfig{Retries: 3, Backoff: 2}

// serveFaultConfig is the experiment's fleet at one fault level (mttf 0 =
// fault-free) under one deadline and recovery policy.
func (e *Env) serveFaultConfig(mttf, timeout time.Duration, rc serve.RecoveryConfig, shed bool) serve.ClusterConfig {
	cfg := serve.ClusterConfig{
		Replicas: serveFaultFleet,
		Dispatch: serve.DispatchJSQ,
		Server:   serve.ServerConfig{MaxBatch: serveFaultBatch, Timeout: timeout, Shed: shed},
		Recovery: rc,
	}
	if mttf > 0 {
		cfg.Faults = serve.FaultConfig{MTTF: mttf, MTTR: serveFaultMTTR, Seed: e.Seed}
	}
	return cfg
}

// ServeFaultExperiment measures goodput and availability under replica
// crashes: every mix at three fault intensities under a fixed retry policy,
// then one overloaded mix at the high intensity under the recovery-policy
// ladder. Faults are injected at event boundaries from seeded streams, so
// the tables are byte-identical at any engine parallelism.
func (e *Env) ServeFaultExperiment() []*Table {
	return []*Table{e.serveFaultIntensity(), e.serveFaultPolicies()}
}

// serveFaultIntensity is the mixes × fault-intensities grid under retries:3
// with exponential backoff.
func (e *Env) serveFaultIntensity() *Table {
	t := &Table{
		ID: "servefault",
		Title: fmt.Sprintf("Serving under replica faults: %d replicas, OPT-1.3B, %d requests, %v deadline, retries:3",
			serveFaultFleet, serveMixRequests, serveFaultTimeout),
		Header: []string{"mix", "faults", "served", "goodput", "crashes", "restarts",
			"retries", "lost", "misses", "avail"},
	}
	// The compared fault levels: the fault-free baseline every faulty run is
	// measured against, plus two MTTF settings.
	var variants []fleetVariant
	for _, in := range []struct {
		name string
		mttf time.Duration
	}{
		{"none", 0},
		{"low (mttf 8s)", 8 * time.Second},
		{"high (mttf 2s)", 2 * time.Second},
	} {
		variants = append(variants, fleetVariant{key: []string{in.name},
			cfg: e.serveFaultConfig(in.mttf, serveFaultTimeout, serveFaultRetry, false)})
	}
	cells := e.grid(servegen.Mixes(), 1, serveMixRequests, variants)
	e.sweepTable(t, cells, nil, func(_ int, rep serve.ClusterReport) [][]string {
		return [][]string{{fmt.Sprint(rep.Served), fmt.Sprint(rep.Goodput),
			fmt.Sprint(rep.Crashes), fmt.Sprint(rep.Restarts), fmt.Sprint(rep.Retries),
			fmt.Sprint(rep.Lost), fmt.Sprint(rep.DeadlineMisses), pct(rep.Availability)}}
	})
	t.AddNote("goodput counts completions inside the deadline; avail is capacity-weighted uptime. Crashed")
	t.AddNote("in-flight requests recompute from scratch on a surviving replica (TTFT kept iff the first")
	t.AddNote("token had streamed); queued requests are re-dispatched for free. Same seed, same table,")
	t.AddNote("at any parallelism.")
	return t
}

// serveFaultPolicies holds the fault intensity fixed and walks the recovery
// ladder on the bursty mix: abandon in-flight work, retry it, or retry and
// shed provably-late admissions.
func (e *Env) serveFaultPolicies() *Table {
	t := &Table{
		ID: "servefault-policy",
		Title: fmt.Sprintf("Recovery policies at mttf 2s: mixed-bursty, %d replicas, %d requests, %v deadline",
			serveFaultFleet, serveMixRequests, serveFaultTightSLO),
		Header: []string{"policy", "served", "goodput", "retries", "lost", "shed", "misses", "e2e p99", "avail"},
	}
	var variants []fleetVariant
	for _, p := range []struct {
		name string
		rc   serve.RecoveryConfig
		shed bool
	}{
		{"no-retry", serve.RecoveryConfig{}, false},
		{"retry:3", serveFaultRetry, false},
		{"retry:3+shed", serveFaultRetry, true},
	} {
		variants = append(variants, fleetVariant{key: []string{p.name},
			cfg: e.serveFaultConfig(2*time.Second, serveFaultTightSLO, p.rc, p.shed)})
	}
	reqs := e.stream(servegen.MixedBursty(), serveMixRequests)
	e.sweepTable(t, fleetCells(nil, reqs, variants), nil, func(_ int, rep serve.ClusterReport) [][]string {
		return [][]string{{fmt.Sprint(rep.Served), fmt.Sprint(rep.Goodput),
			fmt.Sprint(rep.Retries), fmt.Sprint(rep.Lost), fmt.Sprint(rep.Shed),
			fmt.Sprint(rep.DeadlineMisses), ms(rep.E2E.P99), pct(rep.Availability)}}
	})
	t.AddNote("no-retry abandons crashed in-flight requests (lost); retry recomputes them from scratch")
	t.AddNote("with exponential backoff; shed additionally rejects requests at admission once their")
	t.AddNote("queueing delay makes the deadline unreachable, freeing batch slots for requests that")
	t.AddNote("can still make it.")
	return t
}
