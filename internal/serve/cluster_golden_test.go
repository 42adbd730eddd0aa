package serve

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/cluster_reports.golden from this run")

const clusterGoldenPath = "testdata/cluster_reports.golden"

// burstyWaves clusters arrivals into waves of eight over three priority
// classes — the shape that exercises simultaneous replica events (event-heap
// tie-breaking) and elastic scale decisions.
func burstyWaves(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		wave := i / 8
		r := Request{ID: i, PromptLen: 48 + (i*29)%128, OutputLen: 6 + (i*17)%30,
			ArrivalAt: time.Duration(wave) * 900 * time.Millisecond}
		switch i % 4 {
		case 0:
			r.Class, r.SLO, r.Priority = "batch", "batch", 0
		case 1:
			r.Class, r.SLO, r.Priority = "agent", "interactive", 1
		default:
			r.Class, r.SLO, r.Priority = "chat", "interactive", 2
		}
		reqs[i] = r
	}
	return reqs
}

type goldenStream struct {
	name string
	reqs []Request
}

type goldenConfig struct {
	name string
	cfg  ClusterConfig
}

func clusterGoldenStreams() []goldenStream {
	return []goldenStream{
		{"mixed", mixedStream(120)},
		{"bursty", burstyWaves(160)},
		{"sessions", sessionStream(14, 4)},
		{"steal", stealStream()},
		{"burst-then-trickle", burstThenTrickle()},
		// An unservable request arriving late: the run fails mid-stream and
		// seals a partial report.
		{"late-unservable", []Request{
			{ID: 0, Class: "ok", PromptLen: 16, OutputLen: 4},
			{ID: 1, Class: "ok", PromptLen: 16, OutputLen: 4},
			{ID: 2, Class: "huge", PromptLen: 100000, OutputLen: 4, ArrivalAt: 5 * time.Second},
		}},
	}
}

// clusterGoldenConfigs is the configuration axis of the pinned matrix: every
// dispatch policy, stealing, a heterogeneous fleet, both autoscaler shapes,
// session affinity over an explicit base, scripted faults with and without
// the recovery knobs, the stranded-pool error and a seeded chaos run with
// every feature on at once.
func clusterGoldenConfigs() []goldenConfig {
	plan := []FaultEvent{
		{At: 300 * time.Millisecond, Kind: FaultCrash, Replica: 1},
		{At: 900 * time.Millisecond, Kind: FaultRestart, Replica: 1},
		{At: 1500 * time.Millisecond, Kind: FaultCrash, Replica: 0},
		{At: 1500 * time.Millisecond, Kind: FaultCrash, Replica: 2},
		{At: 2200 * time.Millisecond, Kind: FaultRestart, Replica: 0},
		{At: 2600 * time.Millisecond, Kind: FaultRestart, Replica: 2},
		{At: 4 * time.Second, Kind: FaultCrash, Replica: 1},
		{At: 4500 * time.Millisecond, Kind: FaultRestart, Replica: 1},
	}
	return []goldenConfig{
		{"one", ClusterConfig{Replicas: 1, Server: ServerConfig{MaxBatch: 4}}},
		{"rr", ClusterConfig{Replicas: 3, Dispatch: DispatchRoundRobin,
			Server: ServerConfig{MaxBatch: 3}}},
		{"jsq", ClusterConfig{Replicas: 4, Dispatch: DispatchJSQ,
			Server: ServerConfig{MaxBatch: 2}}},
		{"leastkv-aging", ClusterConfig{Replicas: 3, Dispatch: DispatchLeastKV,
			Server: ServerConfig{MaxBatch: 3, Aging: 2 * time.Second}}},
		{"steal", ClusterConfig{Replicas: 4, Dispatch: DispatchRoundRobin, Steal: true,
			Server: ServerConfig{MaxBatch: 2}}},
		{"hetero-steal", ClusterConfig{Replicas: 3, Dispatch: DispatchJSQ, Steal: true,
			Server:    ServerConfig{MaxBatch: 2},
			Overrides: []ReplicaOverride{{Capacity: 2, MaxBatch: 6}, {Capacity: 0.5}}}},
		{"elastic", ClusterConfig{MinReplicas: 1, MaxReplicas: 4, Dispatch: DispatchJSQ,
			ScaleUpDepth: 3, ScaleCooldown: 200 * time.Millisecond,
			Server: ServerConfig{MaxBatch: 2}}},
		{"elastic-steal", ClusterConfig{MinReplicas: 1, MaxReplicas: 5, Dispatch: DispatchLeastKV,
			Steal: true, ScaleUpDepth: 2, ScaleDownDepth: 1,
			Server: ServerConfig{MaxBatch: 2, Aging: 3 * time.Second}}},
		// An explicit round-robin base: "" would mean jsq here, although
		// ParseDispatch("") is round-robin everywhere else.
		{"affinity-rr", ClusterConfig{Replicas: 3, Dispatch: DispatchSessionAffinity,
			AffinityBase: DispatchRoundRobin,
			Server:       ServerConfig{MaxBatch: 3, PrefixReuse: true}}},
		{"plan", ClusterConfig{Replicas: 3, Dispatch: DispatchJSQ,
			Server: ServerConfig{MaxBatch: 3},
			Faults: FaultConfig{Plan: plan}}},
		{"plan-recovery", ClusterConfig{Replicas: 3, Dispatch: DispatchLeastKV,
			Server:   ServerConfig{MaxBatch: 3, Timeout: 4 * time.Second, Shed: true},
			Faults:   FaultConfig{Plan: plan},
			Recovery: RecoveryConfig{Retries: 2, Backoff: 1.5, RetryBudget: 6}}},
		// Every replica crashes at t=0 and none restarts: arrivals park in
		// the re-dispatch pool and the run seals with the stranded error.
		{"all-down", ClusterConfig{Replicas: 2, Server: ServerConfig{MaxBatch: 2},
			Faults: FaultConfig{Plan: []FaultEvent{
				{Kind: FaultCrash, Replica: 0}, {Kind: FaultCrash, Replica: 1}}}}},
		{"chaos", ClusterConfig{MinReplicas: 1, MaxReplicas: 4, Steal: true,
			Dispatch: DispatchSessionAffinity,
			Server:   ServerConfig{MaxBatch: 3, Timeout: 20 * time.Second, Shed: true, PrefixReuse: true},
			Faults:   FaultConfig{MTTF: 1500 * time.Millisecond, MTTR: 200 * time.Millisecond, Seed: 3},
			Recovery: RecoveryConfig{Retries: 3, Backoff: 1.5, RetryBudget: 16}}},
	}
}

// TestClusterReportGoldens pins ServeCluster's whole ClusterReport — and the
// error, on the cells that fail — over streams × configurations × two pool
// sizes to one checked-in line per cell. The hash is over the rendering the
// benchmark's sim_digest uses, so any change the virtual clock can see moves
// a line. The file was recorded from commit 48babfe, before the scheduler was
// rewritten; it uses only ServeCluster and the shared test streams, so it can
// be reproduced by copying this file into a checkout of that commit. After an
// intended change to the simulation, regenerate with
//
//	go test ./internal/serve -run TestClusterReportGoldens -update
//
// and review the diff. Beyond the bytes it checks request conservation on
// every completed cell and that no ClusterReport counter is zero everywhere —
// a matrix that never steals, sheds or loses a request would pin nothing
// about those paths.
func TestClusterReportGoldens(t *testing.T) {
	pools := []struct {
		name  string
		bytes int64
	}{{"tight", sim.GiB / 8}, {"roomy", 8 * sim.GiB}}

	counters := []struct {
		name string
		get  func(ClusterReport) int64
	}{
		{"Retries", func(r ClusterReport) int64 { return int64(r.Retries) }},
		{"Lost", func(r ClusterReport) int64 { return int64(r.Lost) }},
		{"Shed", func(r ClusterReport) int64 { return r.Shed }},
		{"DeadlineMisses", func(r ClusterReport) int64 { return r.DeadlineMisses }},
		{"Crashes", func(r ClusterReport) int64 { return int64(r.Crashes) }},
		{"Restarts", func(r ClusterReport) int64 { return int64(r.Restarts) }},
		{"Spawns", func(r ClusterReport) int64 { return int64(r.Spawns) }},
		{"Drains", func(r ClusterReport) int64 { return int64(r.Drains) }},
		{"Stolen", func(r ClusterReport) int64 {
			n := 0
			for _, s := range r.Stolen {
				n += s
			}
			return int64(n)
		}},
		{"AffinityRouted", func(r ClusterReport) int64 { return int64(r.AffinityRouted) }},
		{"Preemptions", func(r ClusterReport) int64 { return r.Preemptions }},
		{"PrefixHits", func(r ClusterReport) int64 { return r.PrefixHits }},
		{"AdmitFailures", func(r ClusterReport) int64 { return r.AdmitFailures }},
	}
	seen := make([]bool, len(counters))

	var sb strings.Builder
	completed := 0
	for _, s := range clusterGoldenStreams() {
		for _, c := range clusterGoldenConfigs() {
			for _, p := range pools {
				cell := s.name + "/" + c.name + "/" + p.name
				rep, err := ServeCluster(s.reqs, chunkedFactory(p.bytes), c.cfg)
				sum := sha256.Sum256([]byte(fmt.Sprintf("%+v|%v", rep, err)))
				failed := 0
				if err != nil {
					failed = 1
				}
				fmt.Fprintf(&sb, "%s served=%d err=%d %x\n", cell, rep.Served, failed, sum[:8])
				for i, k := range counters {
					seen[i] = seen[i] || k.get(rep) != 0
				}
				if err != nil {
					continue
				}
				completed++
				if got := int64(rep.Goodput) + rep.DeadlineMisses + rep.Shed + int64(rep.Lost); got != int64(len(s.reqs)) {
					t.Errorf("%s: goodput %d + deadline misses %d + shed %d + lost %d = %d, offered %d",
						cell, rep.Goodput, rep.DeadlineMisses, rep.Shed, rep.Lost, got, len(s.reqs))
				}
				if rep.Goodput > rep.Served {
					t.Errorf("%s: goodput %d exceeds served %d", cell, rep.Goodput, rep.Served)
				}
				byClass, byReplica := 0, 0
				for _, cr := range rep.Classes {
					byClass += cr.Served
				}
				for _, rr := range rep.Replicas {
					byReplica += rr.Served
				}
				if byClass != rep.Served || byReplica != rep.Served {
					t.Errorf("%s: served %d, classes sum to %d, replicas to %d", cell, rep.Served, byClass, byReplica)
				}
			}
		}
	}
	for i, k := range counters {
		if !seen[i] {
			t.Errorf("ClusterReport.%s is zero in every cell: the matrix is blind to that path", k.name)
		}
	}
	if completed == 0 {
		t.Error("no cell completed: conservation was checked nowhere")
	}

	got := sb.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(clusterGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(clusterGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(clusterGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%d cells, golden has %d", len(g)-1, len(w)-1)
	}
}
