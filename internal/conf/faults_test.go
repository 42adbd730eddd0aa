package conf

import (
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestParseFaultKeys(t *testing.T) {
	cfg, err := Parse("mttf:2m,mttr:15s,timeout:30s,retries:3,backoff:1.5,retry_budget:8,shed:true")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.Faults.MTTF != 2*time.Minute || cc.Faults.MTTR != 15*time.Second {
		t.Fatalf("mttf/mttr %v/%v", cc.Faults.MTTF, cc.Faults.MTTR)
	}
	if cc.Server.Timeout != 30*time.Second || cc.Recovery.Retries != 3 || cc.Recovery.Backoff != 1.5 ||
		cc.Recovery.RetryBudget != 8 || !cc.Server.Shed {
		t.Fatalf("recovery knobs: %+v", cc)
	}

	cfg, err = Parse("fault_plan:crash@t=12s:r1/restart@t=14s:r1")
	if err != nil {
		t.Fatal(err)
	}
	want := []serve.FaultEvent{
		{At: 12 * time.Second, Kind: serve.FaultCrash, Replica: 1},
		{At: 14 * time.Second, Kind: serve.FaultRestart, Replica: 1},
	}
	if plan := cfg.Cluster.Faults.Plan; len(plan) != 2 || plan[0] != want[0] || plan[1] != want[1] {
		t.Fatalf("fault plan %+v, want %+v", plan, want)
	}
}

// faultKeyErrorCases is also a seed table of FuzzParse.
var faultKeyErrorCases = []struct {
	s    string
	frag string // expected error fragment
}{
	{"mttf:2m", "mttr"},
	{"mttr:15s", "mttf"},
	{"mttf:0s,mttr:1s", "positive duration"},
	{"mttf:-2m,mttr:15s", "positive duration"},
	{"mttr:nope,mttf:1m", "positive duration"},
	{"fault_plan:garbage", "fault"},
	{"fault_plan:crash@t=1s:r0,mttf:1m,mttr:1s", "mutually exclusive"},
	{"timeout:0s", "positive duration"},
	{"timeout:-5s", "positive duration"},
	{"retries:3", "timeout"},
	{"retries:0,timeout:30s", "positive integer"},
	{"retries:-1,timeout:30s", "positive integer"},
	{"backoff:1.5,timeout:30s", "retries"},
	{"backoff:0.5,retries:2,timeout:30s", ">= 1"},
	{"backoff:NaN,retries:2,timeout:30s", ">= 1"},
	{"retry_budget:4,timeout:30s", "retries"},
	{"shed:yes-please,timeout:30s", "bool"},
	{"shed:true", "timeout"},
}

func TestParseFaultKeyErrors(t *testing.T) {
	for _, tc := range faultKeyErrorCases {
		_, err := Parse(tc.s)
		if err == nil {
			t.Errorf("Parse(%q): expected error", tc.s)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%q): error %q does not mention %q", tc.s, err, tc.frag)
		}
	}
}

// TestClusterCarriesFaultConfig: the fault and recovery keys land in the
// ClusterConfig's Faults, Recovery and Server, where serve reads them.
func TestClusterCarriesFaultConfig(t *testing.T) {
	cfg, err := Parse("replicas:2,mttf:2m,mttr:15s,timeout:30s,retries:3,backoff:1.5,retry_budget:8,shed:true")
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc.Faults.MTTF != 2*time.Minute || cc.Faults.MTTR != 15*time.Second {
		t.Fatalf("faults not wired: %+v", cc.Faults)
	}
	if cc.Recovery.Retries != 3 || cc.Recovery.Backoff != 1.5 || cc.Recovery.RetryBudget != 8 {
		t.Fatalf("recovery not wired: %+v", cc.Recovery)
	}
	if cc.Server.Timeout != 30*time.Second || !cc.Server.Shed {
		t.Fatalf("deadline knobs not on the server: %+v", cc.Server)
	}
}
