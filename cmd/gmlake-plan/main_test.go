package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// bin is the gmlake-plan binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-plan-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-plan")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-plan: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the binary and returns its output streams and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("gmlake-plan %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// TestUsageErrors: a flag value that cannot describe a job is one
// "gmlake-plan: …" line on stderr — no timestamp, no header on stdout, no
// stack trace — and exit status 2, checked before any planning.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{`-model nope`, `gmlake-plan: model: unknown model "nope"`},
		{`-micro 0`, `gmlake-plan: -micro must be at least 1, got 0`},
		{`-micro -1`, `gmlake-plan: -micro must be at least 1, got -1`},
		{`-max-world 0`, `gmlake-plan: -max-world must be at least 1, got 0`},
		{`-capacity-gb -5`, `gmlake-plan: -capacity-gb must be at least 1, got -5`},
		{`-capacity-gb 0 -models`, `gmlake-plan: -capacity-gb must be at least 1, got 0`},
		{`-capacity-gb 9000000000`, `gmlake-plan: -capacity-gb 9000000000 does not fit in bytes`},
		{`-headroom 2`, `gmlake-plan: -headroom must be in [0, 1), got 2`},
		{`-headroom 1`, `gmlake-plan: -headroom must be in [0, 1), got 1`},
		{`-headroom -1`, `gmlake-plan: -headroom must be in [0, 1), got -1`},
		{`-headroom NaN`, `gmlake-plan: -headroom must be in [0, 1), got NaN`},
	} {
		stdout, stderr, exit := run(t, strings.Fields(tc.args)...)
		if exit != 2 || stdout != "" || stderr != tc.want+"\n" {
			t.Errorf("gmlake-plan %s: exit %d, stdout %q, stderr %q; want exit 2 and the one line %q",
				tc.args, exit, stdout, stderr, tc.want)
		}
	}
}

// TestNothingFits: a job no candidate topology fits is a result, not a
// usage error: the candidates are printed and the exit status is 1.
func TestNothingFits(t *testing.T) {
	stdout, stderr, exit := run(t, "-capacity-gb", "1", "-max-world", "1")
	if exit != 1 || stderr != "" || !strings.Contains(stdout, "no candidate fits") {
		t.Errorf("exit %d, stderr %q, stdout\n%s", exit, stderr, stdout)
	}
}

func TestModels(t *testing.T) {
	stdout, stderr, exit := run(t, "-models")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if exit != 0 || stderr != "" || len(lines) != len(model.All) {
		t.Fatalf("-models: exit %d, stderr %q, stdout\n%s", exit, stderr, stdout)
	}
	for i, m := range model.All {
		if !strings.HasPrefix(lines[i], m.Name+" ") {
			t.Errorf("-models line %d = %q, want model %s", i+1, lines[i], m.Name)
		}
	}
}

// TestPlanGolden pins one whole plan: the topology search, the
// checkpointing advice and the offload estimate for OPT-13B on the default
// device.
func TestPlanGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "opt-13b.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := run(t, "-model", "OPT-13B")
	if exit != 0 || stderr != "" || stdout != string(want) {
		t.Errorf("-model OPT-13B: exit %d, stderr %q, stdout\n%s\nwant\n%s", exit, stderr, stdout, want)
	}
}
