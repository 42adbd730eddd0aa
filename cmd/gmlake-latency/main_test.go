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
)

// bin is the gmlake-latency binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-latency-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-latency")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-latency: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the binary in dir ("" = here) and returns its output streams and
// exit code.
func run(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("gmlake-latency %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// harnessGoldens concatenates the named harness goldens: table1 and figure6
// are driver micro-benchmarks, independent of the step budget the goldens
// were recorded at.
func harnessGoldens(t *testing.T, ids ...string) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "golden", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
	}
	return sb.String()
}

// TestDefaultOutputIsTheHarnessGoldens: without flags the command prints
// exactly Table 1 and Figure 6 as the harness pins them.
func TestDefaultOutputIsTheHarnessGoldens(t *testing.T) {
	stdout, stderr, exit := run(t, "")
	if want := harnessGoldens(t, "table1", "figure6"); exit != 0 || stderr != "" || stdout != want {
		t.Errorf("exit %d, stderr %q, stdout\n%s\nwant\n%s", exit, stderr, stdout, want)
	}
}

// TestSpeedup: -speedup appends the two §2.2 ratios, both well above 1.
func TestSpeedup(t *testing.T) {
	stdout, stderr, exit := run(t, "", "-speedup")
	tables := harnessGoldens(t, "table1", "figure6")
	if exit != 0 || stderr != "" || !strings.HasPrefix(stdout, tables) {
		t.Fatalf("exit %d, stderr %q, stdout\n%s", exit, stderr, stdout)
	}
	var alloc, step float64
	_, err := fmt.Sscanf(strings.TrimPrefix(stdout, tables),
		"native/caching allocator-time ratio over 2000 (alloc,free) pairs: %fx\n"+
			"native/caching end-to-end step-time ratio (OPT-1.3B fine-tune): %fx (paper: 9.7x)\n", &alloc, &step)
	if err != nil || alloc <= 1 || step <= 1 || alloc <= step {
		t.Errorf("ratios %v and %v (%v) from\n%s", alloc, step, err, strings.TrimPrefix(stdout, tables))
	}
}

// TestAsciiChart: -ascii follows the tables with the Figure 6 chart, one
// series per block size.
func TestAsciiChart(t *testing.T) {
	stdout, stderr, exit := run(t, "", "-ascii")
	if exit != 0 || stderr != "" || !strings.Contains(stdout, "Figure 6: allocation latency by chunk size (log y)") {
		t.Fatalf("exit %d, stderr %q, stdout\n%s", exit, stderr, stdout)
	}
	for _, series := range []string{"512MB block", "1GB block", "2GB block"} {
		if strings.Count(stdout, series) < 2 { // the table header and the chart legend
			t.Errorf("series %q missing from the chart:\n%s", series, stdout)
		}
	}
}

func TestUnknownFlag(t *testing.T) {
	stdout, stderr, exit := run(t, "", "-bogus")
	if exit != 2 || stdout != "" || !strings.HasPrefix(stderr, "flag provided but not defined: -bogus\n") ||
		strings.Contains(stderr, "goroutine ") {
		t.Errorf("exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
}
