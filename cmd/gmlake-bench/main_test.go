package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
)

// bin is the gmlake-bench binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-bench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-bench: %v\n%s", err, out)
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
			t.Fatalf("gmlake-bench %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// TestUsageErrors: a bad command line is reported before any output — exit
// 2, nothing on stdout, never a stack trace or an empty success — and
// gmlake-bench's own checks say it in one line.
func TestUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct{ args, want string }{
		{`-experiment TABLE1`, `gmlake-bench: unknown experiment "TABLE1" (use -list)`},
		{`-experiment nope`, `gmlake-bench: unknown experiment "nope" (use -list)`},
		{`-capacity-gb 0`, `gmlake-bench: -capacity-gb must be at least 1, got 0`},
		{`-capacity-gb -4 -experiment table1`, `gmlake-bench: -capacity-gb must be at least 1, got -4`},
		{`-min-steps -3`, `gmlake-bench: -min-steps must be at least 1, got -3`},
		{`-max-steps 0 -list`, `gmlake-bench: -max-steps must be at least 1, got 0`},
		{`-capacity-gb 8589934592`, `gmlake-bench: -capacity-gb 8589934592 does not fit in bytes`},
		{`-experiment figure3 -min-steps 50 -max-steps 3`, `gmlake-bench: -max-steps 3 is below -min-steps 50`},
		{`-parallel -1`, `gmlake-bench: conf: parallel must be a non-negative integer, got "-1"`},
		{`-experiment figure14 -csv ` + missing, `gmlake-bench: -csv ` + missing + ` is not a directory`},
		{`-bogus`, `flag provided but not defined: -bogus`},
	} {
		stdout, stderr, exit := run(t, strings.Fields(tc.args)...)
		if exit != 2 || stdout != "" || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", tc.args, exit, stdout, stderr)
		}
		// The flag package follows its own line with the usage text.
		line, rest, _ := strings.Cut(stderr, "\n")
		if line != tc.want || (rest != "" && strings.HasPrefix(tc.want, "gmlake-bench:")) {
			t.Errorf("%s: stderr %q, want the one line %q", tc.args, stderr, tc.want)
		}
	}
	out := filepath.Join(t.TempDir(), "out.txt")
	run(t, "-experiment", "nope", "-out", out)
	if _, err := os.Stat(out); err == nil {
		t.Error("-out file created before the experiment id was checked")
	}
}

func TestList(t *testing.T) {
	stdout, stderr, exit := run(t, "-list")
	if want := strings.Join(harness.Experiments, "\n") + "\n"; exit != 0 || stderr != "" || stdout != want {
		t.Errorf("-list: exit %d, stderr %q, stdout\n%s\nwant\n%s", exit, stderr, stdout, want)
	}
}

// TestTable1MatchesHarnessGolden runs one experiment through the binary:
// table1 is a driver micro-benchmark, independent of the step budget, so
// its stdout is the harness golden followed by the elapsed-time line.
func TestTable1MatchesHarnessGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "golden", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := run(t, "-experiment", "table1")
	if exit != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	elapsed := regexp.MustCompile(`\(table1 completed in [^)\n]+\)\n\n$`)
	if !elapsed.MatchString(stdout) {
		t.Fatalf("stdout does not end with the elapsed-time line:\n%s", stdout)
	}
	if got := elapsed.ReplaceAllString(stdout, ""); got != string(want) {
		t.Errorf("stdout\n%s\nwant table1.golden\n%s", got, want)
	}
}

// TestCSV: -csv writes one file per timeline of the rendered tables, each
// with the documented header, three columns per row and as many rows as its
// "wrote" line reports.
func TestCSV(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, exit := run(t, "-experiment", "figure14", "-csv", dir)
	if exit != 0 || stderr != "" || !strings.HasPrefix(stdout, "== figure14: ") {
		t.Fatalf("exit %d, stderr %q, stdout\n%s", exit, stderr, stdout)
	}
	for _, name := range []string{"caching", "gmlake"} {
		path := filepath.Join(dir, "figure14_"+name+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if lines[0] != "seconds,active_bytes,reserved_bytes" {
			t.Errorf("%s: header %q", path, lines[0])
		}
		for _, row := range lines[1:] {
			if strings.Count(row, ",") != 2 {
				t.Errorf("%s: row %q is not three columns", path, row)
			}
		}
		if want := fmt.Sprintf("wrote %s (%d samples, ", path, len(lines)-1); !strings.Contains(stdout, want) {
			t.Errorf("stdout does not report %q:\n%s", want, stdout)
		}
	}
}
