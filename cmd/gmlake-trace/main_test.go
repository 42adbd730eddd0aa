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

// bin is the gmlake-trace binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-trace-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-trace")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-trace: %v\n%s", err, out)
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
			t.Fatalf("gmlake-trace %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// TestUsageErrors: a rejected command line is one "gmlake-trace: …" line
// on stderr and nothing on stdout — no stack trace. An unknown figure is a
// usage error (exit 2); an output directory that does not exist fails the
// run (exit 1).
func TestUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"-figure", "7"}, 2, "-figure must be 5 or 14"},
		{[]string{"-figure", "5", "-dir", missing}, 1, "no such file or directory"},
	} {
		stdout, stderr, exit := run(t, "", tc.args...)
		if exit != tc.exit || stdout != "" {
			t.Errorf("gmlake-trace %q: exit %d, stdout %q; want exit %d and no output", tc.args, exit, stdout, tc.exit)
		}
		if !strings.HasPrefix(stderr, "gmlake-trace: ") || !strings.Contains(stderr, tc.want) ||
			strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine ") {
			t.Errorf("gmlake-trace %q: stderr %q, want one gmlake-trace: line with %q", tc.args, stderr, tc.want)
		}
	}
}

// TestFigure14WritesBothTimelines: the summary table goes to stdout and one
// CSV per allocator to -dir, each with the documented header and as many
// rows as the "wrote" line reports.
func TestFigure14WritesBothTimelines(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, exit := run(t, "", "-figure", "14", "-dir", dir)
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
