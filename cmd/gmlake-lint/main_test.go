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

	"repro/internal/lint"
)

// bin is the gmlake-lint binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-lint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-lint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-lint: %v\n%s", err, out)
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
			t.Fatalf("gmlake-lint %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// TestList: -list prints one line per analyzer, the engine's own check
// last.
func TestList(t *testing.T) {
	stdout, stderr, exit := run(t, "", "-list")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if exit != 0 || stderr != "" || len(lines) != len(lint.All())+1 {
		t.Fatalf("-list: exit %d, stderr %q, stdout\n%s", exit, stderr, stdout)
	}
	for i, a := range lint.All() {
		if !strings.HasPrefix(lines[i], a.Name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %s", i+1, lines[i], a.Name)
		}
	}
	if !strings.HasPrefix(lines[len(lines)-1], lint.IgnoreCheck+" ") {
		t.Errorf("-list ends with %q, want %s", lines[len(lines)-1], lint.IgnoreCheck)
	}
}

// TestLoadErrors: a path that is no package is one "gmlake-lint: …" line
// on stderr, nothing on stdout, exit 2 — never a stack trace.
func TestLoadErrors(t *testing.T) {
	for _, args := range [][]string{{"./no/such/package"}, {"-json", "./no/such/package"}} {
		stdout, stderr, exit := run(t, "", args...)
		if exit != 2 || stdout != "" || !strings.HasPrefix(stderr, "gmlake-lint: ") ||
			strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine ") {
			t.Errorf("gmlake-lint %q: exit %d, stdout %q, stderr %q", args, exit, stdout, stderr)
		}
	}
	// Outside any module there is nothing to lint.
	stdout, stderr, exit := run(t, t.TempDir(), "./...")
	if exit != 2 || stdout != "" || !strings.HasPrefix(stderr, "gmlake-lint: no go.mod above ") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("outside a module: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
}

// TestCleanTree: the repository itself lints clean through the binary —
// exit 0 and an empty JSON array of findings.
func TestCleanTree(t *testing.T) {
	if stdout, stderr, exit := run(t, "", "-json", "./..."); exit != 0 || strings.TrimSpace(stdout) != "[]" || stderr != "" {
		t.Errorf("-json ./...: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
}
