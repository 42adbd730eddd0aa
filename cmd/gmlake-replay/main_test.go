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

	"repro/internal/conf"
)

// bin is the gmlake-replay binary, built once per test run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gmlake-replay-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gmlake-replay")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build gmlake-replay: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the binary in dir and returns its output streams and exit code.
func run(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("gmlake-replay %q: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return o.String(), e.String(), exit
}

// record writes a small trace to t.json in a fresh directory and returns
// the directory and what -record printed.
func record(t *testing.T) (dir, stdout string) {
	t.Helper()
	dir = t.TempDir()
	stdout, stderr, exit := run(t, dir, strings.Fields(`-record -model OPT-1.3B -steps 4 -batch 32 -out t.json`)...)
	if exit != 0 || stderr != "" {
		t.Fatalf("-record: exit %d, stderr %q", exit, stderr)
	}
	return dir, stdout
}

// TestRecordReplayGolden pins -record followed by -alloc all on the fresh
// trace to the bytes the binary of commit 97d824e printed, before the
// allocators were built from conf's backend table.
func TestRecordReplayGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "record-replay-all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir, got := record(t)
	replayed, stderr, exit := run(t, dir, "-in", "t.json", "-alloc", "all")
	if exit != 0 || stderr != "" {
		t.Fatalf("-alloc all: exit %d, stderr %q", exit, stderr)
	}
	if got += replayed; got != string(want) {
		t.Errorf("-record then -alloc all printed\n%s\nwant\n%s", got, want)
	}
}

// TestEveryBackendIsSelectable: -alloc takes each name of conf's backend
// table (native included, which `all` leaves out) and prints its one row,
// and the help text names exactly that set.
func TestEveryBackendIsSelectable(t *testing.T) {
	dir, _ := record(t)
	for _, name := range conf.Backends() {
		stdout, stderr, exit := run(t, dir, "-in", "t.json", "-alloc", name)
		if exit != 0 || stderr != "" || !strings.Contains(stdout, "\n"+name+" ") {
			t.Errorf("-alloc %s: exit %d, stderr %q, stdout\n%s", name, exit, stderr, stdout)
		}
	}
	_, usage, _ := run(t, dir, "-h")
	if want := strings.Join(conf.Backends(), "|") + "|all"; !strings.Contains(usage, want) {
		t.Errorf("-h does not list %s:\n%s", want, usage)
	}
}

// TestUsageErrors: every rejected command line is one "gmlake-replay: …"
// line on stderr, exit status 1, and nothing on stdout — no replay header
// and no stack trace.
func TestUsageErrors(t *testing.T) {
	dir, _ := record(t)
	for _, tc := range []struct{ args, want string }{
		{`-in t.json -capacity-gb 0`, `-capacity-gb must be positive, got 0`},
		{`-in t.json -capacity-gb -4`, `-capacity-gb must be positive, got -4`},
		{`-record -capacity-gb 0`, `-capacity-gb must be positive, got 0`},
		{`-record -out x.json -capacity-gb 9000000000 -steps 0`, `-capacity-gb 9000000000 does not fit in bytes`},
		{`-in t.json -alloc bogus`, `unknown allocator "bogus" (caching, gmlake, expandable, compact, native or all)`},
		{`-in t.json -alloc caching-tuned`, `unknown allocator "caching-tuned"`},
		{`-in missing.json`, `open missing.json`},
		{`-record -model nope`, `unknown model "nope"`},
		{`-record -strategy X`, `unknown strategy letter 'X'`},
		{``, `either -record or -in <trace.json> is required`},
	} {
		stdout, stderr, exit := run(t, dir, strings.Fields(tc.args)...)
		if exit != 1 || stdout != "" {
			t.Errorf("gmlake-replay %s: exit %d, stdout %q; want exit 1 and no output", tc.args, exit, stdout)
		}
		if !strings.HasPrefix(stderr, "gmlake-replay: ") || !strings.Contains(stderr, tc.want) ||
			strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine ") {
			t.Errorf("gmlake-replay %s: stderr %q, want one gmlake-replay: line with %q", tc.args, stderr, tc.want)
		}
	}
}
