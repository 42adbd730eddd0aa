package profile_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileFlags builds the two commands that take -cpuprofile and
// -memprofile and checks both ends of the contract: an unwritable path is a
// named one-line error and exit status 1 before any work — never a stack
// trace — and a writable one leaves a non-empty profile next to an
// unchanged report.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	bin := map[string]string{}
	for _, name := range []string{"gmlake-serve", "gmlake-bench"} {
		bin[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin[name], "repro/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	run := map[string][]string{
		"gmlake-serve": {"-policy", "chunked", "-n", "40"},
		"gmlake-bench": {"-experiment", "table1", "-min-steps", "4", "-max-steps", "8"},
	}
	missing := filepath.Join(dir, "no-such-dir", "profile.out")

	for _, tc := range []struct {
		cmd, flag, path string
		wantErr         string // empty: the run must succeed and write path
	}{
		{"gmlake-serve", "-cpuprofile", missing, "gmlake-serve: cpuprofile: open "},
		{"gmlake-serve", "-memprofile", missing, "gmlake-serve: memprofile: open "},
		{"gmlake-bench", "-cpuprofile", missing, "gmlake-bench: cpuprofile: open "},
		{"gmlake-bench", "-memprofile", missing, "gmlake-bench: memprofile: open "},
		{"gmlake-serve", "-cpuprofile", filepath.Join(dir, "serve-cpu.out"), ""},
		{"gmlake-serve", "-memprofile", filepath.Join(dir, "serve-mem.out"), ""},
		{"gmlake-bench", "-memprofile", filepath.Join(dir, "bench-mem.out"), ""},
	} {
		t.Run(tc.cmd+tc.flag+"="+filepath.Base(tc.path), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin[tc.cmd], append([]string{tc.flag, tc.path}, run[tc.cmd]...)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				if st, err := os.Stat(tc.path); err != nil || st.Size() == 0 {
					t.Fatalf("profile %s missing or empty (%v)", tc.path, err)
				}
				if tc.cmd == "gmlake-serve" {
					plain, err := exec.Command(bin[tc.cmd], run[tc.cmd]...).Output()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(plain, stdout.Bytes()) {
						t.Fatalf("profiled report differs from the plain one:\n%s\nvs\n%s", stdout.String(), plain)
					}
				}
				return
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit = %v, want status 1", err)
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, tc.wantErr) || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine ") {
				t.Fatalf("stderr = %q, want one line starting %q", msg, tc.wantErr)
			}
			if stdout.Len() != 0 {
				t.Fatalf("work started before the profile path was checked:\n%s", stdout.String())
			}
		})
	}
}
