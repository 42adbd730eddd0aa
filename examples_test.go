package gmlake_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesOutput builds every program under examples/ and pins its
// stdout to testdata/examples/<name>.golden (recorded from commit 2fcbba7).
// The programs are deterministic; after an intended change, rerecord with
// `go run ./examples/<name> > testdata/examples/<name>.golden`.
func TestExamplesOutput(t *testing.T) {
	readSources(t)
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil || stderr.Len() != 0 {
				t.Fatalf("run: %v, stderr %q", err, stderr.String())
			}
			if stdout.String() != string(want) {
				t.Errorf("stdout\n%s\nwant\n%s", stdout.String(), want)
			}
		})
	}
}

// readSources reads every Go file of the examples and of the module
// packages they import. The examples are built by a child go build, whose
// reads go test's cache does not see; reading the sources here keys a
// cached pass on them, so an edit to any of them reruns the test.
func readSources(t *testing.T) {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}", "./examples/...").Output()
	if err != nil {
		t.Fatalf("list example sources: %v", err)
	}
	for _, d := range strings.Split(string(out), "\n") {
		if d == "" { // a standard-library package
			continue
		}
		files, err := filepath.Glob(filepath.Join(d, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %q: %v", d, err)
		}
		for _, f := range files {
			if _, err := os.ReadFile(f); err != nil {
				t.Fatal(err)
			}
		}
	}
}
