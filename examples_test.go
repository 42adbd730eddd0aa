package gmlake_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExamplesOutput builds every program under examples/ and pins its
// stdout to testdata/examples/<name>.golden (recorded from commit 2fcbba7).
// The programs are deterministic; after an intended change, rerecord with
// `go run ./examples/<name> > testdata/examples/<name>.golden`.
func TestExamplesOutput(t *testing.T) {
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

// TestFacadeSurface keeps gmlake.go from re-growing: every exported name
// must be referenced by a program under examples/, by an Example function
// (in its body, or as the identifier it documents), or by the signature of
// a name that is. A re-export nothing uses fails here the way an unused
// //lint:ignore directive fails the linter.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Each exported name, with the part of its declaration that can
	// mention other facade names: a function's signature, a type's
	// definition.
	signature := map[string]ast.Node{}
	for _, d := range parse("gmlake.go").Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			signature[d.Name.Name] = d.Type
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					signature[s.Name.Name] = s.Type
				case *ast.ValueSpec:
					for _, n := range s.Names {
						signature[n.Name] = nil
					}
				}
			}
		}
	}

	used := map[string]bool{}
	var queue []string
	use := func(name string) {
		if _, ok := signature[name]; ok && !used[name] {
			used[name] = true
			queue = append(queue, name)
		}
	}
	users, err := filepath.Glob(filepath.Join("examples", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(users, "example_test.go") {
		f := parse(path)
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "gmlake" {
					use(sel.Sel.Name)
				}
			}
			return true
		})
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
				documented, _, _ := strings.Cut(strings.TrimPrefix(fn.Name.Name, "Example"), "_")
				use(documented)
			}
		}
	}
	// Only types can mention a facade name: field and parameter names
	// (System.Driver) are not references, and neither is a selector into
	// another package.
	var mentions func(n ast.Node) bool
	mentions = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			ast.Inspect(n.Type, mentions)
			return false
		case *ast.SelectorExpr:
			return false
		case *ast.Ident:
			use(n.Name)
		}
		return true
	}
	for len(queue) > 0 {
		if sig := signature[queue[0]]; sig != nil {
			ast.Inspect(sig, mentions)
		}
		queue = queue[1:]
	}

	var unused []string
	for name := range signature {
		if ast.IsExported(name) && !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("gmlake.go exports names that no example and no kept signature references — use them or delete them: %s", strings.Join(unused, ", "))
	}
}
