package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdInterfaceMethods are the standard-library interface methods the tree
// implements for callers outside it: fmt.Stringer, error, sort.Interface,
// container/heap, flag.Value and the io basics.
var stdInterfaceMethods = []string{
	"String", "Error", "Len", "Less", "Swap", "Push", "Pop", "Set", "Read", "Write", "Close",
}

// TestNoTestOnlyAPI pins the set of declared functions that no program in
// the module can reach. The walk follows Node.Calls from every main and
// init, every function a package-level initializer references, and every
// method whose name an interface in the module (or stdInterfaceMethods)
// declares — calls through interfaces create no edge, so implementations
// are assumed live. What is left, outside benchmark/, is called by tests
// only or by nothing, and must equal testdata/unreached.golden: one
// `pkg.Func — why it stays` per line.
// A new function that only tests call fails here until it is used, deleted
// or justified in that file.
func TestNoTestOnlyAPI(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	g := BuildCallGraph(pkgs)

	ifaceMethods := map[string]bool{}
	for _, name := range stdInterfaceMethods {
		ifaceMethods[name] = true
	}
	reached := map[*Node]bool{}
	var queue []*Node
	root := func(n *Node) {
		if n != nil && !reached[n] {
			reached[n] = true
			queue = append(queue, n)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := pkg.Info.TypeOf(it).(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceMethods[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
			// Package-level initializers run before main: whatever they
			// reference is live (experiment tables, conf's field table).
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				ast.Inspect(gd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							root(g.NodeOf(fn.Origin()))
						}
					}
					return true
				})
			}
		}
	}
	for _, n := range g.Nodes() {
		if n.Obj == nil {
			continue
		}
		sig := n.Obj.Type().(*types.Signature)
		switch name := n.Obj.Name(); {
		case sig.Recv() == nil && (name == "main" || name == "init"):
			root(n)
		case sig.Recv() != nil && ifaceMethods[name]:
			root(n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			root(c)
		}
	}

	benchmark := filepath.Join(l.root, "benchmark")
	unreached := map[string]bool{}
	for _, n := range g.Nodes() {
		if n.Obj != nil && !reached[n] && !strings.HasPrefix(n.Pkg.Dir, benchmark) {
			unreached[n.Name] = true
		}
	}

	golden := filepath.Join("testdata", "unreached.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	justified := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, why, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(why) == "" {
			t.Errorf("%s:%d: %q is not `pkg.Func — why it stays`", golden, i+1, line)
			continue
		}
		justified[name] = true
	}
	var unjustified, stale []string
	for name := range unreached {
		if !justified[name] {
			unjustified = append(unjustified, name)
		}
	}
	for name := range justified {
		if !unreached[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(unjustified)
	sort.Strings(stale)
	for _, name := range unjustified {
		t.Errorf("%s is reached by no main, initializer or interface: use it, delete it, or justify it in %s", name, golden)
	}
	for _, name := range stale {
		t.Errorf("%s lists %s, which is reachable now (or gone): drop the line", golden, name)
	}
}
