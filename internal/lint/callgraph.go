package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the static call graph the interprocedural analyzers
// (wallclockflow, randflow, parcapture) run over. The graph covers every
// function declaration and function literal in the loaded packages; edges
// are *may-call* edges, resolved conservatively:
//
//   - A use of an identifier that resolves to a declared function or
//     method — whether in call position, as a method value, deferred, in a
//     `go` statement, or passed/assigned as a value — creates an edge from
//     the enclosing function. Referencing a function means it may run on
//     the referencer's behalf, so references taint exactly like calls.
//   - A function literal gets its own node with an edge from the function
//     that lexically encloses it (defining a closure is a reference to it).
//   - Calls through function-typed variables and parameters, and calls on
//     interface-typed receivers, are NOT resolved — no edge is created, so
//     they can never manufacture a false chain. They also cannot launder
//     effects by themselves: the function value had to be *referenced*
//     somewhere to flow into the variable, and that reference carries the
//     edge. The one genuinely unresolved case is a package-level variable
//     initializer expression (`var f = helper`), which lies outside every
//     function body; see the doc.go caveats.
//
// Leaf effect facts (wall-clock use, top-level math/rand, package-level
// variable writes) are seeded during the same walk; effects.go propagates
// them to every transitive caller.

// Effect is one leaf fact propagated through the call graph.
type Effect int

const (
	// EffectWallClock: the function (or something it transitively
	// references) reads or waits on the host wall clock.
	EffectWallClock Effect = iota
	// EffectGlobalRand: draws from the process-global auto-seeded
	// math/rand (or /v2) source.
	EffectGlobalRand
	// EffectGlobalWrite: assigns to a package-level variable (directly or
	// through a selector/index/deref path rooted at one).
	EffectGlobalWrite

	numEffects
)

// String names the effect for diagnostics.
func (e Effect) String() string {
	switch e {
	case EffectWallClock:
		return "wall-clock"
	case EffectGlobalRand:
		return "global-rand"
	case EffectGlobalWrite:
		return "global-write"
	}
	return fmt.Sprintf("effect(%d)", int(e))
}

// leafFact records that a node performs an effect directly, with the
// human-readable culprit for chain rendering ("time.Now", "rand.Intn",
// "package-level var tables").
type leafFact struct {
	has    bool
	detail string
}

// Node is one function in the call graph: a declared function or method
// (Obj != nil) or a function literal (Lit != nil).
type Node struct {
	Obj  *types.Func  // nil for literals
	Lit  *ast.FuncLit // nil for declarations
	Encl *Node        // lexically enclosing function, for literals
	Pkg  *Package
	Name string // display name: "serve.Serve", "core.Allocator.Alloc", "serve.Serve.func1"
	Pos  token.Pos

	Calls   []*Node // out-edges in first-reference source order, deduped
	callers []*Node // reverse edges, filled after the build walk

	root bool // determinism entrypoint (hardcoded list or //lint:entrypoint)

	leaf [numEffects]leafFact

	// Propagation results (effects.go): dist 0 = effect absent, 1 = this
	// node is the leaf, k = k-1 calls away from the leaf along next.
	dist [numEffects]int
	next [numEffects]*Node

	litCount int // ordinal source for child literal names
	callSet  map[*Node]bool
}

// HasEffect reports whether the node performs the effect directly or
// through any transitive callee.
func (n *Node) HasEffect(e Effect) bool { return n.dist[e] > 0 }

// Chain returns the shortest call chain from n to the effect's leaf,
// ending with the culprit itself: ["serve.Serve", "serve.logTick",
// "time.Now"]. Nil when the node does not have the effect.
func (n *Node) Chain(e Effect) []string {
	if n.dist[e] == 0 {
		return nil
	}
	var out []string
	cur := n
	for {
		out = append(out, cur.Name)
		if cur.next[e] == nil {
			break
		}
		cur = cur.next[e]
	}
	return append(out, cur.leaf[e].detail)
}

// CallGraph is the module-wide static call graph with propagated effects.
type CallGraph struct {
	nodes []*Node // stable order: package, file, declaration, nesting
	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// NodeOf returns the node for a declared function or method, or nil.
func (g *CallGraph) NodeOf(obj *types.Func) *Node { return g.byObj[obj] }

// LitNode returns the node for a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Nodes returns every node in stable order.
func (g *CallGraph) Nodes() []*Node { return g.nodes }

// Roots returns the determinism entrypoints in stable order: the hardcoded
// simulation entry list (see entrypointRoots in effects.go) plus every
// function annotated //lint:entrypoint.
func (g *CallGraph) Roots() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.root {
			out = append(out, n)
		}
	}
	return out
}

// BuildCallGraph constructs the graph over the loaded packages and
// propagates effects. The packages must share one FileSet (they do when
// they come from one Loader).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: map[*types.Func]*Node{},
		byLit: map[*ast.FuncLit]*Node{},
	}
	// Pass 1: a node per declaration, so forward references resolve.
	type declWork struct {
		node *Node
		decl *ast.FuncDecl
	}
	var work []declWork
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{
					Obj:  obj,
					Pkg:  pkg,
					Name: declName(pkg, fd),
					Pos:  fd.Name.Pos(),
					root: isEntrypoint(pkg, fd),
				}
				g.nodes = append(g.nodes, n)
				g.byObj[obj] = n
				work = append(work, declWork{n, fd})
			}
		}
	}
	// Pass 2: walk bodies, creating edges, literal nodes and leaf facts.
	for _, w := range work {
		if w.decl.Body != nil {
			g.walkBody(w.node, w.decl.Body)
		}
	}
	// Reverse edges, in the same stable order as the forward walk.
	for _, n := range g.nodes {
		for _, c := range n.Calls {
			c.callers = append(c.callers, n)
		}
	}
	g.propagate()
	return g
}

// declName renders a stable display name for a declaration.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	prefix := pkg.Types.Name() + "."
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if recv := recvTypeName(fd.Recv.List[0].Type); recv != "" {
			return prefix + recv + "." + fd.Name.Name
		}
	}
	return prefix + fd.Name.Name
}

// recvTypeName extracts the base type name of a receiver: *T, T, T[P] all
// yield "T".
func recvTypeName(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			e = v.X
		case *ast.IndexListExpr: // generic receiver T[P1, P2]
			e = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// walkBody visits cur's body: function literals recurse under their own
// node, identifier uses of declared functions become edges, external
// wall-clock/rand references and package-level writes become leaf facts.
func (g *CallGraph) walkBody(cur *Node, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			cur.litCount++
			child := &Node{
				Lit:  n,
				Encl: cur,
				Pkg:  cur.Pkg,
				Name: fmt.Sprintf("%s.func%d", cur.Name, cur.litCount),
				Pos:  n.Pos(),
			}
			g.nodes = append(g.nodes, child)
			g.byLit[n] = child
			g.addEdge(cur, child)
			g.walkBody(child, n.Body)
			return false // children handled under the literal's node
		case *ast.Ident:
			g.identRef(cur, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				g.noteGlobalWrite(cur, lhs)
			}
		case *ast.IncDecStmt:
			g.noteGlobalWrite(cur, n.X)
		}
		return true
	})
}

// identRef handles one identifier use: an edge when it names a declared
// module function, a leaf fact when it names a forbidden external one.
func (g *CallGraph) identRef(cur *Node, id *ast.Ident) {
	fn, ok := cur.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	// A method of an instantiated generic type is a distinct object from
	// the declared one; Origin maps it (and everything else) to the
	// declaration the nodes are keyed by.
	if callee, ok := g.byObj[fn.Origin()]; ok {
		g.addEdge(cur, callee)
		return
	}
	// Not declared in the loaded packages: stdlib or an interface method.
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	topLevel := sig != nil && sig.Recv() == nil
	switch pkg.Path() {
	case "time":
		if topLevel && wallclockFuncs[fn.Name()] {
			g.setLeaf(cur, EffectWallClock, "time."+fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if topLevel && !randConstructors[fn.Name()] {
			g.setLeaf(cur, EffectGlobalRand, "rand."+fn.Name())
		}
	}
}

// noteGlobalWrite records a package-level-variable write leaf fact.
func (g *CallGraph) noteGlobalWrite(cur *Node, lhs ast.Expr) {
	v := writeTarget(cur.Pkg.Info, lhs)
	if v == nil || !isPackageLevel(v) {
		return
	}
	g.setLeaf(cur, EffectGlobalWrite, "package-level var "+v.Name())
}

// setLeaf seeds an effect fact; the first (source-order) culprit wins so
// chain rendering is deterministic.
func (g *CallGraph) setLeaf(n *Node, e Effect, detail string) {
	if !n.leaf[e].has {
		n.leaf[e] = leafFact{has: true, detail: detail}
	}
}

// addEdge appends a deduplicated call edge.
func (g *CallGraph) addEdge(from, to *Node) {
	if from == nil || to == nil || from == to {
		return
	}
	if from.callSet == nil {
		from.callSet = map[*Node]bool{}
	}
	if from.callSet[to] {
		return
	}
	from.callSet[to] = true
	from.Calls = append(from.Calls, to)
}

// propagate runs a multi-source BFS per effect over reverse edges: every
// transitive caller of a leaf inherits the effect, with next-hop pointers
// recording the shortest chain. Cycles terminate because a node is
// assigned a distance at most once.
func (g *CallGraph) propagate() {
	for e := Effect(0); e < numEffects; e++ {
		var queue []*Node
		for _, n := range g.nodes {
			if n.leaf[e].has {
				n.dist[e] = 1
				queue = append(queue, n)
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, c := range n.callers {
				if c.dist[e] == 0 {
					c.dist[e] = n.dist[e] + 1
					c.next[e] = n
					queue = append(queue, c)
				}
			}
		}
	}
}

// writeTarget resolves the variable an assignment's left-hand side
// ultimately stores into: x, x.f, x[i], *x all target x, and pkg.V targets
// V. Returns nil when the target is not a variable (call results, blank).
func writeTarget(info *types.Info, lhs ast.Expr) *types.Var {
	e := lhs
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if v.Name == "_" {
				return nil
			}
			tgt, _ := objectOf(info, v).(*types.Var)
			return tgt
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					tgt, _ := info.Uses[v.Sel].(*types.Var)
					return tgt
				}
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether v is a package-level variable (not a
// field, not a local).
func isPackageLevel(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// pkgPathMatches reports whether an import path ends with the given
// module-root-relative suffix ("internal/serve" matches
// "repro/internal/serve" and a bare "internal/serve").
func pkgPathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
