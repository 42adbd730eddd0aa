package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one determinism check: a name (used in diagnostics and
// //lint:ignore directives), a one-line doc string, and a Run function
// that inspects a type-checked package and reports findings. Analyzers
// with NeedsGraph set receive the shared interprocedural call graph —
// built once per Run over the whole package set — through Pass.Graph.
type Analyzer struct {
	Name       string
	Doc        string
	NeedsGraph bool
	Run        func(*Pass)
}

// Pass is the per-package view an Analyzer runs over: the parsed files,
// the type-checked package and its type info, and a report sink. Graph is
// the module-wide call graph with propagated effects, shared by every
// graph-consuming analyzer in the run; it is nil for analyzers that did
// not request it.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Graph *CallGraph

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportChainf(pos, nil, format, args...)
}

// ReportChainf records a diagnostic at pos carrying a call chain — the
// shortest path from an entrypoint or job closure to the effect leaf,
// rendered by gmlake-lint's -why flag and included in its -json output.
func (p *Pass) ReportChainf(pos token.Pos, chain []string, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
		pos:      pos,
	})
}

// Diagnostic is one finding: which analyzer fired, where, and why. Chain,
// when set, is the shortest call chain from the reported function to the
// offending leaf, ending with the culprit ("serve.Serve",
// "serve.logTick", "time.Now").
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Chain    []string

	// pos is the original token position, kept so suppression can anchor
	// to the enclosing statement's start line (a gofmt-split expression
	// may place the diagnostic lines below the statement's first line).
	pos token.Pos
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full determinism-contract suite, in stable order: the
// per-call-site analyzers first, then the interprocedural flow analyzers
// built on the shared call graph.
func All() []*Analyzer {
	return []*Analyzer{
		WallClock,
		GlobalRand,
		MapOrder,
		FloatOrder,
		SealedReport,
		WallClockFlow,
		RandFlow,
		ParCapture,
	}
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression directives (reporting malformed and unused ones under the
// ignorecheck pseudo-analyzer), and returns the surviving diagnostics
// sorted by file, line, column, analyzer and message — the linter's own
// output obeys the byte-identity contract it enforces.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// The interprocedural analyzers share one call graph over the whole
	// package set: built (and its effects propagated) exactly once per
	// run, not per analyzer or per package.
	var graph *CallGraph
	for _, a := range analyzers {
		if a.NeedsGraph {
			graph = BuildCallGraph(pkgs)
			break
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a,
				sink:     &pkgDiags,
			}
			if a.NeedsGraph {
				pass.Graph = graph
			}
			a.Run(pass)
		}
		diags = append(diags, applyIgnores(pkg, analyzers, pkgDiags)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
