package lint

import "go/ast"

// fmtFormatFuncs are the fmt entry points checked by sealedreport; the
// int value is the index of the first data argument (past writers).
var fmtFormatFuncs = map[string]int{
	"Print": 0, "Printf": 0, "Println": 0, "Sprint": 0, "Sprintf": 0,
	"Sprintln": 0, "Fprint": 1, "Fprintf": 1, "Fprintln": 1,
}

// SealedReport flags passing a raw map to an fmt print/format call.
// Reports and tables in this repo are rendered through sealed,
// pre-sorted paths (serve's tally.seal, harness.Table.Render,
// reqtrace's summaries); an ad-hoc dump of map contents bypasses the
// sort discipline those paths guarantee — and even where fmt sorts keys
// itself, the formatting belongs in the sealed path, not scattered at
// call sites.
var SealedReport = &Analyzer{
	Name: "sealedreport",
	Doc:  "reports/tables come from sealed summarize paths; no ad-hoc fmt of raw map contents",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, name, ok := calleePkgFunc(p.Info, call)
				if !ok || pkg != "fmt" {
					return true
				}
				skip, ok := fmtFormatFuncs[name]
				if !ok {
					return true
				}
				for _, arg := range call.Args[min(skip, len(call.Args)):] {
					if isMapType(p.Info.TypeOf(arg)) {
						p.Reportf(arg.Pos(), "fmt.%s of a raw map bypasses the sealed report paths; summarize into sorted rows first", name)
					}
				}
				return true
			})
		}
	},
}
