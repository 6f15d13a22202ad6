package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Noconcurrency enforces the kernel's single-thread discipline: every
// event handler runs to completion before the next fires, so components
// need no locking — and must not introduce goroutines, channels, or sync
// primitives, which would make event interleaving scheduler-dependent.
// The rule covers the whole module; a package is exempted only by a
// documented waiver in DefaultRules.
var Noconcurrency = &Analyzer{
	Name: "noconcurrency",
	Doc: "forbids go statements, channel operations, select, and sync imports " +
		"inside the single-threaded kernel packages",
	Run: runNoconcurrency,
}

func runNoconcurrency(p *Package) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, p.diag("noconcurrency", pos, format, args...))
	}
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil &&
				(path == "sync" || path == "sync/atomic") {
				report(spec.Pos(), "import of %q in a single-threaded kernel package; "+
					"the kernel runs one event at a time and needs no synchronization", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "go statement spawns a goroutine inside the single-threaded kernel; "+
					"schedule an event on the sim.Kernel instead")
			case *ast.SendStmt:
				report(n.Pos(), "channel send inside the single-threaded kernel; "+
					"deliver results through direct calls or scheduled events")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.Pos(), "channel receive inside the single-threaded kernel; "+
						"deliver results through direct calls or scheduled events")
				}
			case *ast.SelectStmt:
				report(n.Pos(), "select statement inside the single-threaded kernel")
			case *ast.ChanType:
				report(n.Pos(), "channel type inside the single-threaded kernel; "+
					"event ordering must come from the kernel queue, not channel scheduling")
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						report(n.Pos(), "range over a channel inside the single-threaded kernel")
					}
				}
			}
			return true
		})
	}
	return out
}
