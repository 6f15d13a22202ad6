package lint

import (
	"go/ast"
	"go/types"
)

// Globalrand forbids the process-global math/rand source. Every random
// draw must be attributable to an experiment seed: use the kernel RNG
// (sim.Kernel.Rand) or a *rand.Rand constructed from an explicit seed,
// as workload and cluster already do.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc: "forbids top-level math/rand functions and un-seeded rand.New; " +
		"randomness must flow through the kernel RNG or an explicitly seeded *rand.Rand",
	Run: runGlobalrand,
}

// sourceConstructors are the explicit-seed source builders accepted as
// the direct argument of rand.New, by package path and name.
var sourceConstructors = map[string]bool{
	"math/rand.NewSource":     true,
	"math/rand/v2.NewPCG":     true,
	"math/rand/v2.NewChaCha8": true,
	// The per-tenant key stream (DESIGN.md §6).
	"github.com/haechi-qos/haechi/internal/workload.NewKeySource": true,
}

func isSourceConstructor(fn *types.Func) bool {
	return fn.Pkg() != nil && sourceConstructors[fn.Pkg().Path()+"."+fn.Name()]
}

func runGlobalrand(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		parents := parentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on a plumbed *rand.Rand are the approved path
			}
			switch name := fn.Name(); {
			case isSourceConstructor(fn) || name == "NewZipf":
				// NewZipf takes the *rand.Rand it will draw from.
			case name == "New":
				if !seededRandNew(p, sel, parents) {
					out = append(out, p.diag("globalrand", sel.Pos(),
						"rand.New without a direct rand.NewSource(seed) argument hides the seed; "+
							"construct the source inline from an explicit seed"))
				}
			default:
				out = append(out, p.diag("globalrand", sel.Pos(),
					"%s.%s draws from the process-global source and is not replayable; "+
						"use the kernel RNG (sim.Kernel.Rand) or a seeded *rand.Rand", path, name))
			}
			return true
		})
	}
	return out
}

// seededRandNew reports whether sel (a use of rand.New) is called
// directly with an explicit-seed source constructor, e.g.
// rand.New(rand.NewSource(seed)).
func seededRandNew(p *Package, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node) bool {
	call, ok := parents[sel].(*ast.CallExpr)
	if !ok || call.Fun != sel || len(call.Args) == 0 {
		return false
	}
	argCall, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch f := argCall.Fun.(type) {
	case *ast.Ident: // the constructor's own package calls it unqualified
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	return ok && isSourceConstructor(fn)
}
