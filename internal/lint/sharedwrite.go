package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Sharedwrite enforces single-writer ownership of package-level state:
// no function reachable from a parallel worker body (arguments to
// parallel.Map) or from kernel event code (any function in
// KernelPackages — kernel events execute inside Map's workers, one run
// per worker, when a sweep runs in parallel) may write a package-level
// variable, unless the
// variable carries an entry in the sharedwrite allowlist declaring who
// the single writer is and why that is safe (DESIGN.md §10).
var Sharedwrite = NewSharedwrite(SharedWriteAllowlist)

// SharedWriteAllowlist declares single-writer ownership for
// package-level variables that are legitimately written from
// worker-reachable code. Key format: "<module-relative package>.<var>",
// e.g. "internal/core.Verbose"; the value is the rationale.
// Every entry must match at least one reachable write — stale entries
// are themselves findings. Currently empty: the module keeps all
// worker-reachable state in struct fields owned by a single kernel.
var SharedWriteAllowlist = map[string]string{}

// NewSharedwrite builds the analyzer against a specific allowlist
// (tests use private lists; the shipped Sharedwrite uses
// SharedWriteAllowlist).
func NewSharedwrite(allow map[string]string) *Analyzer {
	return &Analyzer{
		Name: "sharedwrite",
		Doc: "forbids writes to package-level state from code reachable from " +
			"parallel worker bodies or kernel event code unless the variable has " +
			"a single-writer allowlist entry",
		RunModule: func(m *Module) []Diagnostic { return runSharedwrite(m, allow) },
	}
}

func runSharedwrite(m *Module, allow map[string]string) []Diagnostic {
	g := m.Graph()

	var kernelRoots []*FuncNode
	for _, n := range g.Nodes {
		if n.Obj == nil || !matchAny(KernelPackages, n.Pkg.Rel) {
			continue
		}
		if n.Obj.Name() == "init" && n.Obj.Type().(*types.Signature).Recv() == nil {
			continue // package init runs once, single-threaded, before any worker
		}
		kernelRoots = append(kernelRoots, n)
	}
	reached := g.reach([]rootSet{
		{reason: "parallel worker bodies", nodes: g.WorkerRoots()},
		{reason: "kernel event code", nodes: kernelRoots},
	})

	var out []Diagnostic
	used := make(map[string]bool)
	for _, n := range g.Nodes {
		reason, ok := reached[n]
		if !ok {
			continue
		}
		body := n.Body()
		if body == nil {
			continue
		}
		p := n.Pkg
		check := func(lhs ast.Expr) {
			v := packageLevelVar(p, lhs)
			if v == nil {
				return
			}
			owner := m.PackageOf(v.Pkg())
			if owner == nil {
				return // outside the module (stdlib)
			}
			key := owner.Rel + "." + v.Name()
			if _, ok := allow[key]; ok {
				used[key] = true
				return
			}
			out = append(out, p.diag("sharedwrite", lhs.Pos(),
				"write to package-level variable %s from %s (reachable from %s); "+
					"declare single-writer ownership in the sharedwrite allowlist or move the write (DESIGN.md §10)",
				key, n.describe(), reason))
		}
		ast.Inspect(body, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.FuncLit:
				return false // nested literals are their own (reachable) nodes
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					check(lhs)
				}
			case *ast.IncDecStmt:
				check(st.X)
			}
			return true
		})
	}

	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if used[key] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      token.Position{Filename: "(sharedwrite allowlist)", Line: 1, Column: 1},
			Analyzer: "sharedwrite",
			Message:  "allowlist entry \"" + key + "\" matched no reachable write; delete the stale entry",
			Pkg:      ".",
		})
	}
	SortDiagnostics(out)
	return out
}

// packageLevelVar resolves an assignment target to the package-level
// variable it mutates: the base identifier of the expression (unwrapping
// selectors, indexes, derefs) when that identifier names a package-scope
// var. Writes through pointers held in locals are not attributed — a
// documented soundness caveat (DESIGN.md §10).
func packageLevelVar(p *Package, lhs ast.Expr) *types.Var {
	for {
		switch v := lhs.(type) {
		case *ast.ParenExpr:
			lhs = v.X
		case *ast.IndexExpr:
			lhs = v.X
		case *ast.SelectorExpr:
			// Qualified reference to another package's variable
			// (pkg.Var = x): the selector itself names the var.
			if obj, ok := p.Info.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj
			}
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		case *ast.Ident:
			obj, ok := p.Info.Uses[v].(*types.Var)
			if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				return nil
			}
			return obj
		default:
			return nil
		}
	}
}
