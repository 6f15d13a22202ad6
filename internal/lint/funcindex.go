package lint

// A module-wide index of function bodies for timetaint: every declared
// function/method plus every function literal, and a resolver from an
// expression that statically denotes a function to its node. There are
// no call edges; timetaint's summaries propagate through calls it
// resolves at each call site (DESIGN.md §10).

import (
	"fmt"
	"go/ast"
	"go/types"
)

// FuncNode is one indexed function: a declared function/method, or a
// single function literal.
type FuncNode struct {
	Pkg  *Package
	Obj  *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
}

// Body returns the function body, or nil for bodiless declarations.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// describe names the node for diagnostics.
func (n *FuncNode) describe() string {
	if n.Obj != nil {
		return n.Obj.Name()
	}
	return fmt.Sprintf("func literal at line %d", n.Pkg.Fset.Position(n.Lit.Pos()).Line)
}

// funcIndex holds every function of the module. Nodes is deterministic:
// packages in loader order (sorted by Rel), files in parse order,
// functions in position order.
type funcIndex struct {
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

func newFuncIndex(pkgs []*Package) *funcIndex {
	idx := &funcIndex{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch d := x.(type) {
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[d.Name].(*types.Func)
					n := &FuncNode{Pkg: p, Obj: fn, Decl: d}
					idx.Nodes = append(idx.Nodes, n)
					if fn != nil {
						idx.byObj[fn] = n
					}
				case *ast.FuncLit:
					n := &FuncNode{Pkg: p, Lit: d}
					idx.Nodes = append(idx.Nodes, n)
					idx.byLit[d] = n
				}
				return true
			})
		}
	}
	return idx
}

// funcValue resolves an expression to its node when the expression
// statically denotes a function: a literal, a named function, or a
// (possibly bound) method.
func (idx *funcIndex) funcValue(p *Package, expr ast.Expr) *FuncNode {
	switch v := expr.(type) {
	case *ast.FuncLit:
		return idx.byLit[v]
	case *ast.Ident:
		if fn, ok := p.Info.Uses[v].(*types.Func); ok {
			return idx.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[v.Sel].(*types.Func); ok {
			return idx.byObj[fn]
		}
	case *ast.ParenExpr:
		return idx.funcValue(p, v.X)
	}
	return nil
}

// namedTypeName returns the name of the (possibly pointer-wrapped) named
// type, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
