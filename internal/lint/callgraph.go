package lint

// A conservative whole-module callgraph over the stdlib-only loader.
// Nodes are declared functions/methods plus every function literal;
// edges are "may call": a function reference anywhere in a body counts
// as a call, because a referenced function value can be invoked later
// through a variable, field, or map the analysis cannot see through.
// That over-approximation is what makes reachability (sharedwrite) and
// summary propagation (timetaint) sound for the patterns this module
// actually uses; the residual blind spots are documented in DESIGN.md
// §10.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncNode is one callgraph node: a declared function/method, or a
// single function literal (literals get their own node so worker bodies
// passed to parallel.Map can be roots).
type FuncNode struct {
	Pkg  *Package
	Obj  *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions

	edges []*FuncNode // deduplicated, in first-reference order
}

// Body returns the function body, or nil for bodiless declarations.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Pos is the declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// describe names the node for diagnostics.
func (n *FuncNode) describe() string {
	if n.Obj != nil {
		return n.Obj.Name()
	}
	return fmt.Sprintf("func literal at line %d", n.Pkg.Fset.Position(n.Lit.Pos()).Line)
}

// Callgraph is the module-wide graph. Nodes is deterministic: packages
// in loader order (sorted by Rel), files in parse order, declarations in
// position order.
type Callgraph struct {
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// initRefs lists, per package, the function nodes referenced from
	// package-level variable initializers. Such functions (init-time
	// registered callbacks, e.g. the experiments registry) become
	// reachable as soon as any function of the package does.
	initRefs map[*Package][]*FuncNode
}

func buildCallgraph(pkgs []*Package) *Callgraph {
	g := &Callgraph{
		byObj:    make(map[*types.Func]*FuncNode),
		byLit:    make(map[*ast.FuncLit]*FuncNode),
		initRefs: make(map[*Package][]*FuncNode),
	}
	// Pass 1: create every node so cross-package references resolve.
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch d := x.(type) {
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[d.Name].(*types.Func)
					n := &FuncNode{Pkg: p, Obj: fn, Decl: d}
					g.Nodes = append(g.Nodes, n)
					if fn != nil {
						g.byObj[fn] = n
					}
				case *ast.FuncLit:
					n := &FuncNode{Pkg: p, Lit: d}
					g.Nodes = append(g.Nodes, n)
					g.byLit[d] = n
				}
				return true
			})
		}
	}
	// Pass 2: edges from each node's immediate body (nested literals are
	// their own nodes and get an edge instead of inlined references),
	// plus the per-package initializer reference lists.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[d.Name].(*types.Func)
					if n := g.byObj[fn]; n != nil && d.Body != nil {
						g.collectEdges(p, d.Body, n)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, val := range vs.Values {
							g.collectInitRefs(p, val)
						}
					}
				}
			}
		}
	}
	return g
}

// collectEdges adds an edge from n to every function referenced in body,
// stopping at nested function literals (edge to the literal node, whose
// own body is walked when the literal's node is processed — which
// happens here too, recursively, since literal nodes never appear as
// top-level decls).
func (g *Callgraph) collectEdges(p *Package, body ast.Node, n *FuncNode) {
	seen := make(map[*FuncNode]bool)
	add := func(t *FuncNode) {
		if t != nil && t != n && !seen[t] {
			seen[t] = true
			n.edges = append(n.edges, t)
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			lit := g.byLit[v]
			add(lit)
			if lit != nil {
				g.collectEdges(p, v.Body, lit)
			}
			return false
		case *ast.Ident:
			if fn, ok := p.Info.Uses[v].(*types.Func); ok {
				add(g.byObj[fn])
			}
		}
		return true
	})
}

// collectInitRefs records function references inside a package-level
// variable initializer expression.
func (g *Callgraph) collectInitRefs(p *Package, expr ast.Expr) {
	ast.Inspect(expr, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			lit := g.byLit[v]
			if lit != nil {
				g.initRefs[p] = append(g.initRefs[p], lit)
				g.collectEdges(p, v.Body, lit)
			}
			return false
		case *ast.Ident:
			if fn, ok := p.Info.Uses[v].(*types.Func); ok {
				if t := g.byObj[fn]; t != nil {
					g.initRefs[p] = append(g.initRefs[p], t)
				}
			}
		}
		return true
	})
}

// WorkerRoots returns the function nodes passed as worker bodies at
// parallel.Map call sites anywhere in the module (any package whose
// import path ends in "parallel" counts, so fixtures can model it).
// Arguments whose function value the analysis cannot resolve (an
// arbitrary expression yielding a func) are skipped — a documented
// soundness caveat; the module passes literals, named functions, and
// bound methods only.
func (g *Callgraph) WorkerRoots() []*FuncNode {
	var roots []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		p := n.Pkg
		ast.Inspect(body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok && x != ast.Node(n.Lit) {
				return false // nested literal: scanned as its own node
			}
			call, ok := x.(*ast.CallExpr)
			if !ok || !isParallelWorkerCall(p, call) {
				return true
			}
			for _, arg := range call.Args {
				t := g.funcValue(p, arg)
				if t != nil && !seen[t] {
					seen[t] = true
					roots = append(roots, t)
				}
			}
			return true
		})
	}
	return roots
}

// funcValue resolves an expression to a callgraph node when the
// expression statically denotes a function: a literal, a named function,
// or a (possibly bound) method.
func (g *Callgraph) funcValue(p *Package, expr ast.Expr) *FuncNode {
	switch v := expr.(type) {
	case *ast.FuncLit:
		return g.byLit[v]
	case *ast.Ident:
		if fn, ok := p.Info.Uses[v].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[v.Sel].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.ParenExpr:
		return g.funcValue(p, v.X)
	}
	return nil
}

// isParallelWorkerCall matches parallel.Map(...).
func isParallelWorkerCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || pathBase(fn.Pkg().Path()) != "parallel" || fn.Name() != "Map" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// rootSet seeds a reachability walk; reason labels diagnostics.
type rootSet struct {
	reason string
	nodes  []*FuncNode
}

// reach walks edges breadth-first from the root sets and returns every
// node reached, tagged with the reason of the first root set to reach it
// (deterministic: sets and their nodes are visited in order). Reaching
// any function of a package also reaches the functions referenced from
// that package's var initializers (init-registered callbacks).
func (g *Callgraph) reach(sets []rootSet) map[*FuncNode]string {
	reached := make(map[*FuncNode]string)
	pkgSeen := make(map[*Package]bool)
	var queue []*FuncNode
	visit := func(n *FuncNode, reason string) {
		if n == nil {
			return
		}
		if _, ok := reached[n]; ok {
			return
		}
		reached[n] = reason
		queue = append(queue, n)
	}
	for _, s := range sets {
		for _, n := range s.nodes {
			visit(n, s.reason)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		reason := reached[n]
		if !pkgSeen[n.Pkg] {
			pkgSeen[n.Pkg] = true
			for _, t := range g.initRefs[n.Pkg] {
				visit(t, reason)
			}
		}
		for _, t := range n.edges {
			visit(t, reason)
		}
	}
	return reached
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

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
