package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Timetaint tracks wall-clock and global-rand derived values
// interprocedurally into kernel event scheduling. The per-file walltime
// and globalrand analyzers flag the call sites themselves, but a waived
// package (cmd/haechibench may read time.Now) can launder a wall-clock
// value through helper functions into Kernel.Schedule/At/Every/
// RunUntil/RunBefore — which would silently break replayability.
// Timetaint has no waivers: it runs module-wide and follows values
// through any number of calls via two function summaries (taints its
// return value; forwards a parameter into a sink), computed to a
// fixpoint over the module callgraph. The intraprocedural propagation
// is flow-insensitive; values laundered through struct fields or
// captured closure variables are not tracked (DESIGN.md §10).
var Timetaint = &Analyzer{
	Name: "timetaint",
	Doc: "forbids wall-clock/global-rand derived values from reaching kernel " +
		"event scheduling, through any number of calls and waived packages",
	RunModule: runTimetaint,
}

// kernelSinkMethods are the scheduling entry points of a type named
// Kernel (name-matched so fixtures can model the kernel).
var kernelSinkMethods = map[string]bool{
	"Schedule":  true,
	"At":        true,
	"Every":     true,
	"RunUntil":  true,
	"RunBefore": true,
}

type taintSummary struct {
	// returnsTaint: some return value derives from a taint source.
	returnsTaint bool
	// paramToSink[i]: parameter i flows into a kernel scheduling sink
	// (directly or through further calls). Computed for declared
	// functions only — literals are invoked through values the analysis
	// does not resolve.
	paramToSink []bool
}

type taintEnv struct {
	g   *Callgraph
	sum map[*FuncNode]*taintSummary
}

func runTimetaint(m *Module) []Diagnostic {
	g := m.Graph()
	e := &taintEnv{g: g, sum: make(map[*FuncNode]*taintSummary, len(g.Nodes))}
	for _, n := range g.Nodes {
		s := &taintSummary{}
		if n.Obj != nil {
			if sig, ok := n.Obj.Type().(*types.Signature); ok {
				s.paramToSink = make([]bool, sig.Params().Len())
			}
		}
		e.sum[n] = s
	}

	// Summary fixpoint: bits only flip false->true, so iterating until a
	// full pass changes nothing terminates.
	for {
		changed := false
		for _, n := range g.Nodes {
			if n.Body() == nil {
				continue
			}
			s := e.sum[n]
			rt, _ := e.analyze(n, -1, nil)
			if rt && !s.returnsTaint {
				s.returnsTaint = true
				changed = true
			}
			for i := range s.paramToSink {
				if s.paramToSink[i] {
					continue
				}
				if _, rs := e.analyze(n, i, nil); rs {
					s.paramToSink[i] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	var out []Diagnostic
	for _, n := range g.Nodes {
		if n.Body() == nil {
			continue
		}
		p := n.Pkg
		e.analyze(n, -1, func(pos token.Pos, format string, args ...any) {
			out = append(out, p.diag("timetaint", pos, format, args...))
		})
	}
	SortDiagnostics(out)
	return out
}

// analyze runs the flow-insensitive taint pass over n's body. seedParam
// seeds one parameter as tainted (-1 for none). With report set, a final
// pass over the stable taint set emits diagnostics at sink call sites.
func (e *taintEnv) analyze(n *FuncNode, seedParam int, report func(pos token.Pos, format string, args ...any)) (returnsTaint, reachesSink bool) {
	body := n.Body()
	p := n.Pkg
	tainted := make(map[*types.Var]bool)
	var namedResults []*types.Var
	if n.Obj != nil {
		sig := n.Obj.Type().(*types.Signature)
		if seedParam >= 0 && seedParam < sig.Params().Len() {
			tainted[sig.Params().At(seedParam)] = true
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if r := sig.Results().At(i); r.Name() != "" {
				namedResults = append(namedResults, r)
			}
		}
	}

	var exprTainted func(expr ast.Expr) bool
	exprTainted = func(expr ast.Expr) bool {
		switch v := expr.(type) {
		case *ast.Ident:
			obj, ok := p.Info.Uses[v].(*types.Var)
			return ok && tainted[obj]
		case *ast.SelectorExpr:
			return exprTainted(v.X)
		case *ast.CallExpr:
			if isTaintSource(p, v) {
				return true
			}
			if callee := e.calleeNode(p, v); callee != nil && e.sum[callee].returnsTaint {
				return true
			}
			// Method call on a tainted receiver (time.Now().UnixNano())
			// or pass-through of a tainted argument (conversions, min/max).
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && exprTainted(sel.X) {
				return true
			}
			for _, arg := range v.Args {
				if exprTainted(arg) {
					return true
				}
			}
			return false
		case *ast.BinaryExpr:
			return exprTainted(v.X) || exprTainted(v.Y)
		case *ast.ParenExpr:
			return exprTainted(v.X)
		case *ast.UnaryExpr:
			return exprTainted(v.X)
		case *ast.StarExpr:
			return exprTainted(v.X)
		case *ast.IndexExpr:
			return exprTainted(v.X)
		case *ast.SliceExpr:
			return exprTainted(v.X)
		case *ast.TypeAssertExpr:
			return exprTainted(v.X)
		case *ast.KeyValueExpr:
			return exprTainted(v.Value)
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				if exprTainted(elt) {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	markTarget := func(lhs ast.Expr) bool {
		base := lhs
		for {
			switch v := base.(type) {
			case *ast.ParenExpr:
				base = v.X
			case *ast.IndexExpr:
				base = v.X
			case *ast.SelectorExpr:
				base = v.X
			case *ast.StarExpr:
				base = v.X
			default:
				id, ok := base.(*ast.Ident)
				if !ok {
					return false
				}
				obj, _ := p.Info.Uses[id].(*types.Var)
				if obj == nil {
					obj, _ = p.Info.Defs[id].(*types.Var)
				}
				if obj == nil || tainted[obj] {
					return false
				}
				tainted[obj] = true
				return true
			}
		}
	}

	// checkCalls scans one statement tree for sink reachability against
	// the current taint set, reporting when asked.
	checkCalls := func(x ast.Node, rep bool) {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return
		}
		if method, ok := sinkCall(p, call); ok {
			for _, arg := range call.Args {
				if exprTainted(arg) {
					reachesSink = true
					if rep {
						report(call.Pos(),
							"wall-clock/global-rand derived value flows into Kernel.%s; "+
								"event times must come from the kernel clock or a seeded RNG", method)
					}
					break
				}
			}
			return
		}
		callee := e.calleeNode(p, call)
		if callee == nil {
			return
		}
		ps := e.sum[callee].paramToSink
		for i, arg := range call.Args {
			if i >= len(ps) || !ps[i] {
				continue
			}
			if exprTainted(arg) {
				reachesSink = true
				if rep {
					report(call.Pos(),
						"wall-clock/global-rand derived value flows into kernel scheduling via %s; "+
							"event times must come from the kernel clock or a seeded RNG", callee.describe())
				}
				break
			}
		}
	}

	pass := func(rep bool) bool {
		changedLocal := false
		ast.Inspect(body, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.FuncLit:
				return false // separate node; captured-var taint untracked
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					if exprTainted(st.Rhs[0]) {
						for _, lhs := range st.Lhs {
							if markTarget(lhs) {
								changedLocal = true
							}
						}
					}
				} else {
					for i, rhs := range st.Rhs {
						if i < len(st.Lhs) && exprTainted(rhs) {
							if markTarget(st.Lhs[i]) {
								changedLocal = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, val := range st.Values {
					if !exprTainted(val) {
						continue
					}
					if len(st.Values) == 1 && len(st.Names) > 1 {
						for _, name := range st.Names {
							if markTarget(name) {
								changedLocal = true
							}
						}
					} else if i < len(st.Names) {
						if markTarget(st.Names[i]) {
							changedLocal = true
						}
					}
				}
			case *ast.RangeStmt:
				if exprTainted(st.X) {
					if st.Key != nil && markTarget(st.Key) {
						changedLocal = true
					}
					if st.Value != nil && markTarget(st.Value) {
						changedLocal = true
					}
				}
			case *ast.ReturnStmt:
				if len(st.Results) == 0 {
					for _, r := range namedResults {
						if tainted[r] {
							returnsTaint = true
						}
					}
				}
				for _, res := range st.Results {
					if exprTainted(res) {
						returnsTaint = true
					}
				}
			}
			checkCalls(x, rep)
			return true
		})
		return changedLocal
	}

	for pass(false) {
	}
	if report != nil {
		reachesSink = false
		pass(true)
	}
	return returnsTaint, reachesSink
}

// calleeNode resolves a call to the module function it statically
// invokes (named function, method, or immediately-invoked literal).
func (e *taintEnv) calleeNode(p *Package, call *ast.CallExpr) *FuncNode {
	return e.g.funcValue(p, call.Fun)
}

// isTaintSource matches calls that introduce wall-clock or global-rand
// values: the walltime analyzer's banned time functions, and top-level
// math/rand draws that are not the approved seeded constructors.
func isTaintSource(p *Package, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch path := fn.Pkg().Path(); path {
	case "time":
		_, banned := bannedWalltime[fn.Name()]
		return banned
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return false // methods on a plumbed, seeded *rand.Rand
		}
		name := fn.Name()
		return !isSourceConstructor(fn) && name != "NewZipf" && name != "New"
	}
	return false
}

// sinkCall matches method calls Schedule/At/Every/RunUntil/RunBefore on
// a receiver type named Kernel.
func sinkCall(p *Package, call *ast.CallExpr) (method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn, isFn := p.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || !kernelSinkMethods[fn.Name()] {
		return "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || namedTypeName(sig.Recv().Type()) != "Kernel" {
		return "", false
	}
	return fn.Name(), true
}
