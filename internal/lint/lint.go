// Package lint implements haechilint, the static-analysis suite that
// machine-checks the determinism contract of the simulated-RDMA stack
// (DESIGN.md, "Determinism contract").
//
// The whole reproduction rests on the promise that the fabric is a
// deterministic discrete-event simulation: every experiment is exactly
// replayable from a seed. One stray time.Now, global math/rand call, or
// unordered map iteration in a scheduling path silently breaks that, so
// this package turns the contract into a machine-checked invariant.
//
// The suite is stdlib-only (go/parser, go/ast, go/types); it adds no
// module dependencies and runs offline. Nine analyzers ship by default.
// Six are per-file syntactic checks:
//
//   - walltime: wall-clock time is forbidden; simulated time comes from
//     the sim.Kernel clock.
//   - globalrand: the process-global math/rand source is forbidden;
//     randomness flows through the kernel RNG or an explicitly seeded
//     *rand.Rand.
//   - maporder: map iteration whose body schedules events, appends
//     results, sends on channels, or accumulates floats must sort its
//     keys first or carry a //lint:ordered justification.
//   - noconcurrency: the single-threaded kernel packages may not use
//     goroutines, channels, or sync primitives.
//   - floateq: ==/!= between floating-point operands in QoS/capacity
//     math is rounding-order fragile (exact-zero sentinel checks are
//     exempt).
//   - parallelimport: internal/parallel (the worker pool) may only be
//     imported by the documented orchestration waivers.
//
// Three are whole-module interprocedural checks built on a conservative
// callgraph (DESIGN.md §10):
//
//   - sharedwrite: no write to package-level state from code reachable
//     from parallel worker bodies or kernel event code, unless the
//     variable carries a single-writer allowlist entry.
//   - timetaint: no wall-clock / global-rand derived value may flow —
//     through any number of calls, including waived packages — into
//     kernel event scheduling (Kernel.Schedule/At/Every/RunUntil/
//     RunBefore).
//   - waiverdrift: every Exclude waiver in the active rule set must be
//     live (match a package where the analyzer actually reports);
//     dead or over-broad waivers are findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Pkg is the module-relative path of the package the diagnostic is
	// attributed to ("." for module-level findings such as waiverdrift).
	// Pattern filtering in cmd/haechilint keys on it.
	Pkg string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one check over a type-checked package (Run) or over the
// whole module at once (RunModule). Exactly one of the two is set.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Package) []Diagnostic
	// RunModule runs once per lint invocation with every package loaded;
	// interprocedural analyzers (sharedwrite, timetaint, waiverdrift)
	// live here. Implementations must return diagnostics already sorted
	// (SortDiagnostics) so output never depends on map iteration order.
	RunModule func(*Module) []Diagnostic
}

// Package is a parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the full import path; Rel is the module-relative directory
	// ("." for the module root).
	Path string
	Rel  string
	Name string
	Fset *token.FileSet

	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

func (p *Package) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
		Pkg:      p.Rel,
	}
}

// file returns the AST file containing pos.
func (p *Package) file(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// orderedAnnotation is the escape hatch for maporder: a justified,
// deliberately unordered map iteration.
const orderedAnnotation = "lint:ordered"

// hasOrderedAnnotation reports whether a //lint:ordered comment is
// attached to the statement at pos: trailing on the same line, or on the
// line directly above it.
func (p *Package) hasOrderedAnnotation(pos token.Pos) bool {
	f := p.file(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, grp := range f.Comments {
		for _, c := range grp.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, orderedAnnotation) {
				continue
			}
			at := p.Fset.Position(c.Pos()).Line
			if at == line || at == line-1 {
				return true
			}
		}
	}
	return false
}

// parentMap records each node's syntactic parent within a file.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	m := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return m
}

// Rule scopes an analyzer to part of the module tree.
type Rule struct {
	Analyzer *Analyzer
	// Include lists module-relative path prefixes the analyzer applies
	// to; empty means every package.
	Include []string
	// Exclude lists module-relative path prefixes exempted from the
	// analyzer. Every entry is a standing, documented waiver.
	Exclude []string
}

// Applies reports whether the rule covers the package at module-relative
// path rel.
func (r Rule) Applies(rel string) bool {
	if matchAny(r.Exclude, rel) {
		return false
	}
	return len(r.Include) == 0 || matchAny(r.Include, rel)
}

func matchAny(prefixes []string, rel string) bool {
	for _, pfx := range prefixes {
		if rel == pfx || strings.HasPrefix(rel, pfx+"/") {
			return true
		}
	}
	return false
}

// KernelPackages lists the single-threaded discrete-event packages: code
// here runs entirely inside sim.Kernel event handlers, so it needs no
// locking — and must not introduce any concurrency. The noconcurrency
// rule now covers the whole module (anything NOT listed here is also
// single-threaded unless it carries a documented waiver in
// DefaultRules); the list remains the canonical statement of which
// packages form the kernel proper.
var KernelPackages = []string{
	"internal/sim",
	"internal/rdma",
	"internal/core",
	"internal/kvstore",
	"internal/workload",
	"internal/experiments",
	"internal/metrics",
	"internal/cluster",
	"internal/trace",
}

// Module bundles every loaded package with the active rule set for the
// whole-module analyzers. The callgraph is built on first use and shared
// across analyzers.
type Module struct {
	// Packages is sorted by Rel (the loader's order).
	Packages []*Package
	// Rules is the rule set the run was invoked with; waiverdrift audits
	// it.
	Rules []Rule

	graph   *Callgraph
	pkgOf   map[*types.Package]*Package
	pkgInit bool
}

// NewModule prepares pkgs for module-level analysis under rules.
func NewModule(pkgs []*Package, rules []Rule) *Module {
	return &Module{Packages: pkgs, Rules: rules}
}

// Graph returns the module callgraph, building it on first call.
func (m *Module) Graph() *Callgraph {
	if m.graph == nil {
		m.graph = buildCallgraph(m.Packages)
	}
	return m.graph
}

// PackageOf maps a type-checker package back to the loaded *Package, or
// nil for packages outside the module (stdlib).
func (m *Module) PackageOf(tp *types.Package) *Package {
	if !m.pkgInit {
		m.pkgOf = make(map[*types.Package]*Package, len(m.Packages))
		for _, p := range m.Packages {
			m.pkgOf[p.Types] = p
		}
		m.pkgInit = true
	}
	return m.pkgOf[tp]
}

// DefaultRules is the shipped haechilint configuration. Scope waivers:
//
//   - walltime excludes cmd/haechibench: it measures the real runtime of
//     the tool itself (how long a simulation takes to execute), not
//     simulated time, so wall-clock use there is correct.
//   - noconcurrency covers the entire module with one standing waiver
//     (DESIGN.md §6): internal/parallel, the one deliberate concurrency
//     boundary (the sweep runner that executes independent kernels on
//     worker goroutines and merges results by input index).
//   - parallelimport scopes that boundary: only the orchestration
//     layers that drive whole kernels from outside may import
//     internal/parallel — internal/experiments (the one runner of every
//     experiment's plan of runs) and internal/sim/shard (the
//     sharded-kernel coordinator, whose quantum protocol keeps results
//     byte-identical at any worker count). See DESIGN.md §6.
//
// The three interprocedural analyzers (sharedwrite, timetaint,
// waiverdrift) run module-wide with no waivers: sharedwrite's escape
// hatch is its own allowlist (DESIGN.md §10), timetaint deliberately
// sees through the walltime waiver, and waiverdrift audits this very
// rule set.
func DefaultRules() []Rule {
	return []Rule{
		{Analyzer: Walltime, Exclude: []string{"cmd/haechibench"}},
		{Analyzer: Globalrand},
		{Analyzer: Maporder},
		{Analyzer: Noconcurrency, Exclude: []string{"internal/parallel"}},
		{Analyzer: Floateq, Include: []string{".", "internal"}},
		{Analyzer: Parallelimport, Exclude: []string{"internal/experiments", "internal/sim/shard"}},
		{Analyzer: Sharedwrite},
		{Analyzer: Timetaint},
		{Analyzer: Waiverdrift},
	}
}

// Analyzers returns the nine shipped analyzers, unscoped.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Walltime, Globalrand, Maporder, Noconcurrency, Floateq, Parallelimport,
		Sharedwrite, Timetaint, Waiverdrift,
	}
}

// Run applies every rule to every package it covers and returns the
// diagnostics sorted by position. Per-package analyzers run on each
// package their rule covers; module analyzers run once over everything
// (they see waived packages too) and their diagnostics are then filtered
// by rule scope on the attributed package.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	m := NewModule(pkgs, rules)
	var out []Diagnostic
	for _, r := range rules {
		switch {
		case r.Analyzer.Run != nil:
			for _, p := range pkgs {
				if r.Applies(p.Rel) {
					out = append(out, r.Analyzer.Run(p)...)
				}
			}
		case r.Analyzer.RunModule != nil:
			for _, d := range r.Analyzer.RunModule(m) {
				if r.Applies(d.Pkg) {
					out = append(out, d)
				}
			}
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer,
// message — a total order, so output never depends on map iteration or
// traversal order anywhere upstream.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
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
}
