package lint

import (
	"strconv"
	"strings"
)

// Parallelimport confines the module's one concurrency primitive:
// internal/parallel (the sweep runner) may only be imported by the
// orchestration layer that drives whole, independent runs from outside
// — the experiment runner. Everything else runs inside a kernel's
// event loop, where pulling in goroutines would reintroduce exactly
// the scheduler-dependent interleaving the noconcurrency rule exists
// to forbid. The excluded package is a standing, documented waiver
// (DESIGN.md §6).
var Parallelimport = &Analyzer{
	Name: "parallelimport",
	Doc: "forbids importing internal/parallel outside the documented " +
		"orchestration waiver (the experiment runner's sweeps)",
	Run: runParallelimport,
}

func runParallelimport(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path == "internal/parallel" || strings.HasSuffix(path, "/internal/parallel") {
				out = append(out, p.diag("parallelimport", spec.Pos(),
					"import of %q outside the documented concurrency waivers; "+
						"simulation code runs single-threaded inside a kernel — orchestrate "+
						"parallelism from the waived packages (DESIGN.md §6) or stay sequential", path))
			}
		}
	}
	return out
}
