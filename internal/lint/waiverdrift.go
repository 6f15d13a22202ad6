package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// Waiverdrift audits the active rule set itself: every Exclude entry is
// a standing waiver, and waivers rot. A waiver is dead when it matches
// no package in the module (the waived code moved or was deleted), and
// over-broad when the excluded packages would produce no findings anyway
// (the waived construct is gone, so the exemption now covers future
// violations for free). Both are findings: shrinking a waiver is always
// safe, and keeping the inventory minimal is what makes the pinned
// waiver set (TestDefaultRulesWaivers) meaningful. Only per-package
// analyzers are audited — the module-wide analyzers take no waivers by
// policy.
var Waiverdrift = &Analyzer{
	Name: "waiverdrift",
	Doc: "reports dead waivers (exclude matches no package) and over-broad " +
		"waivers (the excluded packages produce no findings)",
	RunModule: runWaiverdrift,
}

func runWaiverdrift(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, r := range m.Rules {
		if r.Analyzer.Run == nil {
			continue
		}
		for _, excl := range r.Exclude {
			matched, live := false, false
			for _, p := range m.Packages {
				if p.Rel != excl && !strings.HasPrefix(p.Rel, excl+"/") {
					continue
				}
				matched = true
				if len(r.Analyzer.Run(p)) > 0 {
					live = true
					break
				}
			}
			switch {
			case !matched:
				out = append(out, waiverDiag(r.Analyzer.Name, excl,
					"matches no package in the module; delete the stale exclude"))
			case !live:
				out = append(out, waiverDiag(r.Analyzer.Name, excl,
					"is unused: the analyzer finds nothing in the excluded packages; narrow or delete it"))
			}
		}
	}
	SortDiagnostics(out)
	return out
}

func waiverDiag(analyzer, excl, why string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: "(waivers)", Line: 1, Column: 1},
		Analyzer: "waiverdrift",
		Message:  fmt.Sprintf("%s waiver %q %s", analyzer, excl, why),
		Pkg:      ".",
	}
}
