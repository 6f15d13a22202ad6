// Command haechilint runs the determinism & invariant lint suite over
// the module (see internal/lint and DESIGN.md "Determinism contract").
//
// Usage:
//
//	haechilint [-json] [package patterns]
//	haechilint -scope
//
// Patterns are module-relative directories; `dir/...` matches a subtree
// and `./...` (the default) analyzes every package. The whole module is
// always loaded and analyzed — the interprocedural analyzers need every
// package — and patterns only select which packages are reported on.
// -scope prints each shipped rule's include/exclude scope (the standing
// waivers) without analyzing anything. -json renders diagnostics as a
// sorted JSON array with module-relative file paths.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on
// load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/haechi-qos/haechi/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haechilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scope := fs.Bool("scope", false, "print each rule's include/exclude scope and exit")
	jsonOut := fs.Bool("json", false, "machine-readable JSON diagnostics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scope {
		printScopes(stdout)
		return 0
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "haechilint:", err)
		return 2
	}
	ld := lint.NewLoader()
	pkgs, err := ld.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "haechilint:", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.DefaultRules())
	if patterns := fs.Args(); len(patterns) > 0 {
		selected, err := filterPackages(pkgs, patterns)
		if err != nil {
			fmt.Fprintln(stderr, "haechilint:", err)
			return 2
		}
		keep := make(map[string]bool, len(selected))
		for _, p := range selected {
			keep[p.Rel] = true
		}
		var kept []lint.Diagnostic
		for _, d := range diags {
			// Module-level diagnostics (waiverdrift, allowlist audits)
			// carry Pkg "." and are reported when the root matches.
			if keep[d.Pkg] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	if *jsonOut {
		if err := writeDiagsJSON(stdout, root, diags); err != nil {
			fmt.Fprintln(stderr, "haechilint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "haechilint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}

// printScopes lists each default rule with its scope, making the
// standing waivers auditable from the command line (CI prints this next
// to the lint run so scope changes show up in logs).
func printScopes(w io.Writer) {
	for _, r := range lint.DefaultRules() {
		scope := "all packages"
		if len(r.Include) > 0 {
			scope = "include " + strings.Join(r.Include, ", ")
		}
		if len(r.Exclude) > 0 {
			scope += "; exclude " + strings.Join(r.Exclude, ", ")
		}
		fmt.Fprintf(w, "%-15s %s\n", r.Analyzer.Name, scope)
	}
}

// jsonDiag is the machine-readable diagnostic form: file paths are
// module-relative (synthetic positions like "(waivers)" pass through).
type jsonDiag struct {
	Pkg      string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeDiagsJSON(w io.Writer, root string, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiag{
			Pkg:      d.Pkg,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// filterPackages selects the packages matching the command-line
// patterns. No patterns (or "./...") means every package.
func filterPackages(pkgs []*lint.Package, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, p := range pkgs {
			if matchPattern(pat, p.Rel) {
				matched = true
				if !seen[p.Rel] {
					seen[p.Rel] = true
					out = append(out, p)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

func matchPattern(pat, rel string) bool {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "..." || pat == "." || pat == "" {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/")
	}
	return rel == pat
}
