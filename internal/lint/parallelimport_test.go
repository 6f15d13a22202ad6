package lint_test

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/lint"
)

// TestParallelimport drives the analyzer over in-memory sources. It
// reads only the files' import declarations, so no type-checking is
// needed — which also lets the fixture import the module path without
// the test loader having to resolve it.
func TestParallelimport(t *testing.T) {
	const bad = `package fixture

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/parallel"
)

var _ = fmt.Sprint
var _ = parallel.Map
`
	const good = `package fixture

import "fmt"

var _ = fmt.Sprint
`
	run := func(src string) []lint.Diagnostic {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		p := &lint.Package{Path: "fixture", Rel: "internal/kvstore", Name: "fixture", Fset: fset}
		p.Files = append(p.Files, f)
		return lint.Parallelimport.Run(p)
	}

	diags := run(bad)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "parallelimport" {
		t.Errorf("analyzer = %q", diags[0].Analyzer)
	}
	if !strings.Contains(diags[0].Message, "internal/parallel") ||
		!strings.Contains(diags[0].Message, "DESIGN.md") {
		t.Errorf("message %q should name the import and point at the waiver list", diags[0].Message)
	}
	if diags[0].Pos.Line != 6 {
		t.Errorf("diagnostic at line %d, want 6", diags[0].Pos.Line)
	}

	if diags := run(good); len(diags) != 0 {
		t.Errorf("clean file produced diagnostics: %v", diags)
	}
}

// TestParallelimportDefaultScope pins the shipped waiver list: the rule
// must exclude exactly the orchestration packages documented in
// DESIGN.md §6 and apply everywhere else.
func TestParallelimportDefaultScope(t *testing.T) {
	var rule *lint.Rule
	for _, r := range lint.DefaultRules() {
		if r.Analyzer == lint.Parallelimport {
			r := r
			rule = &r
		}
	}
	if rule == nil {
		t.Fatal("parallelimport missing from DefaultRules")
	}
	for _, rel := range []string{"internal/experiments", "internal/sim/shard"} {
		if rule.Applies(rel) {
			t.Errorf("rule applies to waived package %s", rel)
		}
	}
	for _, rel := range []string{"internal/cluster", "internal/sim", "internal/rdma", "internal/core", "internal/kvstore", "cmd/haechibench"} {
		if !rule.Applies(rel) {
			t.Errorf("rule does not apply to %s", rel)
		}
	}
}
