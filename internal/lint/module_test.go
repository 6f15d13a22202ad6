package lint_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/haechi-qos/haechi/internal/lint"
)

// loadFixtureModule loads a mini-module from testdata/mod/<name> (each
// has its own go.mod, so the module loader exercises the same path the
// CLI uses on the real tree).
func loadFixtureModule(t *testing.T, name string) []*lint.Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mod", name))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", name, err)
	}
	return pkgs
}

type wantDiag struct {
	file string // base name; "" for synthetic positions
	line int
	msg  string
}

func checkDiags(t *testing.T, analyzer string, diags []lint.Diagnostic, want []wantDiag) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), renderDiags(diags))
	}
	for i, d := range diags {
		if d.Analyzer != analyzer {
			t.Errorf("diag %d attributed to %q, want %q", i, d.Analyzer, analyzer)
		}
		if got := filepath.Base(d.Pos.Filename); got != want[i].file {
			t.Errorf("diag %d in file %s, want %s", i, got, want[i].file)
		}
		if d.Pos.Line != want[i].line {
			t.Errorf("diag %d at line %d, want %d (%s)", i, d.Pos.Line, want[i].line, d.Message)
		}
		if d.Message != want[i].msg {
			t.Errorf("diag %d message:\n got %q\nwant %q", i, d.Message, want[i].msg)
		}
	}
}

// TestSharedwriteFixture: direct worker write, interprocedural write
// through a helper, a second Map worker's write, and a kernel-package
// write are all findings; the sequential-only write is not.
func TestSharedwriteFixture(t *testing.T) {
	pkgs := loadFixtureModule(t, "sharedwritemod")
	m := lint.NewModule(pkgs, nil)
	diags := lint.Sharedwrite.RunModule(m)
	const tail = "; declare single-writer ownership in the sharedwrite allowlist or move the write (DESIGN.md §10)"
	checkDiags(t, "sharedwrite", diags, []wantDiag{
		{"sim.go", 11, "write to package-level variable internal/sim.Clock from Advance (reachable from kernel event code)" + tail},
		{"work.go", 14, "write to package-level variable work.total from bump (reachable from parallel worker bodies)" + tail},
		{"work.go", 19, "write to package-level variable work.counter from func literal at line 18 (reachable from parallel worker bodies)" + tail},
		{"work.go", 24, "write to package-level variable work.allowed from func literal at line 23 (reachable from parallel worker bodies)" + tail},
	})
}

// TestSharedwriteAllowlist: an allowlist entry silences its variable,
// and a stale entry is itself a finding.
func TestSharedwriteAllowlist(t *testing.T) {
	pkgs := loadFixtureModule(t, "sharedwritemod")
	m := lint.NewModule(pkgs, nil)
	an := lint.NewSharedwrite(map[string]string{
		"work.allowed": "single writer: the Map body owns it during the sweep",
		"work.ghost":   "stale entry that must be reported",
	})
	diags := an.RunModule(m)
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want 4:\n%s", len(diags), renderDiags(diags))
	}
	staleMsg := `allowlist entry "work.ghost" matched no reachable write; delete the stale entry`
	var sawStale bool
	for _, d := range diags {
		if d.Pos.Filename == "(sharedwrite allowlist)" {
			sawStale = true
			if d.Message != staleMsg {
				t.Errorf("stale-entry message %q, want %q", d.Message, staleMsg)
			}
			continue
		}
		if filepath.Base(d.Pos.Filename) == "work.go" && d.Pos.Line == 24 {
			t.Errorf("allowlisted write still reported: %s", d.String())
		}
	}
	if !sawStale {
		t.Errorf("stale allowlist entry not reported:\n%s", renderDiags(diags))
	}
}

// TestTimetaintFixture: taint through two calls, out of a waived
// package, via a parameter-forwarding helper, and from a global-rand
// draw; the kernel-clock call stays silent.
func TestTimetaintFixture(t *testing.T) {
	pkgs := loadFixtureModule(t, "timetaintmod")
	m := lint.NewModule(pkgs, nil)
	diags := lint.Timetaint.RunModule(m)
	const tail = "; event times must come from the kernel clock or a seeded RNG"
	checkDiags(t, "timetaint", diags, []wantDiag{
		{"app.go", 23, "wall-clock/global-rand derived value flows into Kernel.Schedule" + tail},
		{"app.go", 25, "wall-clock/global-rand derived value flows into kernel scheduling via post" + tail},
		{"app.go", 26, "wall-clock/global-rand derived value flows into Kernel.Schedule" + tail},
	})
}

// TestWaiverdriftFixture: a live waiver is silent, an over-broad one
// and a dead one are findings.
func TestWaiverdriftFixture(t *testing.T) {
	pkgs := loadFixtureModule(t, "waiverdriftmod")
	rules := []lint.Rule{
		{Analyzer: lint.Walltime, Exclude: []string{"dirty", "clean", "ghost"}},
		{Analyzer: lint.Waiverdrift},
	}
	m := lint.NewModule(pkgs, rules)
	diags := lint.Waiverdrift.RunModule(m)
	checkDiags(t, "waiverdrift", diags, []wantDiag{
		{"(waivers)", 1, `walltime waiver "clean" is unused: the analyzer finds nothing in the excluded packages; narrow or delete it`},
		{"(waivers)", 1, `walltime waiver "ghost" matches no package in the module; delete the stale exclude`},
	})
}

// TestRunDiagnosticOrder pins the ordering satellite: lint.Run output
// is totally ordered by (file, line, col, analyzer, message), so two
// runs render identically even though analyzers and the loader iterate
// maps internally.
func TestRunDiagnosticOrder(t *testing.T) {
	pkgs := loadFixtureModule(t, "sharedwritemod")
	rules := lint.DefaultRules()
	first := lint.Run(pkgs, rules)
	if len(first) == 0 {
		t.Fatal("expected findings on the sharedwrite fixture module")
	}
	sorted := sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i], first[j]
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
	if !sorted {
		t.Fatalf("diagnostics not sorted:\n%s", renderDiags(first))
	}
	for run := 0; run < 3; run++ {
		again := lint.Run(loadFixtureModule(t, "sharedwritemod"), lint.DefaultRules())
		if renderDiags(again) != renderDiags(first) {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", run, renderDiags(again), renderDiags(first))
		}
	}
}

// TestFixtureModulesTypeCheck: every mini-module under testdata/mod
// must load and type-check — fixtures that rot stop proving anything.
func TestFixtureModulesTypeCheck(t *testing.T) {
	names := []string{"sharedwritemod", "timetaintmod", "waiverdriftmod"}
	for _, name := range names {
		if pkgs := loadFixtureModule(t, name); len(pkgs) == 0 {
			t.Errorf("fixture module %s loaded no packages", name)
		}
	}
}

// TestLoadModuleHonoursBuildConstraints: the loader type-checks the files
// the go command builds on this platform, so a function split across a
// constrained file and its fallback (or a file no build includes) is not
// a redeclaration.
func TestLoadModuleHonoursBuildConstraints(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":      "module example.com/split\n\ngo 1.21\n",
		"a/a.go":      "package a\n\nfunc Use() int { return clock() }\n",
		"a/unix.go":   "//go:build unix\n\npackage a\n\nfunc clock() int { return 1 }\n",
		"a/other.go":  "//go:build !unix\n\npackage a\n\nfunc clock() int { return 0 }\n",
		"a/ignore.go": "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		t.Fatalf("loading a module with build-constrained files: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 2 {
		t.Fatalf("loaded %d packages, want package a with its two files for this platform", len(pkgs))
	}
}
