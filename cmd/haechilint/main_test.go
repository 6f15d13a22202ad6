package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/lint"
)

// chdir switches the working directory for one test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCleanTree: the lint gate holds on the repository itself — the
// whole module loads, type-checks, and produces zero diagnostics.
func TestCleanTree(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("haechilint ./... = exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean tree produced output:\n%s", stdout.String())
	}
}

// TestSeededViolations: on the broken fixture module the tool exits
// non-zero and reports correct file:line diagnostics. Running the
// shipped rule set against a foreign module also makes every DefaultRules
// waiver dead (none of the waived packages exist there), so waiverdrift
// reports all four standing excludes first — doubling as the pin on its
// output format and on the (file, line, col, analyzer, message) order.
func TestSeededViolations(t *testing.T) {
	chdir(t, filepath.Join("testdata", "brokenmod"))
	var stdout, stderr bytes.Buffer
	code := run(nil, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d diagnostics, want 6:\n%s", len(lines), out)
	}
	wantFrags := [][]string{
		{"(waivers):1:1", "waiverdrift", `noconcurrency waiver "internal/parallel" matches no package`},
		{"(waivers):1:1", "waiverdrift", `parallelimport waiver "internal/experiments" matches no package`},
		{"(waivers):1:1", "waiverdrift", `parallelimport waiver "internal/sim/shard" matches no package`},
		{"(waivers):1:1", "waiverdrift", `walltime waiver "cmd/haechibench" matches no package`},
		{filepath.Join("internal", "core", "acc.go") + ":8:2", "maporder", "accumulates floating-point values"},
		{filepath.Join("internal", "sim", "clock.go") + ":8:27", "walltime", "time.Now"},
	}
	for i, frags := range wantFrags {
		for _, frag := range frags {
			if !strings.Contains(lines[i], frag) {
				t.Errorf("diagnostic %d = %q, missing %q", i, lines[i], frag)
			}
		}
	}
	if !strings.Contains(stderr.String(), "6 issue(s)") {
		t.Errorf("stderr = %q, want issue count", stderr.String())
	}
}

// TestPatternFilter: patterns restrict which packages are reported.
func TestPatternFilter(t *testing.T) {
	chdir(t, filepath.Join("testdata", "brokenmod"))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"internal/core"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if out := stdout.String(); strings.Contains(out, "clock.go") || !strings.Contains(out, "acc.go") {
		t.Errorf("pattern internal/core selected wrong packages:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"no/such/pkg"}, &stdout, &stderr); code != 2 {
		t.Errorf("unmatched pattern: exit = %d, want 2 (stderr %q)", code, stderr.String())
	}
}

// TestFlightFixtureClean: the span-recording idioms the observability
// layer relies on — clock stamping inside scheduled callbacks,
// completion-callback wrapping, collect-then-sort over a per-actor
// stats map — pass the full kernel-package rule set with zero findings.
func TestFlightFixtureClean(t *testing.T) {
	chdir(t, filepath.Join("testdata", "flightmod"))
	var stdout, stderr bytes.Buffer
	// internal/... scopes reporting to the fixture's packages; the
	// DefaultRules waivers reference packages of the home module, so the
	// module-level waiverdrift audit does not apply to a foreign fixture.
	if code := run([]string{"internal/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean fixture produced findings:\n%s", stdout.String())
	}
}

func TestMatchPattern(t *testing.T) {
	tests := []struct {
		pat, rel string
		want     bool
	}{
		{"./...", "internal/sim", true},
		{"...", ".", true},
		{".", "internal/sim", true},
		{"internal/...", "internal/sim", true},
		{"internal/...", "internal", true},
		{"internal/...", "cmd/haechikv", false},
		{"./internal/sim", "internal/sim", true},
		{"internal/sim", "internal/sim/sub", false},
		{"internal/sim/", "internal/sim", true},
	}
	for _, tt := range tests {
		if got := matchPattern(tt.pat, tt.rel); got != tt.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", tt.pat, tt.rel, got, tt.want)
		}
	}
}

// TestWheelFixtureClean: the allocation-avoidance idioms the fast
// kernel relies on — intrusive freelist chains, fixed slot arrays with
// occupancy bitmaps, generation-checked value Timer handles, and
// stage completions bound once as methods instead of per-I/O closures —
// pass the full rule set with zero findings.
func TestWheelFixtureClean(t *testing.T) {
	chdir(t, filepath.Join("testdata", "wheelmod"))
	var stdout, stderr bytes.Buffer
	// See TestFlightFixtureClean for why reporting is scoped to internal/...
	if code := run([]string{"internal/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean fixture produced findings:\n%s", stdout.String())
	}
}

// TestScopeFlag: -scope prints one formatted line per shipped rule.
// TestDefaultRulesWaivers pins each rule's exact scope.
func TestScopeFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scope"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 9 {
		t.Errorf("want 9 scope lines, got %d:\n%s", len(lines), out)
	}
	for i, r := range lint.DefaultRules() {
		if i >= len(lines) {
			break
		}
		scope, ok := strings.CutPrefix(lines[i], fmt.Sprintf("%-15s ", r.Analyzer.Name))
		if !ok || !(strings.HasPrefix(scope, "all packages") || strings.HasPrefix(scope, "include ")) {
			t.Errorf("line %d = %q, want the %s rule's name padded to 15 columns, then its scope", i, lines[i], r.Analyzer.Name)
		}
	}
}

// TestJSONOutput: -json renders the brokenmod diagnostics as a sorted
// JSON array with module-relative paths and the same exit status.
func TestJSONOutput(t *testing.T) {
	chdir(t, filepath.Join("testdata", "brokenmod"))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		Pkg      string `json:"package"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(diags) != 6 {
		t.Fatalf("got %d diagnostics, want 6:\n%s", len(diags), stdout.String())
	}
	// The four waiverdrift findings sort first ("(waivers)" < any path).
	for i := 0; i < 4; i++ {
		if diags[i].Analyzer != "waiverdrift" || diags[i].File != "(waivers)" || diags[i].Pkg != "." {
			t.Errorf("diag %d = %+v, want a waiverdrift module-level finding", i, diags[i])
		}
	}
	if d := diags[4]; d.Analyzer != "maporder" || d.File != "internal/core/acc.go" || d.Line != 8 || d.Col != 2 || d.Pkg != "internal/core" {
		t.Errorf("diag 4 = %+v, want maporder at internal/core/acc.go:8:2", d)
	}
	if d := diags[5]; d.Analyzer != "walltime" || d.File != "internal/sim/clock.go" || d.Line != 8 {
		t.Errorf("diag 5 = %+v, want walltime at internal/sim/clock.go:8", d)
	}
}

// TestJSONOutputClean: a clean selection emits an empty JSON array, not
// empty output, so downstream tooling can always json.Unmarshal.
func TestJSONOutputClean(t *testing.T) {
	chdir(t, filepath.Join("testdata", "wheelmod"))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "internal/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestFixtureModulesTypeCheck: every fixture module under testdata must
// still load and type-check through the same loader the CLI uses.
func TestFixtureModulesTypeCheck(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		root, err := filepath.Abs(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lint.NewLoader().LoadModule(root); err != nil {
			t.Errorf("fixture module %s does not type-check: %v", e.Name(), err)
		}
	}
}
