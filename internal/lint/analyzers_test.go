package lint_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/lint"
)

func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	ld := lint.NewLoader()
	p, err := ld.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return p
}

// TestAnalyzersOnFixtures runs every analyzer over its seeded fixture
// package and asserts the exact diagnostics: count, line, and message.
// The fixtures also contain clean counterparts (sorted iteration,
// seeded RNGs, //lint:ordered annotations, zero-sentinel comparisons)
// that must stay silent.
func TestAnalyzersOnFixtures(t *testing.T) {
	type want struct {
		line int
		msg  string
	}
	tests := []struct {
		analyzer *lint.Analyzer
		want     []want
	}{
		{
			analyzer: lint.Walltime,
			want: []want{
				{8, "time.Now reads the wall clock and breaks replayability; use sim.Kernel.Now"},
				{9, "time.Sleep reads the wall clock and breaks replayability; use sim.Kernel.Schedule"},
				{10, "time.NewTimer reads the wall clock and breaks replayability; use sim.Kernel.Schedule"},
				{12, "time.Since reads the wall clock and breaks replayability; use arithmetic on sim.Time"},
			},
		},
		{
			analyzer: lint.Globalrand,
			want: []want{
				{13, "math/rand.Intn draws from the process-global source and is not replayable; use the kernel RNG (sim.Kernel.Rand) or a seeded *rand.Rand"},
				{14, "math/rand.Shuffle draws from the process-global source and is not replayable; use the kernel RNG (sim.Kernel.Rand) or a seeded *rand.Rand"},
				{15, "math/rand.Int63 draws from the process-global source and is not replayable; use the kernel RNG (sim.Kernel.Rand) or a seeded *rand.Rand"},
				{20, "rand.New without a direct rand.NewSource(seed) argument hides the seed; construct the source inline from an explicit seed"},
				{44, "rand.New without a direct rand.NewSource(seed) argument hides the seed; construct the source inline from an explicit seed"},
			},
		},
		{
			analyzer: lint.Maporder,
			want: []want{
				{13, "map iteration order is randomized per run, and this loop body schedules simulation events (.Schedule); sort the keys into a slice first or annotate with //lint:ordered <why>"},
				{21, "map iteration order is randomized per run, and this loop body appends to a slice declared outside the loop; sort the keys into a slice first or annotate with //lint:ordered <why>"},
				{30, "map iteration order is randomized per run, and this loop body accumulates floating-point values; sort the keys into a slice first or annotate with //lint:ordered <why>"},
				{38, "map iteration order is randomized per run, and this loop body sends on a channel; sort the keys into a slice first or annotate with //lint:ordered <why>"},
			},
		},
		{
			analyzer: lint.Noconcurrency,
			want: []want{
				{5, `import of "sync" in a single-threaded kernel package; the kernel runs one event at a time and needs no synchronization`},
				{10, "channel type inside the single-threaded kernel; event ordering must come from the kernel queue, not channel scheduling"},
				{12, "go statement spawns a goroutine inside the single-threaded kernel; schedule an event on the sim.Kernel instead"},
				{16, "channel send inside the single-threaded kernel; deliver results through direct calls or scheduled events"},
				{21, "channel receive inside the single-threaded kernel; deliver results through direct calls or scheduled events"},
			},
		},
		{
			analyzer: lint.Floateq,
			want: []want{
				{7, "floating-point == is rounding-order fragile; compare against a tolerance (only the exact zero sentinel may be compared directly)"},
				{10, "floating-point != is rounding-order fragile; compare against a tolerance (only the exact zero sentinel may be compared directly)"},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.analyzer.Name, func(t *testing.T) {
			p := loadFixture(t, tt.analyzer.Name)
			diags := tt.analyzer.Run(p)
			lint.SortDiagnostics(diags)
			if len(diags) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(tt.want), renderDiags(diags))
			}
			wantFile := tt.analyzer.Name + ".go"
			for i, d := range diags {
				if filepath.Base(d.Pos.Filename) != wantFile {
					t.Errorf("diag %d in file %s, want %s", i, d.Pos.Filename, wantFile)
				}
				if d.Analyzer != tt.analyzer.Name {
					t.Errorf("diag %d attributed to %q, want %q", i, d.Analyzer, tt.analyzer.Name)
				}
				if d.Pos.Line != tt.want[i].line {
					t.Errorf("diag %d at line %d, want %d (%s)", i, d.Pos.Line, tt.want[i].line, d.Message)
				}
				if d.Message != tt.want[i].msg {
					t.Errorf("diag %d message:\n got %q\nwant %q", i, d.Message, tt.want[i].msg)
				}
			}
		})
	}
}

func renderDiags(ds []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDiagnosticString covers the file:line:col rendering used by the CLI.
func TestDiagnosticString(t *testing.T) {
	p := loadFixture(t, "floateq")
	diags := lint.Floateq.Run(p)
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "floateq.go:7:") || !strings.Contains(s, ": floateq: ") {
		t.Errorf("unexpected rendering %q", s)
	}
}

// TestRuleApplies covers include/exclude prefix scoping.
func TestRuleApplies(t *testing.T) {
	tests := []struct {
		rule Rule
		rel  string
		want bool
	}{
		{Rule{}, "internal/sim", true},
		{Rule{Include: []string{"internal"}}, "internal/sim", true},
		{Rule{Include: []string{"internal"}}, "cmd/haechikv", false},
		{Rule{Include: []string{"internal/sim"}}, "internal/simx", false},
		{Rule{Include: []string{"."}}, ".", true},
		{Rule{Include: []string{"."}}, "internal/sim", false},
		{Rule{Exclude: []string{"cmd/haechibench"}}, "cmd/haechibench", false},
		{Rule{Exclude: []string{"cmd/haechibench"}}, "cmd/haechikv", true},
		{Rule{Include: []string{"cmd"}, Exclude: []string{"cmd/haechibench"}}, "cmd/haechibench", false},
	}
	for _, tt := range tests {
		if got := tt.rule.Applies(tt.rel); got != tt.want {
			t.Errorf("Rule{Include:%v Exclude:%v}.Applies(%q) = %v, want %v",
				tt.rule.Include, tt.rule.Exclude, tt.rel, got, tt.want)
		}
	}
}

// Rule is re-exported for the table above.
type Rule = lint.Rule

// TestDefaultRulesWaivers is the one pin of the shipped waiver set: each
// rule's exact Include/Exclude, in order. Widening, narrowing or adding a
// waiver must edit this table (and waiverdrift keeps every entry live).
// The Applies rows state what each waiver means for the packages it
// decides: haechibench times the real tool run, the kernel packages and
// haechibench alike stay goroutine-free. TestParallelimportDefaultScope
// states what the parallelimport waiver means.
func TestDefaultRulesWaivers(t *testing.T) {
	want := []struct {
		name             string
		include, exclude []string
	}{
		{"walltime", nil, []string{"cmd/haechibench"}},
		{"globalrand", nil, nil},
		{"maporder", nil, nil},
		{"noconcurrency", nil, []string{"internal/parallel"}},
		{"floateq", []string{".", "internal"}, nil},
		{"parallelimport", nil, []string{"internal/experiments"}},
		{"sharedwrite", nil, nil},
		{"timetaint", nil, nil},
		{"waiverdrift", nil, nil},
	}
	rules := lint.DefaultRules()
	if len(rules) != len(want) {
		t.Fatalf("got %d default rules, want %d", len(rules), len(want))
	}
	byName := make(map[string]lint.Rule)
	for i, r := range rules {
		w := want[i]
		if r.Analyzer.Name != w.name || !slices.Equal(r.Include, w.include) || !slices.Equal(r.Exclude, w.exclude) {
			t.Errorf("rule %d = %s include %q exclude %q, want %s include %q exclude %q",
				i, r.Analyzer.Name, r.Include, r.Exclude, w.name, w.include, w.exclude)
		}
		byName[r.Analyzer.Name] = r
	}
	type applies struct {
		rule, rel string
		want      bool
	}
	cases := []applies{
		{"walltime", "cmd/haechibench", false},
		{"walltime", "internal/sim", true},
		{"noconcurrency", "cmd/haechibench", true},
		{"floateq", "internal/core", true},
	}
	for _, kp := range lint.KernelPackages {
		cases = append(cases, applies{"noconcurrency", kp, true})
	}
	for _, a := range cases {
		if got := byName[a.rule].Applies(a.rel); got != a.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", a.rule, a.rel, got, a.want)
		}
	}
}

// TestLoadDirErrors: loading a missing or empty directory fails cleanly.
func TestLoadDirErrors(t *testing.T) {
	ld := lint.NewLoader()
	if _, err := ld.LoadDir(filepath.Join("testdata", "no-such-dir"), "fixture/missing"); err == nil {
		t.Error("missing directory accepted")
	}
	if _, err := ld.LoadDir("testdata", "fixture/empty"); err == nil {
		t.Error("directory without Go files accepted")
	}
}
