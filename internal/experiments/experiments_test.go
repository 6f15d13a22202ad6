package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/chaos"
	"github.com/haechi-qos/haechi/internal/cluster"
)

// fastOptions shrinks every experiment for CI: heavy scaling, short
// windows, fewer clients where the shape survives.
func fastOptions() Options {
	o := NewDefaultOptions()
	o.Base.Scale, o.Base.Records, o.Base.Seed = 100, 256, 7
	o.WarmupPeriods, o.MeasurePeriods, o.Clients = 1, 3, 10
	return o
}

// TestOptionsValidate: validate fills nothing in. The presets pass and
// resolve through cluster.Config.ApplyScale; the zero Options and a
// fractional scale are refused.
func TestOptionsValidate(t *testing.T) {
	o := NewDefaultOptions()
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := o.Base.ApplyScale()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 10 || cfg.Seed != 42 || cfg.Records != 4096 || cfg.Store.Capacity != 4096 {
		t.Errorf("laptop preset resolved to scale %v, seed %d, %d records in %d slots",
			cfg.Scale, cfg.Seed, cfg.Records, cfg.Store.Capacity)
	}
	if err := (Options{}).validate(); err == nil {
		t.Error("zero options accepted")
	}
	o = fastOptions()
	o.Base.Scale = 0.5
	if err := o.validate(); err == nil {
		t.Error("fractional scale accepted")
	}
}

// TestCapacityFollowsFabric: the capacities reservations are sized
// against come from Base's fabric, not from the testbed's literals.
func TestCapacityFollowsFabric(t *testing.T) {
	o := NewDefaultOptions()
	if c, l := o.capacityPerPeriod(), o.localCapacityPerPeriod(); c != 157_000 || l != 40_000 {
		t.Errorf("laptop preset: C_G*T = %d, C_L*T = %d, want 157000 and 40000", c, l)
	}
	o.Base.Fabric.ServerOneSidedRate /= 2
	o.Base.Fabric.ClientOneSidedRate /= 2
	if c, l := o.capacityPerPeriod(), o.localCapacityPerPeriod(); c != 78_500 || l != 20_000 {
		t.Errorf("halved rates: C_G*T = %d, C_L*T = %d, want 78500 and 20000", c, l)
	}
}

func TestPaperOptions(t *testing.T) {
	o := PaperOptions()
	if o.Base.Scale != 1 || o.WarmupPeriods != 30 || o.MeasurePeriods != 30 || o.Base.Records != 1<<16 {
		t.Errorf("paper options wrong: %+v", o)
	}
}

func TestLookupAndAliases(t *testing.T) {
	for _, id := range Known() {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q) failed: %v", id, err)
		}
	}
	for alias := range aliases {
		if _, err := Lookup(alias); err != nil {
			t.Errorf("alias %q unresolved: %v", alias, err)
		}
	}
	if got := Aliases(); len(got) != len(aliases) || !sort.StringsAreSorted(got) {
		t.Errorf("Aliases() = %v, want the %d aliases sorted", got, len(aliases))
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := Run("nope", fastOptions()); err == nil {
		t.Error("Run with unknown id succeeded")
	}
}

func TestOrderCoversRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range Order {
		seen[id] = true
	}
	for id := range registry {
		if !seen[id] {
			t.Errorf("experiment %q missing from Order", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	s := tb.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "--") {
		t.Errorf("table render missing pieces: %q", s)
	}
	rep := &Report{ID: "x", Caption: "c", Tables: []*Table{tb}, Notes: []string{"n"}}
	if out := rep.String(); !strings.Contains(out, "=== x: c ===") || !strings.Contains(out, "note: n") {
		t.Errorf("report render wrong: %q", out)
	}
}

func TestCountFormatting(t *testing.T) {
	if got := count(1570, 1000); got != "1.57M" {
		t.Errorf("count = %q", got)
	}
	if got := count(157, 10); got != "2K" { // 1570 -> rounds to 2K
		t.Errorf("count = %q", got)
	}
	if got := count(5, 10); got != "50" {
		t.Errorf("count = %q", got)
	}
	if got := kiops(157, 100); got != "16K" {
		t.Errorf("kiops = %q", got)
	}
}

func TestTableIExperiment(t *testing.T) {
	rep, err := Run("config", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "config" || len(rep.Tables) != 1 {
		t.Errorf("unexpected report: %+v", rep.ID)
	}
	if !strings.Contains(rep.String(), "C_G") {
		t.Error("config table missing capacity rows")
	}
}

// parsePercent parses an attainment cell like "93%".
func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("unparseable percent %q", s)
	}
	return v
}

// parseK converts report cell values like "157K"/"1.57M"/"830" to floats.
func parseK(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	mult := 1.0
	if strings.HasSuffix(s, "M") {
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	} else if strings.HasSuffix(s, "K") {
		mult, s = 1e3, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q", s)
	}
	return v * mult
}

func TestFig6Shape(t *testing.T) {
	o := fastOptions()
	o.Clients = 3 // fewer single-client runs
	rep, err := Run("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Tables[0].Rows {
		one := parseK(t, row[1])
		two := parseK(t, row[2])
		if one < 380e3 || one > 420e3 {
			t.Errorf("%s: 1-sided %v, want ≈400K", row[0], one)
		}
		if two >= one {
			t.Errorf("%s: 2-sided %v not below 1-sided %v", row[0], two, one)
		}
		if two < 0.7*one {
			t.Errorf("%s: 2-sided %v too far below 1-sided", row[0], two)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	o := fastOptions()
	rep, err := Run("fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != o.Clients {
		t.Fatalf("rows = %d", len(rows))
	}
	last1 := parseK(t, rows[len(rows)-1][1])
	first1 := parseK(t, rows[0][1])
	if last1 < 1.45e6 || last1 > 1.65e6 {
		t.Errorf("10-client 1-sided %v, want ≈1570K", last1)
	}
	if first1 > 0.3*last1 {
		t.Errorf("1-client %v not in linear region", first1)
	}
	// Knee: 4 -> 10 clients gains little.
	at4 := parseK(t, rows[3][1])
	if last1 > 1.15*at4 {
		t.Errorf("no saturation knee: 4 clients %v vs 10 clients %v", at4, last1)
	}
	// Two-sided saturates early.
	two10 := parseK(t, rows[len(rows)-1][2])
	if two10 < 380e3 || two10 > 480e3 {
		t.Errorf("10-client 2-sided %v, want ≈430K", two10)
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Run("fig8", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("want 3 panels, got %d", len(rep.Tables))
	}
	totalOf := func(tb *Table) float64 {
		last := tb.Rows[len(tb.Rows)-1]
		return parseK(t, last[2])
	}
	uniform, spikeBurst, spikeConst := totalOf(rep.Tables[0]), totalOf(rep.Tables[1]), totalOf(rep.Tables[2])
	if uniform < 1.45e6 {
		t.Errorf("uniform burst total %v, want ≈1570K", uniform)
	}
	if spikeBurst >= 0.95*uniform {
		t.Errorf("spike burst total %v did not drop vs uniform %v", spikeBurst, uniform)
	}
	if spikeConst < 0.97*uniform {
		t.Errorf("spike constant-rate total %v did not recover (uniform %v)", spikeConst, uniform)
	}
	// C1 under spike burst misses its 340K target.
	c1 := parseK(t, rep.Tables[1].Rows[0][2])
	if c1 >= 330e3 {
		t.Errorf("spike-burst C1 %v unexpectedly met its demand", c1)
	}
	// ...but approaches it with constant-rate.
	c1c := parseK(t, rep.Tables[2].Rows[0][2])
	if c1c < 320e3 {
		t.Errorf("spike-const C1 %v too low, want ≈332K", c1c)
	}
}

func TestFig9Shape(t *testing.T) {
	rep, err := Run("fig9", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("want uniform+zipf tables")
	}
	// Zipf table: all but the top group meet their reservation in full;
	// the top group sits at the burst feasibility edge (>=85% of R, and
	// far better than the bare fair share — see EXPERIMENTS.md).
	zipf := rep.Tables[1]
	for i, row := range zipf.Rows[:len(zipf.Rows)-1] {
		if i < 2 {
			if row[4] != "yes" && parsePercent(t, row[4]) < 85 {
				t.Errorf("%s: top-group attainment too low: %v", row[0], row[4])
			}
			continue
		}
		if row[4] != "yes" {
			t.Errorf("%s: haechi did not meet reservation: %v", row[0], row[4])
		}
	}
	c1res := parseK(t, zipf.Rows[0][1])
	c1bare := parseK(t, zipf.Rows[0][3])
	if c1bare >= c1res {
		t.Errorf("bare C1 %v met reservation %v; insensitivity expected", c1bare, c1res)
	}
}

func TestFig10Shape(t *testing.T) {
	rep, err := Run("fig10", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 2 per-client tables + 2 totals tables.
	if len(rep.Tables) != 4 {
		t.Fatalf("want 4 tables, got %d", len(rep.Tables))
	}
	for _, idx := range []int{1, 3} { // totals tables
		tb := rep.Tables[idx]
		basic := parseK(t, tb.Rows[0][1])
		haechi := parseK(t, tb.Rows[1][1])
		if haechi <= basic*1.02 {
			t.Errorf("%s: conversion gain too small: basic %v haechi %v", tb.Title, basic, haechi)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rep, err := Run("fig12", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("want 5 sweep rows")
	}
	// Uniform stays high across the sweep.
	for _, row := range rows {
		u := parseK(t, row[1])
		if u < 1.35e6 {
			t.Errorf("uniform at %s: %v, want near capacity", row[0], u)
		}
	}
	// Zipf at 90% reserved is below zipf at 50%.
	z50 := parseK(t, rows[0][2])
	z90 := parseK(t, rows[4][2])
	if z90 >= z50 {
		t.Errorf("zipf did not drop with reserved fraction: 50%%=%v 90%%=%v", z50, z90)
	}
}

func TestFig13to15Shape(t *testing.T) {
	rep, err := Run("fig13", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("want fig13+fig14+fig15 tables")
	}
	t13 := rep.Tables[0]
	// C1 (285K) misses under burst, meets under constant-rate.
	if t13.Rows[0][4] == "yes" {
		t.Error("burst: C1 unexpectedly met its reservation (local capacity should bite)")
	}
	if cell := t13.Rows[0][5]; cell != "yes" && parsePercent(t, cell) < 97 {
		// Allow the scaled harness's ~2% period-boundary carry-over.
		t.Errorf("constant-rate: C1 missed its reservation: %v", cell)
	}
	// Throughput drop larger for burst.
	t14 := rep.Tables[1]
	burstTput := parseK(t, t14.Rows[0][1])
	constTput := parseK(t, t14.Rows[1][1])
	if burstTput >= constTput {
		t.Errorf("burst throughput %v not below constant-rate %v", burstTput, constTput)
	}
}

func TestFig16to19Shape(t *testing.T) {
	o := fastOptions()
	o.MeasurePeriods = 24
	over, err := Run("fig16", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Tables) != 2 {
		t.Fatalf("want 2 timelines")
	}
	// Congestion onset must dent throughput (the notes carry the means).
	foundDrop := false
	for _, n := range over.Notes {
		if strings.Contains(n, "->") {
			foundDrop = true
		}
	}
	if !foundDrop {
		t.Error("overestimation notes missing phase means")
	}

	under, err := Run("fig18", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(under.Tables) != 2 {
		t.Fatalf("want 2 timelines")
	}
}

func TestRunAllFast(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	o := fastOptions()
	o.Clients = 10
	// haechibench -all: every experiment, in Order.
	var reps []*Report
	for _, id := range Order {
		rep, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id {
			t.Errorf("Run(%q) returned report %q", id, rep.ID)
		}
		reps = append(reps, rep)
	}
	// Every cluster run an experiment makes comes back in Report.Runs.
	wantRuns := map[string]int{
		"config": 0, "profile": 3, "fig6": 20, "fig7": 20, "fig8": 3, "fig9": 4, "fig10": 6, "fig12": 10,
		"fig13": 2, "fig16": 2, "fig18": 2, "set5": 3, "set6": 2, "ablation": 13, "limits": 4,
		"multiserver": 5,
	}
	if len(wantRuns) != len(Order) {
		t.Errorf("run-count table covers %d experiments, Order has %d", len(wantRuns), len(Order))
	}
	for _, rep := range reps {
		if rep.String() == "" {
			t.Errorf("%s: empty report", rep.ID)
		}
		if want, ok := wantRuns[rep.ID]; !ok || len(rep.Runs) != want {
			t.Errorf("%s: %d runs, want %d", rep.ID, len(rep.Runs), want)
		}
		for i, r := range rep.Runs {
			if r.Results == nil {
				t.Errorf("%s: run %d is nil", rep.ID, i)
			}
		}
	}
}

func TestLimitsShape(t *testing.T) {
	rep, err := Run("limits", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("want 4 sweep rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row[3] != "yes" {
			t.Errorf("limit %s: victim missed its reservation (%s)", row[0], row[3])
		}
	}
	// The tightest limit caps the runaway at (about) the limit value.
	tight := rows[len(rows)-1]
	limit := parseK(t, tight[0])
	runaway := parseK(t, tight[1])
	if runaway > 1.05*limit {
		t.Errorf("runaway %v exceeds limit %v", runaway, limit)
	}
	// And far below its unlimited throughput.
	unlimited := parseK(t, rows[0][1])
	if runaway > 0.6*unlimited {
		t.Errorf("limit ineffective: %v vs unlimited %v", runaway, unlimited)
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	o := fastOptions()
	o.MeasurePeriods = 2
	rep, err := Run("ablation", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("want 4 ablation tables, got %d", len(rep.Tables))
	}
	// Batch sweep: overhead decreases monotonically with B.
	batch := rep.Tables[0].Rows
	prev := 1e9
	for _, row := range batch {
		ov := parsePercent(t, row[3])
		if ov > prev*1.2 {
			t.Errorf("overhead not decreasing with B: %v", row)
		}
		prev = ov
	}
	// Flow control: disabling it (last row) raises C1's attainment vs the
	// default (first row).
	fc := rep.Tables[3].Rows
	withFC := parsePercent(t, fc[0][2])
	without := parsePercent(t, fc[len(fc)-1][2])
	if without <= withFC {
		t.Errorf("flow control off (%v%%) should beat on (%v%%) for C1 under spike/burst", without, withFC)
	}
}

func TestMultiServerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	o := fastOptions()
	rep, err := Run("multiserver", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("want 2 panels, got %d", len(rep.Tables))
	}
	// Scaling: throughput grows with server count.
	rows := rep.Tables[0].Rows
	t1 := parseK(t, rows[0][2])
	t4 := parseK(t, rows[len(rows)-1][2])
	if t4 < 2*t1 {
		t.Errorf("no scaling: 1 server %v vs 4 servers %v", t1, t4)
	}
	for _, row := range rows {
		if row[3] != "yes" {
			t.Errorf("servers=%s: reservations missed: %s", row[0], row[3])
		}
	}
	// Skew panel: static split misses, rebalancing meets.
	skew := rep.Tables[1].Rows
	if skew[0][3] == "yes" {
		t.Error("static split unexpectedly met the skewed reservation")
	}
	if cell := skew[1][3]; cell != "yes" && parsePercent(t, cell) < 96 {
		t.Errorf("rebalancing did not recover the skewed reservation: %s", cell)
	}
}

// TestProfileShape: the profiling procedure measures Omega_prof ≈ C_G*T
// with small sigma, one run per measured period, and renders the
// estimator's lower bound below Omega_prof.
func TestProfileShape(t *testing.T) {
	o := fastOptions()
	rep, err := Run("profile", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != o.MeasurePeriods {
		t.Fatalf("%d runs, want %d", len(rep.Runs), o.MeasurePeriods)
	}
	outs := make([]*cluster.Results, len(rep.Runs))
	for i, r := range rep.Runs {
		outs[i] = r.Results
	}
	omega, sigma := profileStats(outs)
	if c := float64(o.capacityPerPeriod()); omega < 0.95*c || omega > 1.05*c {
		t.Errorf("profiled %.0f, want ≈%.0f", omega, c)
	}
	if sigma < 0 || sigma > 0.05*omega {
		t.Errorf("sigma %.1f out of expected range", sigma)
	}
	lower, err := strconv.ParseFloat(strings.Fields(rep.Tables[0].Rows[2][1])[0], 64)
	if err != nil || lower >= omega {
		t.Errorf("lower bound %q not below Omega_prof %.1f (%v)", rep.Tables[0].Rows[2][1], omega, err)
	}
}

func TestWriteCSV(t *testing.T) {
	rep := &Report{ID: "demo", Tables: []*Table{
		{Title: "t1", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"with,comma", `with"quote`}}},
		{Title: "t2", Header: []string{"x"}, Rows: [][]string{{"9"}}},
	}}
	dir := t.TempDir()
	paths, err := rep.WriteCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "a,b") || !strings.Contains(got, `"with,comma","with""quote"`) {
		t.Errorf("csv content:\n%s", got)
	}
	if _, err := rep.WriteCSV(filepath.Join(dir, "missing", "nested")); err == nil {
		t.Error("write into missing dir succeeded")
	}
}

// TestParallelSweepByteIdentical pins the sweep runner's determinism
// contract end to end: an experiment rendered from a parallel sweep is
// byte-for-byte the report the sequential sweep produces. Fig12 is the
// widest sweep (a two-dimensional grid flattened row-major), so it
// exercises the index-merge the hardest.
func TestParallelSweepByteIdentical(t *testing.T) {
	render := func(parallel int) string {
		o := fastOptions()
		o.Parallel = parallel
		rep, err := Run("fig12", o)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	sequential := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != sequential {
			t.Errorf("Parallel=%d report diverged from sequential:\n--- parallel\n%s\n--- sequential\n%s",
				workers, got, sequential)
		}
	}
}

// TestRunSelfDescribing rebuilds each experiment's last planned run on
// its own, from the RunSpec alone, and requires the same Results the
// report carries: nothing an experiment schedules may live outside its
// plan.
func TestRunSelfDescribing(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	for _, id := range Order {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, fastOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Runs) == 0 {
				return
			}
			last := rep.Runs[len(rep.Runs)-1]
			cl, err := cluster.New(last.Run.Config, last.Run.Specs)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := cl.Run(last.Run.Warmup, last.Run.Measure)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(last.Results)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(alone)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("run %q rebuilt alone diverged from the report's results", last.Run.Name)
			}
		})
	}
}

// TestSet4KeepsCallerChaos: Set 4's congestion burst is appended to the
// caller's scenario, not substituted for it.
func TestSet4KeepsCallerChaos(t *testing.T) {
	o := fastOptions()
	o.Base.Chaos = "jitter@3+1:extra=2us"
	rep, err := Run("fig16", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		fr := r.Results.Faults
		if fr == nil {
			t.Fatalf("run %q: no fault report", r.Run.Name)
		}
		if want := (chaos.Counts{Storms: 1, Bursts: 1}); fr.Injected != want {
			t.Errorf("run %q injected %+v, want %+v (scenario %q)", r.Run.Name, fr.Injected, want, fr.Scenario)
		}
	}
}
