package bench

// Tier-1 smoke tests: every workload at the quick size through the full
// code path, so a renamed cluster.Config field, a lost determinism
// property or a drifted BENCHMARK.json breaks `go test ./...` rather
// than the next performance PR.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadContract(t *testing.T) *BenchmarkFile {
	t.Helper()
	bf, err := LoadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastLine parses the final line of a run's standard output as the
// contract's result object and checks it carries exactly the declared
// metrics.
func lastLine(t *testing.T, stdout string, declared []MetricDecl) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 {
		t.Fatalf("result line has %d keys, want exactly correct/attempted/failed/metrics", len(raw))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("result line reports correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(declared) {
		t.Fatalf("result line carries %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Fatalf("result line lacks declared metric %s", d.Name)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
	return line
}

func TestContractMatchesHarness(t *testing.T) {
	bf := loadContract(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	ws := Workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
	largest := 0.0
	for _, d := range bf.EndToEnd {
		if *d.Bound > largest {
			largest = *d.Bound
		}
	}
	if d, _ := bf.Decl("setup_s"); *d.Bound < largest {
		t.Errorf("setup_s bound %v is not the largest (%v)", *d.Bound, largest)
	}
}

// TestSmokeBlind runs every workload's blind pass at the quick size:
// sanitized repetition 0, timed repetitions, digest identity, and the
// contract's output line with every end-to-end metric present and
// non-zero.
func TestSmokeBlind(t *testing.T) {
	bf := loadContract(t)
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			out := filepath.Join(t.TempDir(), "report.json")
			o := options{seed: 42, quick: true, out: out}
			if err := run(&stdout, &stderr, bf, []Workload{w}, o); err != nil {
				t.Fatal(err)
			}
			line := lastLine(t, stdout.String(), bf.EndToEnd)
			for name, m := range line.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0 on %s", name, w.Name)
				}
			}
			rep, err := LoadReport(out)
			if err != nil {
				t.Fatal(err)
			}
			wr := rep.Workloads[0]
			if len(wr.Digest) != 64 || len(wr.Host) != 4 || len(wr.Host[0].Values) < minReps {
				t.Errorf("report: digest %q, %d host samples", wr.Digest, len(wr.Host))
			}
			// A report compared with itself is within bound everywhere.
			var cmp bytes.Buffer
			worse, err := Compare(&cmp, bf, rep, rep)
			if err != nil || worse != 0 {
				t.Errorf("self-compare: worse=%d err=%v\n%s", worse, err, cmp.String())
			}
		})
	}
}

// TestSmokeTraced runs one traced pass at the quick size — counters,
// blind and observed repetitions, the whole ladder and the fleet rung
// pair — and checks it reports exactly the declared per-layer metrics
// and a loadable harness trace.
func TestSmokeTraced(t *testing.T) {
	bf := loadContract(t)
	w, err := WorkloadByName("chaos_sharded_observed")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	o := options{seed: 7, quick: true, traced: true, traceOut: tracePath}
	if err := run(&stdout, &stderr, bf, []Workload{w}, o); err != nil {
		t.Fatal(err)
	}
	line := lastLine(t, stdout.String(), bf.PerLayer)
	if v := line.Metrics["sanitize.violations"].Value; v != 0 {
		t.Errorf("sanitize.violations = %v", v)
	}
	for _, name := range []string{"shard.quanta", "chaos.injected", "trace.spans_finished", "metrics.samples", "sim.events"} {
		if line.Metrics[name].Value == 0 {
			t.Errorf("%s is 0 on the workload that exercises it", name)
		}
	}
	top := line.Metrics["chaos.rung_ns_per_io"].Value
	sum := 0.0
	for _, rung := range rungOrder {
		sum += line.Metrics[rung+".self_ns_per_io"].Value
	}
	if diff := sum - top; diff > 1e-6*top || diff < -1e-6*top {
		t.Errorf("self times sum to %v, top rung is %v", sum, top)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("harness trace: %d events, err %v", len(doc.TraceEvents), err)
	}
	seen := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
	}
	for _, name := range []string{"cluster.New", "Cluster.Run", "Results marshal+digest", "ladder", "build", "drive"} {
		if !seen[name] {
			t.Errorf("harness trace has no %q span", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(c.v)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	s := func(stat string, v ...float64) Sample { return Sample{Name: "wall_s", Stat: stat, Values: v} }
	cases := []struct {
		name string
		a, b Sample
		want string
	}{
		{"same", s("min", 1.00, 1.01, 1.02), s("min", 1.00, 1.01, 1.03), WithinBound},
		{"regressed", s("min", 1.00, 1.01, 1.02), s("min", 1.20, 1.21, 1.22), Worse},
		{"improved", s("min", 1.00, 1.01, 1.02), s("min", 0.80, 0.81, 0.82), Better},
		{"noisy and overlapping", s("median", 1.0, 1.3, 1.6, 1.9), s("median", 1.1, 1.4, 1.7, 2.0), Unresolved},
		{"noisy but disjoint", s("median", 1.0, 1.3, 1.6, 1.9), s("median", 0.2, 0.3, 0.4, 0.5), Better},
	}
	for _, c := range cases {
		if got := Verdict(c.a, c.b, true, 0.08); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := Verdict(Sample{Name: "setup_s", Stat: "min", Values: []float64{0.10, 0.11}},
		Sample{Name: "setup_s", Stat: "min", Values: []float64{0.125, 0.13}}, true, 0.15); got != WithinBound {
		t.Errorf("setup_s inside its 0.03 s floor: %s", got)
	}
	if ExactVerdict(0.2, 0.2, true) != WithinBound || ExactVerdict(0.2, 0.3, true) != Worse || ExactVerdict(100, 101, false) != Better {
		t.Error("ExactVerdict misjudges a deterministic value")
	}
}

func TestBenchmarkFileLimits(t *testing.T) {
	bound := 0.3
	bf := loadContract(t)
	bf.EndToEnd[0].Bound = &bound
	if err := bf.Validate(); err == nil {
		t.Error("a bound above 0.25 passed validation")
	}
	bf = loadContract(t)
	bf.PerLayer = append(bf.PerLayer, MetricDecl{Name: "bad name", Unit: "s", Better: "lower"})
	if err := bf.Validate(); err == nil {
		t.Error("a metric name with a space passed validation")
	}
	if err := (Metrics{{Name: "x", Unit: "s", Value: 1}, {Name: "x", Unit: "s", Value: 2}}).Check(); err == nil {
		t.Error("a duplicated metric passed Check")
	}
}
