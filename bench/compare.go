package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is the harness's own output file (-out): per workload, every
// timed repetition's host samples and the run's deterministic outcome.
// -compare reads two of them.
type Report struct {
	Meta      Meta             `json:"meta"`
	Workloads []WorkloadReport `json:"workloads"`
}

// Meta records where a report was measured.
type Meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`
}

// Sample is one host metric's value on every timed repetition.
type Sample struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Stat names the statistic reported as the metric's value: "min"
	// for times, "median" for memory. Every repetition of one
	// (workload, seed) executes byte-identical work, so whatever the
	// host adds to a time is noise and only ever adds; on the shared
	// 2-vCPU sandboxes this runs on, contention from neighbours slows
	// the same code by 1.5-1.8x for tens of seconds at a stretch, which
	// moves a median between modes and leaves the minimum alone.
	Stat   string    `json:"stat"`
	Values []float64 `json:"values"`
}

// Value is the statistic reported for the sample.
func (s Sample) Value() float64 {
	if s.Stat == "min" {
		lo, _ := minMax(s.Values)
		return lo
	}
	return Median(s.Values)
}

// WorkloadReport is one workload's measurements.
type WorkloadReport struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Digest is the Results digest every repetition shared.
	Digest string `json:"digest"`
	// Obligations and Missed are the run's reservation obligations and
	// how many fell short (res_miss_rate's numerator and denominator).
	Obligations uint64 `json:"ops_attempted"`
	Missed      uint64 `json:"ops_failed"`
	Events      uint64 `json:"events"`
	// Completed is the data I/Os completed in the measure window.
	Completed uint64   `json:"completed_ios"`
	Host      []Sample `json:"host"`
	Sim       Metrics  `json:"sim"`
	// Layers is the traced pass's per-layer metric set (absent from a
	// blind run's report).
	Layers Metrics `json:"layers,omitempty"`
}

// LoadReport reads a report written by -out.
func LoadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Merge replaces or appends w, so repeated single-workload invocations
// with the same -out build one complete report.
func (r *Report) Merge(w WorkloadReport) {
	for i := range r.Workloads {
		if r.Workloads[i].Name == w.Name {
			r.Workloads[i] = w
			return
		}
	}
	r.Workloads = append(r.Workloads, w)
}

// Write stores the report as indented JSON.
func (r *Report) Write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Verdicts of one (workload, metric) comparison.
const (
	Better      = "better"
	WithinBound = "within bound"
	Worse       = "worse"
	// Unresolved: the run-to-run spread is wider than the bound and the
	// two sides' ranges overlap, so neither "unchanged" nor "regressed"
	// can be claimed.
	Unresolved = "unresolved"
)

// absoluteFloor keeps tiny set-up times from failing on scheduler
// noise: setup_s may always move by 0.03 s.
var absoluteFloor = map[string]float64{"setup_s": 0.03}

// Verdict compares one host metric's samples on the parent (a) and the
// change (b) under a relative bound: the reported statistics decide
// better or worse, the repetitions' quartiles and ranges decide whether
// the difference can be resolved at all.
func Verdict(a, b Sample, lowerBetter bool, bound float64) string {
	aq1, _, aq3 := Quartiles(a.Values)
	bq1, _, bq3 := Quartiles(b.Values)
	av, bv := a.Value(), b.Value()
	allowed := bound * av
	if allowed < 0 {
		allowed = -allowed
	}
	if f := absoluteFloor[a.Name]; allowed < f {
		allowed = f
	}
	worseBy := bv - av
	if !lowerBetter {
		worseBy = -worseBy
	}
	spread := aq3 - aq1
	if s := bq3 - bq1; s > spread {
		spread = s
	}
	alo, ahi := minMax(a.Values)
	blo, bhi := minMax(b.Values)
	if spread > allowed && alo <= bhi && blo <= ahi {
		return Unresolved
	}
	// Better must clear the parent's own spread and a tenth of the bound,
	// so a last-digit wobble of a near-deterministic metric is not a gain.
	resolution := aq3 - aq1
	if r := allowed / 10; r > resolution {
		resolution = r
	}
	switch {
	case worseBy > allowed:
		return Worse
	case -worseBy > resolution:
		return Better
	}
	return WithinBound
}

// ExactVerdict compares a deterministic value: any difference is a
// changed model, reported by direction.
func ExactVerdict(a, b float64, lowerBetter bool) string {
	switch {
	case a == b:
		return WithinBound
	case (b < a) == lowerBetter:
		return Better
	}
	return Worse
}

func (w *WorkloadReport) host(name string) (Sample, bool) {
	for _, s := range w.Host {
		if s.Name == name {
			return s, true
		}
	}
	return Sample{}, false
}

// Compare prints, per (workload, metric), the verdict of b against a
// under bf's bounds, with each side's median and quartiles. Host metrics
// use the bounds; sim metrics, the event count and the digest compare
// exactly. It returns the number of "worse" verdicts.
func Compare(out io.Writer, bf *BenchmarkFile, a, b *Report) (worse int, err error) {
	compared := 0
	for _, wa := range a.Workloads {
		var wb *WorkloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		if wa.Seed != wb.Seed {
			return worse, fmt.Errorf("bench: %s measured with seed %d and %d; compare equal seeds", wa.Name, wa.Seed, wb.Seed)
		}
		compared++
		fmt.Fprintf(out, "%s (seed %d)\n", wa.Name, wa.Seed)
		row := func(metric, unit, verdict, detail string) {
			if verdict == Worse {
				worse++
			}
			fmt.Fprintf(out, "  %-18s %-6s %-13s %s\n", metric, unit, verdict, detail)
		}
		for _, sa := range wa.Host {
			sb, ok := wb.host(sa.Name)
			d, declared := bf.Decl(sa.Name)
			if !ok || !declared || d.Bound == nil {
				continue
			}
			side := func(s Sample) string {
				q1, med, q3 := Quartiles(s.Values)
				if s.Stat == "min" {
					return fmt.Sprintf("min %.6g (median %.6g, quartiles [%.6g, %.6g], n=%d)", s.Value(), med, q1, q3, len(s.Values))
				}
				return fmt.Sprintf("median %.6g (quartiles [%.6g, %.6g], n=%d)", med, q1, q3, len(s.Values))
			}
			row(sa.Name, sa.Unit, Verdict(sa, sb, d.Better == "lower", *d.Bound),
				fmt.Sprintf("A %s   B %s   bound %.0f%%", side(sa), side(sb), 100**d.Bound))
		}
		for _, ma := range wa.Sim {
			vb, ok := wb.Sim.Get(ma.Name)
			d, declared := bf.Decl(ma.Name)
			if !ok || !declared {
				continue
			}
			row(ma.Name, ma.Unit, ExactVerdict(ma.Value, vb, d.Better == "lower"),
				fmt.Sprintf("A %.10g   B %.10g   exact", ma.Value, vb))
		}
		// More simulated events for the same outcome is more work.
		row("sim.events", "count", ExactVerdict(float64(wa.Events), float64(wb.Events), true),
			fmt.Sprintf("A %d   B %d   exact", wa.Events, wb.Events))
		same := WithinBound
		if wa.Digest != wb.Digest {
			same = Worse
		}
		row("results_digest", "sha256", same, fmt.Sprintf("A %.12s   B %.12s   exact", wa.Digest, wb.Digest))
	}
	if compared == 0 {
		return worse, fmt.Errorf("bench: the two reports share no workload")
	}
	return worse, nil
}
