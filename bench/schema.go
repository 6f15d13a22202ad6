package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// BenchmarkFile mirrors BENCHMARK.json at the repository root: the
// contract that names this benchmark's command, workloads and metrics.
type BenchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadDecl `json:"workloads"`
	EndToEnd   []MetricDecl   `json:"end_to_end"`
	PerLayer   []MetricDecl   `json:"per_layer"`
}

// WorkloadDecl is one BENCHMARK.json workload entry.
type WorkloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDecl is one BENCHMARK.json metric entry. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type MetricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadBenchmarkFile reads and validates BENCHMARK.json.
func LoadBenchmarkFile(path string) (*BenchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf BenchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("bench: %s is %d bytes, over the 64 KiB limit", path, len(raw))
	}
	if err := bf.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &bf, nil
}

// Validate applies the contract's limits: 2-8 workloads, 1-16
// end-to-end metrics each with a bound of at most 0.25 and one of them
// setup_s, 1-128 per-layer metrics without bounds, well-formed unique
// names and units.
func (bf *BenchmarkFile) Validate() error {
	if n := len(bf.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1-32", n)
	}
	if n := len(bf.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1-16", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1-60", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := make(map[string]bool)
	name := func(s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("bad name %q", s)
		}
		if seen[s] {
			return fmt.Errorf("name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	for _, w := range bf.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	metric := func(d MetricDecl) error {
		if err := name(d.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", d.Name, d.Better)
		}
		return nil
	}
	setup := false
	for _, d := range bf.EndToEnd {
		if err := metric(d); err != nil {
			return err
		}
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end must include setup_s (unit s, better lower)")
	}
	for _, d := range bf.PerLayer {
		if err := metric(d); err != nil {
			return err
		}
		if d.Bound != nil {
			return fmt.Errorf("per-layer metric %s must not carry a bound", d.Name)
		}
	}
	return nil
}

// Decl returns the declaration of the named metric: end-to-end first,
// then per-layer (where the ungated outcome metrics live under their
// module prefix).
func (bf *BenchmarkFile) Decl(name string) (MetricDecl, bool) {
	for _, d := range bf.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range bf.PerLayer {
		if d.Name == name || d.Name == "core."+name {
			return d, true
		}
	}
	return MetricDecl{}, false
}
