// Package experiments reproduces every table and figure of the paper's
// evaluation (Section III). Each experiment plans its cluster runs from
// Options and renders their results into a Report: the same rows/series
// the paper plots, printed as aligned tables. Run is the one runner; the
// cmd/haechibench binary and the repository's benchmarks are thin
// wrappers over it. EXPERIMENTS.md records the outcomes.
package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/haechi-qos/haechi/internal/cluster"
)

// Table is one printable result table (one figure panel or table).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Report is one experiment's full output.
type Report struct {
	// ID is the experiment key, e.g. "fig6".
	ID string
	// Caption describes what the paper artifact shows.
	Caption string
	// Tables hold the regenerated rows/series.
	Tables []*Table
	// Notes record expected-shape commentary and any caveats.
	Notes []string
	// Runs pairs each planned run with its results, in plan order (the
	// same at any Options.Parallel): callers export their traces and
	// metrics from here.
	Runs []RunResult
}

// RunResult is one planned run and what it produced.
type RunResult struct {
	Run     RunSpec
	Results *cluster.Results
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Caption)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// kiops formats a per-period I/O count as full-scale-equivalent KIOPS.
func kiops(perPeriod float64, scale float64) string {
	return fmt.Sprintf("%.0fK", perPeriod*scale/1000)
}

// count formats a raw count with the scale factor applied back, so all
// reports read in the paper's units regardless of the run scale.
func count(v float64, scale float64) string {
	scaled := v * scale
	switch {
	case scaled >= 1e6:
		return fmt.Sprintf("%.2fM", scaled/1e6)
	case scaled >= 1e3:
		return fmt.Sprintf("%.0fK", scaled/1e3)
	default:
		return fmt.Sprintf("%.0f", scaled)
	}
}

// csvEscape quotes a cell if needed (commas or quotes).
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteCSV writes each table of the report as a CSV file in dir, named
// <id>_<n>.csv, and returns the file paths. The textual tables remain the
// primary artifact; CSV is for plotting.
func (r *Report) WriteCSV(dir string) ([]string, error) {
	var paths []string
	for i, t := range r.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", r.ID, i+1))
		f, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		w := bufio.NewWriter(f)
		writeRow := func(cells []string) {
			for j, c := range cells {
				if j > 0 {
					w.WriteByte(',')
				}
				w.WriteString(csvEscape(c))
			}
			w.WriteByte('\n')
		}
		fmt.Fprintf(w, "# %s\n", t.Title)
		writeRow(t.Header)
		for _, row := range t.Rows {
			writeRow(row)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return paths, err
		}
		if err := f.Close(); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
