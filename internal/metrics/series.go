package metrics

import (
	"fmt"
	"strings"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series records (time, value) samples, e.g. per-period throughput for the
// paper's timeline figures (Figs. 16-19).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// String renders the series as "name: v1 v2 v3 ...".
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, " %.0f", p.V)
	}
	return b.String()
}
