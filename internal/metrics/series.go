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

// PeriodLog records, for one client, the number of I/Os completed in each
// QoS period — the per-period blocks stacked in the paper's bar charts
// (Figs. 8-10, 13).
type PeriodLog struct {
	Completed []uint64
}

// Observe appends one period's completion count.
func (p *PeriodLog) Observe(count uint64) {
	p.Completed = append(p.Completed, count)
}

// Total sums all recorded periods.
func (p *PeriodLog) Total() uint64 {
	var t uint64
	for _, c := range p.Completed {
		t += c
	}
	return t
}

// Min returns the smallest per-period count (0 for an empty log); the
// reservation-guarantee check is "Min >= R_i" across measured periods.
func (p *PeriodLog) Min() uint64 {
	if len(p.Completed) == 0 {
		return 0
	}
	m := p.Completed[0]
	for _, c := range p.Completed[1:] {
		if c < m {
			m = c
		}
	}
	return m
}

// Mean returns the average per-period count.
func (p *PeriodLog) Mean() float64 {
	if len(p.Completed) == 0 {
		return 0
	}
	return float64(p.Total()) / float64(len(p.Completed))
}
