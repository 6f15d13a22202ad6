package metrics

import "github.com/haechi-qos/haechi/internal/sim"

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
