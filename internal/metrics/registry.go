package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Registry is a pull-based metrics registry: components register named
// gauges (a gauge is any func() float64 — counters register a closure
// over their current value), and a sampler calls Sample on a virtual-
// time cadence to snapshot every gauge at once. Samples are stored
// column-per-metric in registration order, so every export — CSV, JSON,
// Series — is deterministic without sorting.
//
// The registry is kernel-package code (single-threaded by contract) and
// does no scheduling of its own; the sampling cadence is owned by
// whoever drives the simulation.
type Registry struct {
	names []string
	index map[string]int
	fns   []func() float64

	times  []sim.Time
	values [][]float64 // values[i] is the column for metric i

	// merged marks a read-only registry built by MergeSharded: its
	// columns have no gauges behind them, so sampling it would corrupt
	// the column lengths.
	merged bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Register adds a gauge under name. Registering a duplicate name or a
// nil function is an error; registering after sampling has started is
// too (columns would have mismatched lengths).
func (r *Registry) Register(name string, fn func() float64) error {
	if name == "" {
		return fmt.Errorf("metrics: registry: empty metric name")
	}
	if fn == nil {
		return fmt.Errorf("metrics: registry: nil gauge for %q", name)
	}
	if _, dup := r.index[name]; dup {
		return fmt.Errorf("metrics: registry: duplicate metric %q", name)
	}
	if r.merged {
		return fmt.Errorf("metrics: registry: cannot register %q on a merged registry", name)
	}
	if len(r.times) > 0 {
		return fmt.Errorf("metrics: registry: cannot register %q after sampling started", name)
	}
	r.index[name] = len(r.names)
	r.names = append(r.names, name)
	r.fns = append(r.fns, fn)
	r.values = append(r.values, nil)
	return nil
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Samples returns the number of sampling instants recorded.
func (r *Registry) Samples() int { return len(r.times) }

// Grow reserves room for n more samples in the time column and every
// metric column, so the next n calls to Sample allocate nothing. A run
// that knows its horizon and cadence reserves its exact tick count
// instead of letting each column grow by doubling. Call it after the
// last Register: a column registered later starts empty.
func (r *Registry) Grow(n int) {
	r.times = slices.Grow(r.times, n)
	for i := range r.values {
		r.values[i] = slices.Grow(r.values[i], n)
	}
}

// Sample snapshots every registered gauge at virtual time t. Merged
// registries (MergeSharded) are export-only and must not be sampled.
func (r *Registry) Sample(t sim.Time) {
	if r.merged {
		panic("metrics: registry: cannot sample a merged registry")
	}
	r.times = append(r.times, t)
	for i, fn := range r.fns {
		r.values[i] = append(r.values[i], fn())
	}
}

// Series returns one metric's samples as a Series, or false if the
// name was never registered.
func (r *Registry) Series(name string) (*Series, bool) {
	i, ok := r.index[name]
	if !ok {
		return nil, false
	}
	s := &Series{Name: name}
	for j, t := range r.times {
		s.Add(t, r.values[i][j])
	}
	return s, true
}

// WriteCSV writes all samples in wide format: a "time_ns,<name>,..."
// header, then one row per sampling instant.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time_ns"); err != nil {
		return err
	}
	for _, name := range r.names {
		if _, err := io.WriteString(w, ","+name); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	var row []byte
	for j, t := range r.times {
		row = strconv.AppendInt(row[:0], int64(t), 10)
		for i := range r.names {
			row = append(row, ',')
			row = strconv.AppendFloat(row, r.values[i][j], 'g', -1, 64)
		}
		row = append(row, '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// registryJSON is the serialized registry shape: times once, then one
// column per metric in registration order.
type registryJSON struct {
	Times   []sim.Time       `json:"times_ns"`
	Metrics []registryColumn `json:"metrics"`
}

type registryColumn struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// MarshalJSON serializes the registry deterministically (registration
// order, no map iteration), so it is safe to include in byte-compared
// Results.
func (r *Registry) MarshalJSON() ([]byte, error) {
	out := registryJSON{Times: r.times, Metrics: make([]registryColumn, len(r.names))}
	for i, name := range r.names {
		out.Metrics[i] = registryColumn{Name: name, Values: r.values[i]}
	}
	return json.Marshal(out)
}
