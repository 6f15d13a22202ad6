// Package trace stands in for the flight-recorder layer: it exercises
// every span-recording idiom the real kernel packages use — clock
// stamping inside scheduled callbacks, completion-callback wrapping,
// and collect-then-sort iteration over a per-actor stats map — and must
// produce zero findings.
package trace

import (
	"sort"

	"flightmod/internal/sim"
)

// Span carries the stage timestamps of one simulated I/O.
type Span struct {
	Actor  string
	Posted sim.Time
	Served sim.Time
	Done   sim.Time
}

// FlightRecorder accumulates finished spans per actor.
type FlightRecorder struct {
	stats map[string]int
	spans []Span
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{stats: make(map[string]int)}
}

// Track runs op on the kernel with its service stamped at serve time and
// its completion callback wrapped to stamp the finish — the idiom the
// real fabric uses: timestamps are taken inside callbacks the kernel
// executes anyway, never from the wall clock.
func (r *FlightRecorder) Track(k *sim.Kernel, actor string, serviceTime sim.Time, complete func()) {
	sp := Span{Actor: actor, Posted: k.Now()}
	k.Schedule(serviceTime, func() {
		sp.Served = k.Now()
		k.Schedule(1, func() {
			sp.Done = k.Now()
			r.finish(sp)
			if complete != nil {
				complete()
			}
		})
	})
}

func (r *FlightRecorder) finish(sp Span) {
	r.spans = append(r.spans, sp)
	r.stats[sp.Actor]++
}

// Actors returns the recorded actors in deterministic order: collect
// the keys, sort, iterate the slice.
func (r *FlightRecorder) Actors() []string {
	actors := make([]string, 0, len(r.stats))
	for a := range r.stats {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	return actors
}

// Counts renders per-actor span counts in sorted-actor order.
func (r *FlightRecorder) Counts() []int {
	out := make([]int, 0, len(r.stats))
	for _, a := range r.Actors() {
		out = append(out, r.stats[a])
	}
	return out
}
