package trace

import (
	"fmt"
	"sort"

	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/sim"
)

// StageStats aggregates per-stage latency histograms for every data
// span posted by one initiator. Unlike the span ring, which keeps only
// the most recent spans for export, the histograms cover every finished
// span — the per-stage breakdown is exact regardless of ring capacity.
type StageStats struct {
	Actor string

	CreditWait    metrics.Histogram
	InitNIC       metrics.Histogram
	Wire          metrics.Histogram
	TargetQueue   metrics.Histogram
	TargetService metrics.Histogram
	Delivery      metrics.Histogram
	Total         metrics.Histogram
}

// Histograms returns the stage histograms in StageNames order.
func (s *StageStats) Histograms() [len(StageNames)]*metrics.Histogram {
	return [...]*metrics.Histogram{
		&s.CreditWait,
		&s.InitNIC,
		&s.Wire,
		&s.TargetQueue,
		&s.TargetService,
		&s.Delivery,
		&s.Total,
	}
}

func (s *StageStats) record(sp *Span) {
	hs := s.Histograms()
	for i, d := range sp.StageDurations() {
		if d >= 0 {
			hs[i].Record(d)
		}
	}
}

// FlightRecorder collects finished spans into a bounded ring and folds
// every finished data span into per-initiator stage histograms. All
// methods are nil-safe so instrumented code needs no recorder checks at
// call sites, and nothing here ever touches the kernel's event queue:
// a run with a recorder attached executes the exact same event
// sequence as a run without one.
type FlightRecorder struct {
	ring     []Span
	next     int
	wrapped  bool
	nextID   uint64
	started  uint64
	finished uint64
	stats    map[string]*StageStats

	// shard/idBase identify a per-shard recorder: span IDs are offset by
	// idBase so they stay unique after merging, and every span is stamped
	// with the shard it began on. Both zero on the unsharded path.
	shard  int
	idBase uint64
	// shards > 1 marks a recorder produced by MergeFlightRecorders; the
	// Chrome exporter switches to one process track per shard.
	shards int
}

// NewFlightRecorder creates a recorder keeping the last capacity
// finished spans.
func NewFlightRecorder(capacity int) (*FlightRecorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: flight recorder capacity must be positive, got %d", capacity)
	}
	return &FlightRecorder{
		ring:  make([]Span, capacity),
		stats: make(map[string]*StageStats),
	}, nil
}

// NewShardFlightRecorder creates shard s's recorder in a sharded run.
// Each shard's recorder is touched only by code running on that shard's
// kernel — single-writer by construction, no locks — and span IDs get a
// per-shard base (shard<<56) so they remain unique after the merge.
// Shard 0's IDs match the unsharded numbering exactly.
func NewShardFlightRecorder(capacity, s int) (*FlightRecorder, error) {
	if s < 0 {
		return nil, fmt.Errorf("trace: shard index must be non-negative, got %d", s)
	}
	fr, err := NewFlightRecorder(capacity)
	if err != nil {
		return nil, err
	}
	fr.shard = s
	fr.idBase = uint64(s) << 56
	return fr, nil
}

// Begin starts a span for a verb posted at virtual time at, in storage
// the caller owns (the fabric keeps it inside the verb's pooled record,
// so recording allocates nothing per verb); every field of *sp is
// overwritten. It returns sp, or nil on a nil recorder, so
// instrumentation sites guard with a single `if sp != nil` per stamp.
func (f *FlightRecorder) Begin(sp *Span, op Op, control bool, initiator, target string, qp int, at sim.Time) *Span {
	if f == nil {
		return nil
	}
	f.nextID++
	f.started++
	*sp = Span{
		ID:        f.idBase + f.nextID,
		Shard:     f.shard,
		Op:        op,
		Control:   control,
		Initiator: initiator,
		Target:    target,
		QP:        qp,
		Posted:    at,
		Credit:    Unset,
		InitDone:  Unset,
		Arrived:   Unset,
		Service:   Unset,
		Served:    Unset,
		Done:      Unset,
	}
	return sp
}

// Finish records a completed span: it is copied into the ring and, for
// data spans, its stage durations feed the initiator's histograms. The
// recorder keeps no reference to sp, whose storage may be reused at once.
func (f *FlightRecorder) Finish(sp *Span) {
	if f == nil || sp == nil {
		return
	}
	f.finished++
	f.ring[f.next] = *sp
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrapped = true
	}
	if !sp.Control {
		st := f.stats[sp.Initiator]
		if st == nil {
			st = &StageStats{Actor: sp.Initiator}
			f.stats[sp.Initiator] = st
		}
		st.record(sp)
	}
}

// Started returns the number of spans begun.
func (f *FlightRecorder) Started() uint64 {
	if f == nil {
		return 0
	}
	return f.started
}

// Finished returns the number of spans finished (spans still in flight
// when the simulation ends are never finished and stay out of the
// ring).
func (f *FlightRecorder) Finished() uint64 {
	if f == nil {
		return 0
	}
	return f.finished
}

// Dropped returns the number of finished spans evicted from the ring
// (finished minus retained). Histograms still cover evicted spans; only
// the per-span export window loses them.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	retained := uint64(f.next)
	if f.wrapped {
		retained = uint64(len(f.ring))
	}
	return f.finished - retained
}

// Shard returns the shard index this recorder records for (0 on the
// unsharded path).
func (f *FlightRecorder) Shard() int {
	if f == nil {
		return 0
	}
	return f.shard
}

// Sharded reports whether this recorder was produced by merging more
// than one per-shard recorder.
func (f *FlightRecorder) Sharded() bool { return f != nil && f.shards > 1 }

// ShardCount returns the number of per-shard recorders merged into this
// one (1 for a plain recorder).
func (f *FlightRecorder) ShardCount() int {
	if f == nil || f.shards == 0 {
		return 1
	}
	return f.shards
}

// Capacity returns the ring size.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Spans returns the retained spans in finish order, oldest first.
func (f *FlightRecorder) Spans() []Span {
	if f == nil {
		return nil
	}
	if !f.wrapped {
		out := make([]Span, f.next)
		copy(out, f.ring[:f.next])
		return out
	}
	out := make([]Span, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out
}

// merge folds another actor's stage statistics into s.
func (s *StageStats) merge(o *StageStats) {
	hs := s.Histograms()
	for i, h := range o.Histograms() {
		hs[i].Merge(h)
	}
}

// MergeFlightRecorders combines per-shard recorders into one read-only
// recorder, deterministically and independent of the worker count that
// drove the shards:
//
//   - retained spans are k-way merged in (End, shard) order — End is
//     nondecreasing within a shard because Finish runs at the span's
//     final stamp, so preserving each shard's finish order and breaking
//     cross-shard ties by shard index yields a total order;
//   - per-actor stage histograms merge via Histogram.Merge (an actor's
//     spans may finish on different shards: delivery finishes on the
//     initiator's recorder, serve-only completions on the target's);
//   - started/finished counters sum across shards.
//
// The result must not receive further Begin/Finish calls; it exists for
// export (Spans, Stages, Chrome trace). A single recorder is returned
// unchanged.
func MergeFlightRecorders(frs ...*FlightRecorder) *FlightRecorder {
	if len(frs) == 1 {
		return frs[0]
	}
	m := &FlightRecorder{
		stats:  make(map[string]*StageStats),
		shards: len(frs),
	}
	spans := make([][]Span, len(frs))
	total := 0
	for i, f := range frs {
		spans[i] = f.Spans()
		total += len(spans[i])
		m.started += f.Started()
		m.finished += f.Finished()
	}
	ring := make([]Span, 0, total)
	idx := make([]int, len(frs))
	for len(ring) < total {
		best := -1
		for s := range frs {
			if idx[s] >= len(spans[s]) {
				continue
			}
			if best < 0 || spans[s][idx[s]].End() < spans[best][idx[best]].End() {
				best = s
			}
		}
		ring = append(ring, spans[best][idx[best]])
		idx[best]++
	}
	m.ring = ring
	m.wrapped = len(ring) > 0 // Spans() reads the whole ring from next=0
	for _, f := range frs {
		for _, st := range f.Stages() { // sorted by actor: deterministic
			dst := m.stats[st.Actor]
			if dst == nil {
				dst = &StageStats{Actor: st.Actor}
				m.stats[st.Actor] = dst
			}
			dst.merge(st)
		}
	}
	return m
}

// Stages returns the per-initiator stage statistics sorted by actor
// name, for deterministic iteration and rendering.
func (f *FlightRecorder) Stages() []*StageStats {
	if f == nil {
		return nil
	}
	actors := make([]string, 0, len(f.stats))
	for a := range f.stats {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	out := make([]*StageStats, len(actors))
	for i, a := range actors {
		out[i] = f.stats[a]
	}
	return out
}
