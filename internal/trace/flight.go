package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

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

// record folds sp's stage durations and total into the histograms, one
// accessor per stage, skipping a stage the span did not traverse.
func (s *StageStats) record(sp *Span) {
	recordStage(&s.CreditWait, sp.CreditWait())
	recordStage(&s.InitNIC, sp.InitNIC())
	recordStage(&s.Wire, sp.Wire())
	recordStage(&s.TargetQueue, sp.TargetQueue())
	recordStage(&s.TargetService, sp.TargetService())
	recordStage(&s.Delivery, sp.Delivery())
	recordStage(&s.Total, sp.Total())
}

func recordStage(h *metrics.Histogram, d sim.Time) {
	if d >= 0 {
		h.Record(d)
	}
}

// FlightRecorder collects finished spans and protocol events into one
// bounded ring, in the order they happen, folds every finished data span
// into per-initiator stage histograms, and counts every event by kind.
// All methods are nil-safe so instrumented code needs no recorder checks
// at call sites, and nothing here ever touches the kernel's event queue:
// a run with a recorder attached executes the exact same event sequence
// as a run without one.
type FlightRecorder struct {
	ring     []Span
	next     int
	wrapped  bool
	nextID   uint64
	started  uint64
	finished uint64
	// recorded counts every ring write (finished spans and marked
	// events), evicted or not; marks counts events by kind, exactly.
	recorded uint64
	marks    [256]uint64
	stats    map[string]*StageStats
	// byQP caches the stats of the last initiator seen on each QP id, so
	// a finished span skips the string-hashed map lookup; the entry is
	// used only when its Actor matches the span's initiator.
	byQP []*StageStats

	// idBase identifies a per-shard recorder: span IDs are offset by it
	// (shard<<56) so they stay unique after merging and name the shard
	// they began on. Zero on the unsharded path.
	idBase uint64
	// shards > 1 marks a recorder produced by MergeFlightRecorders; the
	// Chrome exporter switches to one process track per shard.
	shards int
}

// NewFlightRecorder creates a recorder keeping the last capacity
// finished spans and protocol events.
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
		Op:        op,
		Control:   control,
		Initiator: initiator,
		Target:    target,
		QP:        int32(qp),
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
	*f.slot() = *sp
	if !sp.Control {
		f.actorStats(sp).record(sp)
	}
}

// actorStats returns the stats of sp's initiator, from the QP cache
// when the QP's last initiator was the same actor, else from the map.
func (f *FlightRecorder) actorStats(sp *Span) *StageStats {
	qp := int(sp.QP)
	if uint(qp) < uint(len(f.byQP)) {
		if st := f.byQP[qp]; st != nil && st.Actor == sp.Initiator {
			return st
		}
	}
	st := f.stats[sp.Initiator]
	if st == nil {
		st = &StageStats{Actor: sp.Initiator}
		f.stats[sp.Initiator] = st
	}
	if qp >= 0 {
		if qp >= len(f.byQP) {
			f.byQP = slices.Grow(f.byQP, qp+1-len(f.byQP))[:qp+1]
		}
		f.byQP[qp] = st
	}
	return st
}

// Mark records a protocol event of kind k by actor at virtual time at:
// it takes the next ring slot, beside the verb spans, and counts in the
// exact per-kind totals. Safe on a nil receiver.
func (f *FlightRecorder) Mark(at sim.Time, k Kind, actor string, a, b int64) {
	if f == nil {
		return
	}
	f.marks[k]++
	*f.slot() = Span{
		ID:        f.idBase,
		Kind:      k,
		Initiator: actor,
		A:         a,
		B:         b,
		Posted:    at,
		Credit:    Unset,
		InitDone:  Unset,
		Arrived:   Unset,
		Service:   Unset,
		Served:    Unset,
		Done:      Unset,
	}
}

// slot returns the ring entry the next record overwrites, evicting the
// oldest when the ring is full.
func (f *FlightRecorder) slot() *Span {
	sp := &f.ring[f.next]
	f.recorded++
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrapped = true
	}
	return sp
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
// ring). Protocol events are not spans and are not counted here.
func (f *FlightRecorder) Finished() uint64 {
	if f == nil {
		return 0
	}
	return f.finished
}

// Dropped returns the number of ring entries — finished spans and
// events — evicted from the ring (recorded minus retained). Histograms
// and per-kind totals still cover evicted entries; only the export
// window loses them.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	retained := uint64(f.next)
	if f.wrapped {
		retained = uint64(len(f.ring))
	}
	return f.recorded - retained
}

// Count returns the number of protocol events of kind k ever marked,
// evicted ones included.
func (f *FlightRecorder) Count(k Kind) uint64 {
	if f == nil {
		return 0
	}
	return f.marks[k]
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

// Spans returns the retained spans and events in record order, oldest
// first.
func (f *FlightRecorder) Spans() []Span {
	if f == nil {
		return nil
	}
	live := f.live()
	out := make([]Span, 0, len(live[0])+len(live[1]))
	return append(append(out, live[0]...), live[1]...)
}

// live returns the retained entries as two ring segments, oldest
// first; the first is empty only when both are.
func (f *FlightRecorder) live() [2][]Span {
	if !f.wrapped {
		return [2][]Span{f.ring[:f.next], nil}
	}
	return [2][]Span{f.ring[f.next:], f.ring[:f.next]}
}

// Events returns the retained protocol events of the given kinds (of
// every kind when none is given), oldest first.
func (f *FlightRecorder) Events(kinds ...Kind) []Span {
	var out []Span
	for _, sp := range f.Spans() {
		if sp.Kind != 0 && (len(kinds) == 0 || slices.Contains(kinds, sp.Kind)) {
			out = append(out, sp)
		}
	}
	return out
}

// Dump writes the retained timeline — spans and events together — to w,
// one per line, oldest first.
func (f *FlightRecorder) Dump(w io.Writer) error {
	for _, sp := range f.Spans() {
		if _, err := fmt.Fprintln(w, sp.String()); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the exact per-kind event totals on one line, in Kind
// order; every Kind value is visited, so a kind declared after
// LocalViolation (or not declared at all) still appears.
func (f *FlightRecorder) Summary() string {
	var parts []string
	if f != nil {
		for k, n := range f.marks {
			if n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", Kind(k), n))
			}
		}
	}
	if len(parts) == 0 {
		return "trace: empty"
	}
	return "trace: " + strings.Join(parts, " ")
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
//   - retained spans and events are k-way merged in (End, shard) order —
//     End is nondecreasing within a shard because Finish runs at the
//     span's final stamp and Mark at the event's instant, so preserving
//     each shard's record order and breaking cross-shard ties by shard
//     index yields a total order;
//   - per-actor stage histograms merge via Histogram.Merge (an actor's
//     spans may finish on different shards: delivery finishes on the
//     initiator's recorder, serve-only completions on the target's);
//   - started/finished counters and per-kind event totals sum across
//     shards.
//
// The result must not receive further Begin/Finish/Mark calls; it exists
// for export (Spans, Stages, Summary, Chrome trace). A single recorder is returned
// unchanged.
func MergeFlightRecorders(frs ...*FlightRecorder) *FlightRecorder {
	if len(frs) == 1 {
		return frs[0]
	}
	m := &FlightRecorder{
		stats:  make(map[string]*StageStats),
		shards: len(frs),
	}
	// Merge straight from each ring's live segments, copying every span
	// once, into the merged ring.
	live := make([][2][]Span, len(frs))
	total := 0
	for i, f := range frs {
		live[i] = f.live()
		total += len(live[i][0]) + len(live[i][1])
		m.started += f.Started()
		m.finished += f.Finished()
		m.recorded += f.recorded
		for k, n := range f.marks {
			m.marks[k] += n
		}
	}
	ring := make([]Span, 0, total)
	for len(ring) < total {
		best := -1
		for s := range live {
			if len(live[s][0]) > 0 && (best < 0 || live[s][0][0].End() < live[best][0][0].End()) {
				best = s
			}
		}
		seg := &live[best]
		ring = append(ring, seg[0][0])
		if seg[0] = seg[0][1:]; len(seg[0]) == 0 {
			seg[0], seg[1] = seg[1], nil
		}
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
