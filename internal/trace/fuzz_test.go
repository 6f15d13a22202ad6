package trace

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// eagerRecorder is FuzzFlightRecorder's reference: it keeps every record
// and folds a data span into its initiator's histograms at Finish.
type eagerRecorder struct {
	all   []Span
	stats map[uint32]*StageStats
	marks [256]uint64
}

func (r *eagerRecorder) finish(sp *Span) {
	r.all = append(r.all, *sp)
	if sp.Control {
		return
	}
	st := r.stats[sp.Initiator]
	if st == nil {
		st = &StageStats{Actor: testActors.Name(sp.Initiator)}
		r.stats[sp.Initiator] = st
	}
	hs := st.Histograms()
	for i, d := range stageDurations(sp) {
		if d >= 0 {
			hs[i].Record(d)
		}
	}
}

// fuzzValues are the event values FuzzFlightRecorder marks with: Unset's
// -1 and the extremes, which share the stamp slots an event never uses.
var fuzzValues = [...]int64{-1, 0, math.MaxInt64, math.MinInt64}

// FuzzFlightRecorder drives a recorder of capacity 1 to 64 with op
// strings against eagerRecorder. Each op is two bytes, a code and an
// argument:
//
//	0 Begin a data or control span (arg bit 0) by one of four initiators
//	1 stamp one of an open span's six later stages at the current clock
//	2 Finish an open span
//	3 Mark an event of some kind by a node, the monitor or an engine,
//	  with A and B from fuzzValues
//	4 read Stages: the histograms, Dropped and every kind count must match
//	5 read the ring: its entries, Dropped and every kind count must match
//	6 advance the clock by arg
//
// Stages reads fold the ring part way through a lap, so the fold at wrap
// and the fold on read interleave; the final check reads both.
func FuzzFlightRecorder(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 6, 5, 1, 0, 1, 1, 6, 9, 1, 5, 2, 0, 3, 7, 4, 0, 5, 0})
	f.Add(uint8(0), []byte{3, 0, 3, 0x3f, 0, 1, 1, 2, 2, 0, 5, 0, 0, 0, 6, 1, 2, 0, 4, 0})
	f.Add(uint8(63), []byte{0, 2, 0, 4, 6, 3, 1, 3, 1, 4, 2, 1, 2, 0, 4, 0, 0, 6, 2, 0, 5, 0})
	f.Add(uint8(1), []byte{0, 0, 1, 6, 2, 0, 4, 0, 0, 2, 2, 0, 3, 0xa5, 0, 4, 6, 200, 1, 0x25, 2, 0, 5, 0, 4, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		fr := newRecorder(int(capacity)%64 + 1)
		ref := &eagerRecorder{stats: map[uint32]*StageStats{}}
		var now sim.Time
		var open []*Span
		for len(ops) >= 2 {
			code, arg := ops[0]%7, ops[1]
			ops = ops[2:]
			switch code {
			case 0:
				if len(open) < 4 {
					open = append(open, fr.Begin(new(Span), OpRead, arg&1 != 0, uint32(arg>>1)%4, 1, int(arg), now))
				}
			case 1:
				if len(open) > 0 {
					sp := open[int(arg)%len(open)]
					*[...]*sim.Time{&sp.Credit, &sp.InitDone, &sp.Arrived, &sp.Service, &sp.Served, &sp.Done}[int(arg>>2)%6] = now
				}
			case 2:
				if len(open) > 0 {
					i := int(arg) % len(open)
					fr.Finish(open[i])
					ref.finish(open[i])
					open = slices.Delete(open, i, i+1)
				}
			case 3:
				k := Kind(arg%16 + 1) // past LocalViolation too
				actor := [...]uint32{0, 2, MonitorActor, EngineActor(int(arg))}[arg>>4%4]
				a, b := fuzzValues[arg>>6], fuzzValues[arg>>4%4]
				fr.Mark(now, k, actor, a, b)
				ref.all = append(ref.all, Span{Kind: k, Initiator: actor, Posted: now,
					Credit: sim.Time(a), InitDone: sim.Time(b), Arrived: Unset, Service: Unset, Served: Unset, Done: Unset})
				ref.marks[k]++
			case 4:
				checkStages(t, fr, ref)
			case 5:
				checkRing(t, fr, ref)
			case 6:
				now += sim.Time(arg)
			}
		}
		checkRing(t, fr, ref)
		checkStages(t, fr, ref)
	})
}

// checkCounts compares the exact counters a read of either kind sees.
func checkCounts(t *testing.T, fr *FlightRecorder, ref *eagerRecorder) {
	t.Helper()
	retained := min(len(ref.all), len(fr.ring))
	if got, want := fr.Dropped(), uint64(len(ref.all)-retained); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	for k := range ref.marks {
		if got := fr.marks[Kind(k)]; got != ref.marks[k] {
			t.Fatalf("marks[%v] = %d, want %d", Kind(k), got, ref.marks[k])
		}
	}
}

// checkRing compares the retained entries with the reference's newest
// ones, oldest first, without folding.
func checkRing(t *testing.T, fr *FlightRecorder, ref *eagerRecorder) {
	t.Helper()
	checkCounts(t, fr, ref)
	want := ref.all[len(ref.all)-min(len(ref.all), len(fr.ring)):]
	got := timeline(fr)
	if len(got) != len(want) {
		t.Fatalf("ring holds %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ring entry %d = %+v, want %+v", i, got[i], want[i])
		}
		if want[i].Kind != 0 && (got[i].End() != got[i].Posted || got[i].A() != int64(want[i].Credit)) {
			t.Fatalf("event %d: End %v A %d, want %v and %d", i, got[i].End(), got[i].A(), got[i].Posted, int64(want[i].Credit))
		}
	}
}

// checkStages compares every stage histogram, folded from the ring,
// with the reference's eager ones.
func checkStages(t *testing.T, fr *FlightRecorder, ref *eagerRecorder) {
	t.Helper()
	checkCounts(t, fr, ref)
	got := fr.Stages()
	want := make([]*StageStats, 0, len(ref.stats))
	for _, st := range ref.stats {
		want = append(want, st)
	}
	slices.SortFunc(want, func(a, b *StageStats) int { return strings.Compare(a.Actor, b.Actor) })
	if len(got) != len(want) {
		t.Fatalf("stats for %d actors, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Actor != want[i].Actor {
			t.Fatalf("stats %d name %q, want %q", i, got[i].Actor, want[i].Actor)
		}
		ws := want[i].Histograms()
		for j, h := range got[i].Histograms() {
			if g, w := h.Summarize(), ws[j].Summarize(); g != w {
				t.Fatalf("%s %s: folded %+v, want %+v", got[i].Actor, StageNames[j], g, w)
			}
		}
	}
}
