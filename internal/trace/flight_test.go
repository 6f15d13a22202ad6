package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

func TestFlightRecorderValidation(t *testing.T) {
	if _, err := NewFlightRecorder(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewFlightRecorder(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	if sp := fr.Begin(new(Span), OpRead, false, "a", "b", 1, 0); sp != nil {
		t.Error("nil recorder returned a span")
	}
	fr.Finish(nil) // must not panic
	if fr.Started() != 0 || fr.Finished() != 0 || fr.Capacity() != 0 {
		t.Error("nil recorder counters non-zero")
	}
	if fr.Spans() != nil || fr.Stages() != nil {
		t.Error("nil recorder returned data")
	}
}

func TestFlightRingEvictionKeepsHistogramsExact(t *testing.T) {
	fr, err := NewFlightRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sp := fr.Begin(new(Span), OpRead, false, "c1", "dn", 1, 0)
		sp.Done = 100
		fr.Finish(sp)
	}
	if fr.Started() != 6 || fr.Finished() != 6 {
		t.Fatalf("started/finished = %d/%d, want 6/6", fr.Started(), fr.Finished())
	}
	spans := fr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(i + 3); sp.ID != want { // oldest-first: IDs 3..6
			t.Errorf("span %d has ID %d, want %d", i, sp.ID, want)
		}
	}
	// Eviction must not touch the per-stage histograms: all 6 counted.
	st := fr.Stages()
	if len(st) != 1 || st[0].Actor != "c1" {
		t.Fatalf("stages = %+v, want one entry for c1", st)
	}
	if st[0].Total.Count() != 6 {
		t.Errorf("total histogram count = %d, want 6 (must survive ring eviction)", st[0].Total.Count())
	}
}

func TestFlightStagesSortedAndControlExcluded(t *testing.T) {
	fr, err := NewFlightRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, actor := range []string{"zeta", "alpha"} {
		sp := fr.Begin(new(Span), OpWrite, false, actor, "dn", 1, 0)
		sp.Done = 50
		fr.Finish(sp)
	}
	ctrl := fr.Begin(new(Span), OpFetchAdd, true, "omega", "dn", 2, 0)
	ctrl.Done = 10
	fr.Finish(ctrl)
	st := fr.Stages()
	if len(st) != 2 {
		t.Fatalf("got %d stage actors, want 2 (control spans excluded)", len(st))
	}
	if st[0].Actor != "alpha" || st[1].Actor != "zeta" {
		t.Errorf("actors = [%s %s], want sorted [alpha zeta]", st[0].Actor, st[1].Actor)
	}
}

func TestSpanStageDurations(t *testing.T) {
	sp := &Span{
		Posted: 100, Credit: 110, InitDone: 150, Arrived: 160,
		Service: 200, Served: 240, Done: 250,
	}
	want := [len(StageNames)]sim.Time{10, 40, 10, 40, 40, 10, 150}
	if got := sp.StageDurations(); got != want {
		t.Errorf("StageDurations = %v, want %v (stages %v)", got, want, StageNames)
	}
	// A control span (stages skipped) reports Unset for them and still
	// has a total.
	cp := &Span{Posted: 100, Credit: Unset, InitDone: 120, Arrived: 130,
		Service: Unset, Served: 150, Done: 160}
	if cp.CreditWait() != Unset || cp.TargetQueue() != Unset {
		t.Error("skipped stages not Unset")
	}
	if cp.Total() != 60 {
		t.Errorf("control total = %d, want 60", int64(cp.Total()))
	}
	// End is the last stage stamped, whichever that is.
	partial := Span{Posted: 5, Credit: Unset, InitDone: Unset, Arrived: Unset,
		Service: Unset, Served: Unset, Done: Unset}
	for _, step := range []struct {
		stamp *sim.Time
		at    sim.Time
	}{
		{&partial.Posted, 5}, {&partial.Credit, 6}, {&partial.InitDone, 7}, {&partial.Arrived, 8},
		{&partial.Service, 9}, {&partial.Served, 10}, {&partial.Done, 11},
	} {
		*step.stamp = step.at
		if got := partial.End(); got != step.at {
			t.Errorf("End() = %d after stamping %d", int64(got), int64(step.at))
		}
	}
}

// TestFlightRecordingNoAlloc pins that a span begun in caller-owned
// storage and finished into a warm recorder, and a marked protocol
// event, allocate nothing.
func TestFlightRecordingNoAlloc(t *testing.T) {
	fr, err := NewFlightRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	var store Span
	record := func() {
		sp := fr.Begin(&store, OpRead, false, "c1", "dn", 1, 100)
		sp.Credit, sp.InitDone, sp.Arrived, sp.Service, sp.Served, sp.Done = 110, 150, 160, 200, 240, 250
		fr.Finish(sp)
		fr.Mark(250, Claim, "engine-0", 1, 2)
	}
	record() // creates c1's StageStats
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Errorf("Begin+Finish+Mark allocates %v objects per span, want 0", n)
	}
}

// TestFinishFoldsByInitiator checks the single-lookup fold against the
// StageDurations rule, with one QP id shared by two initiators (as test
// spans reuse QP ids) and spans that skip a stage or run one backwards:
// every span lands in its own initiator's histograms, and a stage is
// recorded exactly when its duration is d >= 0.
func TestFinishFoldsByInitiator(t *testing.T) {
	fr, err := NewFlightRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*StageStats{}
	finish := func(actor string, qp int, stamps [7]sim.Time) {
		sp := fr.Begin(new(Span), OpRead, false, actor, "dn", qp, stamps[0])
		sp.Credit, sp.InitDone, sp.Arrived, sp.Service, sp.Served, sp.Done =
			stamps[1], stamps[2], stamps[3], stamps[4], stamps[5], stamps[6]
		fr.Finish(sp)
		w := want[actor]
		if w == nil {
			w = &StageStats{Actor: actor}
			want[actor] = w
		}
		hs := w.Histograms()
		for i, d := range sp.StageDurations() {
			if d >= 0 {
				hs[i].Record(d)
			}
		}
	}
	finish("c1", 3, [7]sim.Time{100, 110, 150, 160, 200, 240, 250})
	finish("c2", 3, [7]sim.Time{0, 5, 9, 30, 35, 60, 64}) // QP 3 first seen under c1
	finish("c1", 3, [7]sim.Time{300, Unset, 320, 330, Unset, 350, 360})
	finish("c2", 5, [7]sim.Time{10, 20, 30, 25, 40, 50, Unset}) // wire runs backwards
	finish("c1", -1, [7]sim.Time{0, 1, 2, 3, 4, 5, 6})          // no QP id
	st := fr.Stages()
	if len(st) != 2 {
		t.Fatalf("stats for %d actors, want 2", len(st))
	}
	for _, got := range st {
		w := want[got.Actor]
		ws := w.Histograms()
		for i, h := range got.Histograms() {
			if g, x := h.Summarize(), ws[i].Summarize(); g != x {
				t.Errorf("%s %s: folded %+v, want %+v", got.Actor, StageNames[i], g, x)
			}
		}
	}
	if c1, c2 := st[0].Total.Count(), st[1].Total.Count(); c1 != 3 || c2 != 2 {
		t.Errorf("total counts c1=%d c2=%d, want 3 and 2", c1, c2)
	}
}

// TestFinishNoAlloc pins that Finish allocates nothing once each actor's
// stats exist, including when initiators alternate on one QP id and the
// QP cache falls back to the map.
func TestFinishNoAlloc(t *testing.T) {
	fr, err := NewFlightRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	var store Span
	finish := func(actor string, qp int) {
		sp := fr.Begin(&store, OpRead, false, actor, "dn", qp, 100)
		sp.Credit, sp.InitDone, sp.Arrived, sp.Service, sp.Served, sp.Done = 110, 150, 160, 200, 240, 250
		fr.Finish(sp)
	}
	round := func() {
		finish("c1", 1)
		finish("c2", 9)
		finish("c3", 1)
	}
	round() // creates the stats and the QP cache
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("Finish allocates %v objects per round, want 0", n)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	fr, err := NewFlightRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	sp := fr.Begin(new(Span), OpRead, false, "c1", "dn", 1, 100)
	sp.Credit, sp.InitDone, sp.Arrived, sp.Service, sp.Served, sp.Done = 110, 150, 160, 200, 240, 250
	fr.Finish(sp)
	cp := fr.Begin(new(Span), OpFetchAdd, true, "c1", "dn", 1, 300)
	cp.InitDone, cp.Arrived, cp.Served, cp.Done = 320, 330, 350, 360
	fr.Finish(cp)
	fr.Mark(500, Claim, "engine-0", 1, 2)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 2 metadata tracks (c1, engine-0) + data span (1 whole + 6 stages)
	// + 1 control span + 1 instant event.
	if len(out.TraceEvents) != 11 {
		t.Fatalf("got %d events, want 11", len(out.TraceEvents))
	}
	var whole *int
	counts := map[string]int{}
	for i, ev := range out.TraceEvents {
		counts[ev.Ph]++
		if ev.Ph == "X" && ev.Cat == "data" {
			whole = &[]int{i}[0]
		}
	}
	if counts["M"] != 2 || counts["X"] != 8 || counts["i"] != 1 {
		t.Errorf("phase counts = %v, want M=2 X=8 i=1", counts)
	}
	if whole == nil {
		t.Fatal("no enclosing data span event")
	}
	// Every stage slice must nest within its enclosing span.
	enc := out.TraceEvents[*whole]
	for _, ev := range out.TraceEvents {
		if ev.Cat != "stage" {
			continue
		}
		if ev.Pid != enc.Pid || ev.Tid != enc.Tid {
			t.Errorf("stage %s on track %d/%d, want %d/%d", ev.Name, ev.Pid, ev.Tid, enc.Pid, enc.Tid)
		}
		if ev.Ts < enc.Ts || ev.Ts+ev.Dur > enc.Ts+enc.Dur+1e-9 {
			t.Errorf("stage %s [%v,%v] escapes span [%v,%v]", ev.Name, ev.Ts, ev.Ts+ev.Dur, enc.Ts, enc.Ts+enc.Dur)
		}
	}
	// Export is deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, fr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same recorder differ")
	}
}

// TestKindsRoundTrip guards Kind.String() against a Kind constant added
// without a name: the declared kinds PeriodStart..LocalViolation all have
// distinct names, and no value outside that range is named.
func TestKindsRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for v := 0; v < 256; v++ {
		k := Kind(v)
		s := k.String()
		declared := k >= PeriodStart && k <= LocalViolation
		if strings.HasPrefix(s, "Kind(") == declared {
			t.Errorf("kind %d = %q, declared %v", v, s, declared)
		}
		if declared && seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

// TestSummaryIncludesAllObservedKinds pins the Summary fix: events of a
// kind beyond the last declared constant must still be counted (the old
// loop `for k := PeriodStart; k <= LocalViolation; k++` dropped them).
func TestSummaryIncludesAllObservedKinds(t *testing.T) {
	fr, err := NewFlightRecorder(1)
	if err != nil {
		t.Fatal(err)
	}
	future := LocalViolation + 1
	fr.Mark(0, future, "engine-0", 0, 0)
	fr.Mark(0, Claim, "engine-0", 0, 0) // evicts the future-kind event
	sum := fr.Summary()
	if !strings.Contains(sum, "claim=1") {
		t.Errorf("summary %q missing claim=1", sum)
	}
	if !strings.Contains(sum, future.String()+"=1") {
		t.Errorf("summary %q dropped kind beyond LocalViolation", sum)
	}
	// Sorted by kind value: claim (5) renders before the future kind.
	if strings.Index(sum, "claim=1") > strings.Index(sum, future.String()+"=1") {
		t.Errorf("summary %q not in kind order", sum)
	}
}

// TestMergeFlightRecorders pins the deterministic merge of per-shard
// recorders: spans and events in (End, shard) order with unique
// per-shard ID bases, counters summed, and an actor's histograms folded together
// even when its spans finished on different shards.
func TestMergeFlightRecorders(t *testing.T) {
	newShard := func(s int) *FlightRecorder {
		fr, err := NewShardFlightRecorder(4, s)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	finish := func(fr *FlightRecorder, actor string, done int64) *Span {
		sp := fr.Begin(new(Span), OpRead, false, actor, "dn", 1, 0)
		sp.Done = sim.Time(done)
		fr.Finish(sp)
		return sp
	}
	fr0, fr1, fr2 := newShard(0), newShard(1), newShard(2)
	finish(fr0, "c1", 100)
	finish(fr0, "c1", 300)
	finish(fr1, "c2", 100) // ties with fr0's first span: shard 0 wins
	finish(fr1, "c1", 200) // c1 span finished on another shard
	finish(fr2, "c3", 50)

	m := MergeFlightRecorders(fr0, fr1, fr2)
	if m.Started() != 5 || m.Finished() != 5 {
		t.Errorf("started/finished = %d/%d, want 5/5", m.Started(), m.Finished())
	}
	if !m.Sharded() || m.ShardCount() != 3 {
		t.Errorf("Sharded()/ShardCount() = %v/%d, want true/3", m.Sharded(), m.ShardCount())
	}
	spans := m.Spans()
	if len(spans) != 5 {
		t.Fatalf("merged %d spans, want 5", len(spans))
	}
	wantOrder := []struct {
		end   int64
		shard int
	}{{50, 2}, {100, 0}, {100, 1}, {200, 1}, {300, 0}}
	ids := map[uint64]bool{}
	for i, sp := range spans {
		w := wantOrder[i]
		if int64(sp.End()) != w.end || sp.Shard() != w.shard {
			t.Errorf("span %d = end %d shard %d, want end %d shard %d",
				i, int64(sp.End()), sp.Shard(), w.end, w.shard)
		}
		if ids[sp.ID] {
			t.Errorf("duplicate merged span ID %d", sp.ID)
		}
		ids[sp.ID] = true
		if want := uint64(sp.Shard()) << 56; sp.ID&^(uint64(1)<<56-1) != want {
			t.Errorf("span ID %#x missing shard-%d base", sp.ID, sp.Shard())
		}
	}
	st := m.Stages()
	if len(st) != 3 {
		t.Fatalf("merged stages for %d actors, want 3", len(st))
	}
	if st[0].Actor != "c1" || st[0].Total.Count() != 3 {
		t.Errorf("c1 merged histogram count = %d, want 3 (spans from two shards)", st[0].Total.Count())
	}
	// Events merge by their instant beside the spans, keep their
	// shard, and their per-kind totals sum.
	fr1.Mark(250, Claim, "engine-1", 0, 0)
	fr2.Mark(60, Claim, "engine-2", 0, 0)
	m = MergeFlightRecorders(fr0, fr1, fr2)
	all, evs := m.Spans(), m.Events()
	if len(all) != 7 || all[1].Kind != Claim || all[5].Kind != Claim {
		t.Errorf("merged timeline = %d entries with events at %v/%v, want 7 with claims at 1 and 5",
			len(all), all[1].Kind, all[5].Kind)
	}
	if m.Count(Claim) != 2 || len(evs) != 2 || evs[0].Shard() != 2 || evs[1].Shard() != 1 || m.Finished() != 5 {
		t.Errorf("merged events: %d counted, %d retained, finished %d", m.Count(Claim), len(evs), m.Finished())
	}
	// Identity on a single recorder: no copy, no shard marking.
	if got := MergeFlightRecorders(fr0); got != fr0 || got.Sharded() {
		t.Error("single-recorder merge is not the identity")
	}
}

// TestFlightRecorderDropped pins the eviction counter the
// trace/spans-dropped gauge exports.
func TestFlightRecorderDropped(t *testing.T) {
	fr, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Dropped() != 0 {
		t.Errorf("fresh recorder Dropped() = %d, want 0", fr.Dropped())
	}
	for i := 0; i < 5; i++ {
		sp := fr.Begin(new(Span), OpWrite, false, "c1", "dn", 1, 0)
		sp.Done = 10
		fr.Finish(sp)
	}
	if fr.Dropped() != 3 {
		t.Errorf("Dropped() = %d, want 3 (5 finished, ring of 2)", fr.Dropped())
	}
}

// TestWriteChromeTraceSharded verifies the sharded export shape: one
// process track per shard (pid = shard+1) with shard-K process_name
// metadata, spans on their beginning shard's track, and per-QP
// thread_name metadata naming the initiator.
func TestWriteChromeTraceSharded(t *testing.T) {
	fr0, err := NewShardFlightRecorder(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr1, err := NewShardFlightRecorder(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := fr0.Begin(new(Span), OpRead, false, "c1", "dn", 7, 100)
	sp.Done = 150
	fr0.Finish(sp)
	sp = fr1.Begin(new(Span), OpWrite, false, "c2", "dn", 9, 120)
	sp.Done = 180
	fr1.Finish(sp)
	m := MergeFlightRecorders(fr0, fr1)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, m); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("sharded trace is not valid JSON: %v", err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	spanTracks := map[string][2]int{}
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procs[ev.Pid] = ev.Args.Name
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads[[2]int{ev.Pid, ev.Tid}] = ev.Args.Name
		case ev.Ph == "X":
			spanTracks[ev.Name] = [2]int{ev.Pid, ev.Tid}
		}
	}
	if procs[1] != "shard-0" || procs[2] != "shard-1" {
		t.Errorf("process tracks = %v, want pid 1 -> shard-0, pid 2 -> shard-1", procs)
	}
	if got := spanTracks["READ"]; got != [2]int{1, 7} {
		t.Errorf("c1 span on track %v, want pid 1 tid 7 (shard 0, QP 7)", got)
	}
	if got := spanTracks["WRITE"]; got != [2]int{2, 9} {
		t.Errorf("c2 span on track %v, want pid 2 tid 9 (shard 1, QP 9)", got)
	}
	if threads[[2]int{1, 7}] != "c1" || threads[[2]int{2, 9}] != "c2" {
		t.Errorf("thread names = %v, want QP tracks named after initiators", threads)
	}
}
