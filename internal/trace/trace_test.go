package trace

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/haechi-qos/haechi/internal/sim"
)

// testActors names the node actors the tests below record under; zeta
// takes a lower id than alpha, so sorting by name is not id order.
var testActors = func() *Actors {
	a := new(Actors)
	for _, name := range []string{"c1", "dn", "c2", "c3", "zeta", "alpha", "omega", "client-1", "datanode", "a", "b"} {
		a.Add(name)
	}
	return a
}()

// id returns the actor id testActors gives name: "monitor" and
// "engine-N" by rule, a node by its place in the table.
func id(name string) uint32 {
	if name == "monitor" {
		return MonitorActor
	}
	if n, ok := strings.CutPrefix(name, "engine-"); ok {
		i, err := strconv.Atoi(n)
		if err != nil {
			panic(err)
		}
		return EngineActor(i)
	}
	for i, node := range testActors.nodes {
		if node == name {
			return uint32(i)
		}
	}
	panic("no test actor " + name)
}

// newRecorder returns a recorder of the given capacity naming its
// actors through testActors.
func newRecorder(capacity int) *FlightRecorder {
	fr, err := NewFlightRecorder(capacity)
	if err != nil {
		panic(err)
	}
	fr.SetActors(testActors)
	return fr
}

// TestSpanFootprint pins the ring entry at 80 bytes: actors are 4-byte
// ids, and an event's A and B ride in the two stamp slots events never
// use, so an observed run's rings carry the control plane for free.
func TestSpanFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got != 80 {
		t.Errorf("trace.Span is %d bytes, want 80", got)
	}
}

// TestActorNames pins the naming rule behind actor ids: nodes from the
// table, the monitor and engines by rule, and anything else (or any
// node on a nil table) by number.
func TestActorNames(t *testing.T) {
	for _, c := range []struct {
		table *Actors
		id    uint32
		want  string
	}{
		{testActors, 0, "c1"},
		{testActors, MonitorActor, "monitor"},
		{testActors, EngineActor(0), "engine-0"},
		{nil, EngineActor(2499), "engine-2499"},
		{nil, 3, "node-3"},
		{testActors, 999, "node-999"},
		{testActors, MonitorActor | 1, "node-2147483649"},
	} {
		if got := c.table.Name(c.id); got != c.want {
			t.Errorf("Name(%#x) = %q, want %q", c.id, got, c.want)
		}
	}
}

// TestNewRecorderValidation checks that every way of building the
// recorder protocol events land in refuses a ring with no room, and that
// the per-shard constructor also refuses a negative shard index.
func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewShardFlightRecorder(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewShardFlightRecorder(-5, 1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewShardFlightRecorder(4, -1); err == nil {
		t.Error("negative shard index accepted")
	}
	fr, err := NewShardFlightRecorder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.ring) != 4 {
		t.Errorf("capacity %d, want 4", len(fr.ring))
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Mark(0, Claim, id("engine-0"), 1, 2) // must not panic
	if fr.Summary() != "trace: empty" || timeline(fr) != nil || fr.Dropped() != 0 {
		t.Error("nil recorder not empty")
	}
	if err := fr.Dump(nil); err != nil {
		t.Errorf("nil recorder Dump: %v", err)
	}
}

func TestRecordAndOrder(t *testing.T) {
	fr := newRecorder(10)
	for i := 0; i < 5; i++ {
		fr.Mark(sim.Time(i), Claim, id("engine-0"), int64(i), 0)
	}
	sp := fr.Begin(new(Span), OpRead, false, id("c1"), id("dn"), 1, 5)
	sp.Done = 6
	fr.Finish(sp)
	fr.Mark(7, Yield, id("engine-0"), 5, 0)
	all := timeline(fr)
	if len(all) != 7 || all[5].Kind != 0 || all[5].Op != OpRead {
		t.Fatalf("timeline = %v, want 5 claims, the READ span, then a yield", all)
	}
	evs := events(fr)
	if len(evs) != 6 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, ev := range evs[:5] {
		if ev.A() != int64(i) || ev.Posted != sim.Time(i) || ev.End() != ev.Posted {
			t.Errorf("event %d out of order: %v", i, ev.Line(testActors))
		}
	}
	if fr.marks[Claim] != 5 || fr.marks[Yield] != 1 {
		t.Errorf("claims, yields = %d, %d", fr.marks[Claim], fr.marks[Yield])
	}
	// Events are not spans: the verb counters do not move.
	if fr.Started() != 1 || fr.Finished() != 1 {
		t.Errorf("started/finished = %d/%d, want 1/1", fr.Started(), fr.Finished())
	}
}

func TestRingEviction(t *testing.T) {
	fr := newRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Mark(sim.Time(i), Probe, id("engine-0"), int64(i), 0)
	}
	evs := events(fr)
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Oldest retained is 6.
	for i, ev := range evs {
		if ev.A() != int64(6+i) {
			t.Errorf("event %d = %v, want A=%d", i, ev.Line(testActors), 6+i)
		}
	}
	// The per-kind total is exact; only the ring forgets.
	if fr.marks[Probe] != 10 || fr.Dropped() != 6 {
		t.Errorf("probes = %d, Dropped = %d, want 10 and 6", fr.marks[Probe], fr.Dropped())
	}
}

func TestFilterAndCounts(t *testing.T) {
	fr := newRecorder(16)
	fr.Mark(0, Claim, id("engine-0"), 0, 0)
	fr.Mark(0, Yield, id("engine-0"), 0, 0)
	fr.Mark(0, Claim, id("engine-1"), 0, 0)
	fr.Mark(0, PoolCap, id("monitor"), 0, 0)
	if fr.marks[Claim] != 2 || fr.marks[Yield] != 1 || fr.marks[PoolCap] != 1 {
		t.Errorf("counts = %d %d %d", fr.marks[Claim], fr.marks[Yield], fr.marks[PoolCap])
	}
	if got, want := fr.Summary(), "trace: claim=2 yield=1 pool-cap=1"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
}

// timeline returns fr's retained spans and events in record order, oldest
// first: the timeline Dump and WriteChromeTrace walk.
func timeline(fr *FlightRecorder) []Span {
	var out []Span
	for _, seg := range fr.live() {
		out = append(out, seg...)
	}
	return out
}

// events returns the retained protocol events, oldest first.
func events(fr *FlightRecorder) []Span {
	var out []Span
	for _, sp := range timeline(fr) {
		if sp.Kind != 0 {
			out = append(out, sp)
		}
	}
	return out
}

// stageDurations returns sp's stage latencies parallel to StageNames,
// Unset for the stages it did not traverse.
func stageDurations(sp *Span) [len(StageNames)]sim.Time {
	return [...]sim.Time{sp.CreditWait(), sp.InitNIC(), sp.Wire(), sp.TargetQueue(), sp.TargetService(), sp.Delivery(), sp.Total()}
}

func TestKindStrings(t *testing.T) {
	for k := PeriodStart; k <= FailureRecover; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind format wrong")
	}
}

func TestDumpAndSummary(t *testing.T) {
	fr := newRecorder(8)
	if fr.Summary() != "trace: empty" {
		t.Errorf("empty summary = %q", fr.Summary())
	}
	fr.Mark(sim.Microsecond, Claim, id("engine-1"), 100, 50)
	sp := fr.Begin(new(Span), OpRead, false, id("client-1"), id("datanode"), 3, sim.Microsecond)
	sp.Done = 2 * sim.Microsecond
	fr.Finish(sp)
	fr.Mark(2*sim.Microsecond, PeriodStart, id("monitor"), 1, 15700)
	var b strings.Builder
	if err := fr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3: %q", len(lines), b.String())
	}
	if !strings.Contains(lines[0], "claim") || !strings.Contains(lines[0], "engine-1") || !strings.Contains(lines[0], "A=100 B=50") {
		t.Errorf("event line missing fields: %q", lines[0])
	}
	if !strings.Contains(lines[1], "READ") || !strings.Contains(lines[1], "-> datanode") || !strings.Contains(lines[1], "qp=3") {
		t.Errorf("span line missing fields: %q", lines[1])
	}
	if sum := fr.Summary(); sum != "trace: period-start=1 claim=1" {
		t.Errorf("summary = %q", sum)
	}
}

// TestEventWithUnsetValue pins that an event whose A is Unset's -1 — a
// value that shares the Credit slot — still ends at its instant and
// renders as A=-1, in the dump line and in the Chrome trace.
func TestEventWithUnsetValue(t *testing.T) {
	fr := newRecorder(4)
	fr.Mark(3*sim.Microsecond, Claim, id("engine-7"), int64(Unset), 5)
	ev := events(fr)[0]
	if ev.End() != ev.Posted || ev.A() != -1 || ev.B() != 5 || ev.Total() != 0 {
		t.Fatalf("event End %v A %d B %d Total %v, want End at Posted %v, A=-1, B=5, Total 0",
			ev.End(), ev.A(), ev.B(), ev.Total(), ev.Posted)
	}
	if got, want := ev.Line(fr.Actors()), "3.000µs      claim           engine-7   A=-1 B=5"; got != want {
		t.Errorf("Line = %q, want %q", got, want)
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, fr); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"engine-7"}},` +
		`{"name":"claim","cat":"protocol","ph":"i","ts":3,"pid":1,"tid":0,"s":"t","args":{"A":-1,"B":5}}],"displayTimeUnit":"ns"}` + "\n"
	if b.String() != want {
		t.Errorf("Chrome trace = %s\nwant %s", b.String(), want)
	}
}
