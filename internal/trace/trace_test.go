package trace

import (
	"strings"
	"testing"
	"unsafe"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestSpanFootprint pins the ring entry at its size before protocol
// events moved into it: Kind, A and B fit in the bytes the Shard field
// and the upper half of QP used to take, so an observed run's rings do
// not grow by carrying the control plane too.
func TestSpanFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got > 120 {
		t.Errorf("trace.Span is %d bytes, want at most 120", got)
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
	if fr.Capacity() != 4 {
		t.Errorf("capacity %d, want 4", fr.Capacity())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Mark(0, Claim, "engine-0", 1, 2) // must not panic
	if fr.Count(Claim) != 0 || fr.Events() != nil || fr.Dropped() != 0 {
		t.Error("nil recorder not empty")
	}
	if err := fr.Dump(nil); err != nil {
		t.Errorf("nil recorder Dump: %v", err)
	}
}

func TestRecordAndOrder(t *testing.T) {
	fr, err := NewFlightRecorder(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fr.Mark(sim.Time(i), Claim, "engine-0", int64(i), 0)
	}
	sp := fr.Begin(new(Span), OpRead, false, "c1", "dn", 1, 5)
	sp.Done = 6
	fr.Finish(sp)
	fr.Mark(7, Yield, "engine-0", 5, 0)
	all := fr.Spans()
	if len(all) != 7 || all[5].Kind != 0 || all[5].Op != OpRead {
		t.Fatalf("timeline = %v, want 5 claims, the READ span, then a yield", all)
	}
	evs := fr.Events()
	if len(evs) != 6 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, ev := range evs[:5] {
		if ev.A != int64(i) || ev.Posted != sim.Time(i) || ev.End() != ev.Posted {
			t.Errorf("event %d out of order: %v", i, ev.String())
		}
	}
	if fr.Count(Claim) != 5 || fr.Count(Yield) != 1 {
		t.Errorf("Count(claim, yield) = %d, %d", fr.Count(Claim), fr.Count(Yield))
	}
	// Events are not spans: the verb counters do not move.
	if fr.Started() != 1 || fr.Finished() != 1 {
		t.Errorf("started/finished = %d/%d, want 1/1", fr.Started(), fr.Finished())
	}
}

func TestRingEviction(t *testing.T) {
	fr, _ := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Mark(sim.Time(i), Probe, "engine-0", int64(i), 0)
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Oldest retained is 6.
	for i, ev := range evs {
		if ev.A != int64(6+i) {
			t.Errorf("event %d = %v, want A=%d", i, ev.String(), 6+i)
		}
	}
	// The per-kind total is exact; only the ring forgets.
	if fr.Count(Probe) != 10 || fr.Dropped() != 6 {
		t.Errorf("Count = %d, Dropped = %d, want 10 and 6", fr.Count(Probe), fr.Dropped())
	}
}

func TestFilterAndCounts(t *testing.T) {
	fr, _ := NewFlightRecorder(16)
	fr.Mark(0, Claim, "engine-0", 0, 0)
	fr.Mark(0, Yield, "engine-0", 0, 0)
	fr.Mark(0, Claim, "engine-1", 0, 0)
	fr.Mark(0, PoolCap, "monitor", 0, 0)
	if claims := fr.Events(Claim); len(claims) != 2 {
		t.Errorf("Events(Claim) = %d", len(claims))
	}
	if both := fr.Events(Claim, Yield); len(both) != 3 {
		t.Errorf("Events(Claim,Yield) = %d", len(both))
	}
	if fr.Count(Claim) != 2 || fr.Count(Yield) != 1 || fr.Count(PoolCap) != 1 {
		t.Errorf("counts = %d %d %d", fr.Count(Claim), fr.Count(Yield), fr.Count(PoolCap))
	}
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
	fr, _ := NewFlightRecorder(8)
	if fr.Summary() != "trace: empty" {
		t.Errorf("empty summary = %q", fr.Summary())
	}
	fr.Mark(sim.Microsecond, Claim, "engine-1", 100, 50)
	sp := fr.Begin(new(Span), OpRead, false, "client-1", "datanode", 3, sim.Microsecond)
	sp.Done = 2 * sim.Microsecond
	fr.Finish(sp)
	fr.Mark(2*sim.Microsecond, PeriodStart, "monitor", 1, 15700)
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
