package rdma

import (
	"fmt"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/trace"
)

// TestFlightSpansThroughPipeline drives one bulk Read and one atomic
// through a real fabric and checks, through the recorder's timeline and
// stage histograms, that the data span's stages land in pipeline order:
// posted → credit → initiator NIC → wire → target queue → target service
// → completion.
func TestFlightSpansThroughPipeline(t *testing.T) {
	k, f, client, server := testFabric(t)
	fr, err := trace.NewFlightRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetFlightRecorders([]*trace.FlightRecorder{fr}); err != nil {
		t.Fatal(err)
	}
	r, err := server.RegisterRegion("data", DataIOSize)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := f.Connect(client, server)
	if err != nil {
		t.Fatal(err)
	}
	if qp.id <= 0 {
		t.Errorf("QP id = %d, want positive", qp.id)
	}
	var readDone, atomicDone bool
	if err := qp.Read(r, 0, DataIOSize, func([]byte) { readDone = true }); err != nil {
		t.Fatal(err)
	}
	if err := qp.FetchAdd(r, 0, 1, func(int64) { atomicDone = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !readDone || !atomicDone {
		t.Fatalf("completions: read=%v atomic=%v", readDone, atomicDone)
	}
	if fr.Started() != 2 || fr.Finished() != 2 {
		t.Fatalf("started/finished = %d/%d, want 2/2", fr.Started(), fr.Finished())
	}

	// The timeline names both verbs with their endpoints and QP.
	var dump strings.Builder
	if err := fr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	for _, op := range []trace.Op{trace.OpRead, trace.OpFetchAdd} {
		if want := fmt.Sprintf("%-15s %-10s -> dn qp=%d ", op, "c1", qp.id); !strings.Contains(dump.String(), want) {
			t.Errorf("timeline has no %q:\n%s", want, dump.String())
		}
	}

	// Only the data span feeds the stage histograms, and it visits every
	// stage in order — a stage is recorded only when its duration is not
	// negative — with real time spent on the NIC and the wire. The atomic
	// rides the priority path and is not folded.
	st := fr.Stages()
	if len(st) != 1 || st[0].Actor != "c1" {
		t.Fatalf("stages = %+v, want one c1 entry", st)
	}
	for i, h := range st[0].Histograms() {
		if n := h.Summarize().Count; n != 1 {
			t.Errorf("stage %s recorded %d spans, want the data span", trace.StageNames[i], n)
		}
	}
	if st[0].InitNIC.Mean() <= 0 {
		t.Error("initiator NIC took no virtual time")
	}
	if st[0].Wire.Mean() <= 0 {
		t.Error("propagation took no virtual time")
	}
}

// TestFlightSendSpan covers the two-sided path, including a nil
// completion callback (span must finish at delivery).
func TestFlightSendSpan(t *testing.T) {
	k, f, client, server := testFabric(t)
	fr, err := trace.NewFlightRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetFlightRecorders([]*trace.FlightRecorder{fr}); err != nil {
		t.Fatal(err)
	}
	var got int
	server.SetRecvHandler(func(*Node, Message) { got++ })
	qp, err := f.Connect(client, server)
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.Send(Message{Kind: kindX}, DataIOSize, nil); err != nil {
		t.Fatal(err)
	}
	var cbRan bool
	if err := qp.Send(Message{Kind: kindY}, 64, func() { cbRan = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got != 2 || !cbRan {
		t.Fatalf("received %d sends, cb=%v", got, cbRan)
	}
	if fr.Finished() != 2 {
		t.Fatalf("finished %d spans, want 2", fr.Finished())
	}
	var dump strings.Builder
	if err := fr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(dump.String()), "\n")
	for _, line := range lines {
		if !strings.Contains(line, " SEND ") || strings.Contains(line, "total=-") {
			t.Errorf("timeline line %q is not a cleanly finished send", line)
		}
	}
	if len(lines) != 2 {
		t.Errorf("timeline holds %d lines, want the 2 sends", len(lines))
	}
}
