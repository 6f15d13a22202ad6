package rdma

import (
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// TestFlightSpansThroughPipeline drives one bulk Read and one atomic
// through a real fabric and checks every stage timestamp lands in
// pipeline order: posted → credit → initiator NIC → wire → target queue
// → target service → completion.
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
	if qp.ID() <= 0 {
		t.Errorf("QP id = %d, want positive", qp.ID())
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

	var data, ctrl *trace.Span
	for _, sp := range fr.Spans() {
		sp := sp
		if sp.Control {
			ctrl = &sp
		} else {
			data = &sp
		}
	}
	if data == nil || ctrl == nil {
		t.Fatal("missing data or control span")
	}
	if data.Op != trace.OpRead || ctrl.Op != trace.OpFetchAdd {
		t.Errorf("ops = %v/%v, want read/fetch-add", data.Op, ctrl.Op)
	}
	names := fr.Actors()
	if names.Name(data.Initiator) != "c1" || names.Name(data.Target) != "dn" || int(data.QP) != qp.ID() {
		t.Errorf("data span endpoints = %s→%s qp=%d", names.Name(data.Initiator), names.Name(data.Target), data.QP)
	}

	// Data path visits every stage, in order, with real time spent on the
	// NIC and the wire.
	stamps := []struct {
		name string
		at   sim.Time
	}{
		{"posted", data.Posted}, {"credit", data.Credit},
		{"init-done", data.InitDone}, {"arrived", data.Arrived},
		{"service", data.Service}, {"served", data.Served}, {"done", data.Done},
	}
	for i, s := range stamps {
		if s.at == trace.Unset {
			t.Fatalf("data span stage %s never stamped", s.name)
		}
		if i > 0 && s.at < stamps[i-1].at {
			t.Errorf("stage %s (%d) precedes %s (%d)", s.name, s.at, stamps[i-1].name, stamps[i-1].at)
		}
	}
	if data.InitDone <= data.Posted {
		t.Error("initiator NIC took no virtual time")
	}
	if data.Arrived <= data.InitDone {
		t.Error("propagation took no virtual time")
	}
	if data.End() != data.Done {
		t.Errorf("End() = %d, want Done %d", data.End(), data.Done)
	}

	// The atomic rides the priority path: no credit wait, no weighted
	// target-service stage, but the remaining stamps are still ordered.
	if ctrl.Credit != trace.Unset || ctrl.Service != trace.Unset {
		t.Error("control span stamped data-only stages")
	}
	for _, s := range []sim.Time{ctrl.Posted, ctrl.InitDone, ctrl.Arrived, ctrl.Served, ctrl.Done} {
		if s == trace.Unset {
			t.Fatal("control span missing a stamp")
		}
	}
	if !(ctrl.Posted <= ctrl.InitDone && ctrl.InitDone < ctrl.Arrived &&
		ctrl.Arrived <= ctrl.Served && ctrl.Served <= ctrl.Done) {
		t.Errorf("control stamps out of order: %+v", ctrl)
	}

	// Only the data span feeds the stage histograms.
	st := fr.Stages()
	if len(st) != 1 || st[0].Actor != "c1" || st[0].Total.Count() != 1 {
		t.Errorf("stages = %+v, want one c1 entry with one data span", st)
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
	for _, sp := range fr.Spans() {
		if sp.Op != trace.OpSend {
			t.Errorf("op = %v, want send", sp.Op)
		}
		if sp.End() == trace.Unset || sp.End() < sp.Posted {
			t.Errorf("send span never finished cleanly: %+v", sp)
		}
	}
}
