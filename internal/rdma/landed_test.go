package rdma

import "testing"

// TestLandedPerRegion checks that each one-sided verb is counted against
// the region it lands on, by kind, at the instant its target's
// OneSidedTargeted counts it: at post time on a same-shard and on a
// loopback queue pair, at wire arrival on a cross-shard one. Over the run
// the regions' counts sum to the target's OneSidedTargeted.
func TestLandedPerRegion(t *testing.T) {
	b := newPoolBed(t, false, nil)
	qos, err := b.server.RegisterRegion("qos", 64)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := b.server.fabric.Connect(b.server, b.server)
	if err != nil {
		t.Fatal(err)
	}
	// post issues one READ on records and a WRITE and a FETCH_ADD on qos.
	post := func(qp *QP) {
		t.Helper()
		errs := []error{
			qp.Read(b.region, recA, DataIOSize, func([]byte) {}),
			qp.WriteUint64(qos, 0, 1, nil),
			qp.FetchAdd(qos, 8, 1, nil),
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, records, onQoS Landed) {
		t.Helper()
		if got := b.region.Landed(); got != records {
			t.Errorf("%s: records landed %+v, want %+v", when, got, records)
		}
		if got := qos.Landed(); got != onQoS {
			t.Errorf("%s: qos landed %+v, want %+v", when, got, onQoS)
		}
		sum := b.region.Landed().Add(qos.Landed())
		if total, targeted := sum.Reads+sum.Writes+sum.Atomics, b.server.Stats().OneSidedTargeted; total != targeted {
			t.Errorf("%s: regions count %d verbs, the server was targeted by %d", when, total, targeted)
		}
	}

	post(b.localQP)
	check("same-shard, at post", Landed{Reads: 1}, Landed{Writes: 1, Atomics: 1})
	post(b.qp)
	check("cross-shard, before arrival", Landed{Reads: 1}, Landed{Writes: 1, Atomics: 1})
	b.settle()
	check("cross-shard, after arrival", Landed{Reads: 2}, Landed{Writes: 2, Atomics: 2})

	before := qos.Landed()
	if err := loop.WriteUint64(qos, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := loop.FetchAdd(qos, 8, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := qos.Landed().Sub(before); got != (Landed{Writes: 1, Atomics: 1}) {
		t.Errorf("loopback at post: qos window %+v, want one WRITE and one atomic", got)
	}
	b.settle()
	check("loopback, settled", Landed{Reads: 2}, Landed{Writes: 3, Atomics: 3})
}
