package rdma

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/sim/shard"
	"github.com/haechi-qos/haechi/internal/trace"
)

// poolBed is a two-shard fabric; a node whose name starts with "s1/"
// lives on shard 1, every other on shard 0. The server "dn" is on shard
// 0 and the client "s1/c1" on shard 1, so qp (s1/c1 -> dn) is
// cross-shard; local is a client on the server's shard, so localQP
// (c0 -> dn) is same-shard.
type poolBed struct {
	group   *shard.Group
	server  *Node
	client  *Node
	local   *Node
	region  *Region
	qp      *QP
	localQP *QP
	now     sim.Time
}

// Region layout: recA is what the overwrite test reads first, recB what
// it reads second.
const (
	recA = 0
	recB = DataIOSize
)

func newPoolBed(t *testing.T, observed bool, tune func(*Config)) *poolBed {
	t.Helper()
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	if tune != nil {
		tune(&cfg)
	}
	kernels := []*sim.Kernel{sim.New(1), sim.New(2)}
	g, err := shard.New(kernels, cfg.PropagationDelay)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(kernels[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign := func(name string, _ NodeKind) int {
		if strings.HasPrefix(name, "s1/") {
			return 1
		}
		return 0
	}
	if err := f.EnableSharding(kernels, assign, g.Post); err != nil {
		t.Fatal(err)
	}
	b := &poolBed{group: g}
	if b.server, err = f.AddServer("dn"); err != nil {
		t.Fatal(err)
	}
	if b.client, err = f.AddClient("s1/c1"); err != nil {
		t.Fatal(err)
	}
	if b.local, err = f.AddClient("c0"); err != nil {
		t.Fatal(err)
	}
	if b.region, err = b.server.RegisterRegion("records", 4*DataIOSize); err != nil {
		t.Fatal(err)
	}
	if b.qp, err = f.Connect(b.client, b.server); err != nil {
		t.Fatal(err)
	}
	if b.localQP, err = f.Connect(b.local, b.server); err != nil {
		t.Fatal(err)
	}
	if !b.qp.cross || b.localQP.cross {
		t.Fatalf("bed placement: qp.cross=%v localQP.cross=%v, want true/false", b.qp.cross, b.localQP.cross)
	}
	if observed {
		frs := make([]*trace.FlightRecorder, len(kernels))
		for s := range frs {
			if frs[s], err = trace.NewShardFlightRecorder(64, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.SetFlightRecorders(frs); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// advance runs both shards d further.
func (b *poolBed) advance(d sim.Time) {
	b.now += d
	b.group.RunUntil(b.now)
}

// settle runs long enough for any handful of posted verbs to finish.
func (b *poolBed) settle() { b.advance(sim.Millisecond) }

func fill(v byte, n int) []byte { return bytes.Repeat([]byte{v}, n) }

// TestVerbsSteadyStateNoAlloc pins the pooled-record data path: once the
// freelists and FIFOs are warm, posting a verb and running it to
// completion allocates nothing — no record, no payload, no mailbox
// closure, no span — on a same-shard and on a cross-shard queue pair,
// with the flight recorder off and on.
func TestVerbsSteadyStateNoAlloc(t *testing.T) {
	type verb struct {
		name string
		post func(t *testing.T, b *poolBed, qp *QP)
		// crossFresh marks a verb that ends at the target with no hop back:
		// on the cross-shard QP its record cannot be returned to the
		// initiator's freelist from the target's kernel and is left to the
		// collector, so every post takes a fresh one.
		crossFresh bool
	}
	// A fresh record that crosses once is two objects — the record with its
	// extension and the one continuation that hop binds — and a third, its
	// span, under a recorder.
	const newRecord = 2
	payload := fill(0x5a, DataIOSize)
	onRead := func([]byte) {}
	onDone := func() {}
	onOld := func(int64) {}
	check := func(t *testing.T, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	verbs := []verb{
		{"Read4K", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.Read(b.region, recA, DataIOSize, onRead)) }, false},
		{"ReadProbe", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.Read(b.region, recA, 64, onRead)) }, false},
		{"Write4KCompletion", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.Write(b.region, recB, payload, onDone)) }, false},
		{"Write4K", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.Write(b.region, recB, payload, nil)) }, false},
		{"WriteUint64Completion", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.WriteUint64(b.region, 8, 7, onDone)) }, false},
		{"WriteUint64", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.WriteUint64(b.region, 8, 7, nil)) }, true},
		{"FetchAdd", func(t *testing.T, b *poolBed, qp *QP) { check(t, qp.FetchAdd(b.region, 16, 1, onOld)) }, false},
	}
	for _, observed := range []bool{false, true} {
		for _, cross := range []bool{false, true} {
			for _, v := range verbs {
				name := v.name
				if cross {
					name += "/cross-shard"
				} else {
					name += "/same-shard"
				}
				if observed {
					name += "/observed"
				}
				t.Run(name, func(t *testing.T) {
					b := newPoolBed(t, observed, nil)
					qp, want := b.localQP, 0.0
					if cross {
						qp = b.qp
						if v.crossFresh {
							want = newRecord
							if observed {
								want++
							}
						}
					}
					one := func() {
						v.post(t, b, qp)
						b.settle()
					}
					for i := 0; i < 8; i++ { // warm freelists, FIFOs, stage histograms
						one()
					}
					if got := testing.AllocsPerRun(200, one); got != want {
						t.Errorf("%v objects allocated per verb, want %v", got, want)
					}
				})
			}
		}
	}
}

// TestRecordedReadReturnsSpanWithExtension: under a flight recorder a
// same-shard READ takes a record with an extension, because that is where
// its span lives, and its delivery returns both: the record, cleared, to
// the extended freelist and the span to the span freelist — after the
// recorder has finished it.
func TestRecordedReadReturnsSpanWithExtension(t *testing.T) {
	b := newPoolBed(t, true, nil)
	pool := b.local.pool
	reads := 0
	for i := 0; i < 2; i++ {
		if err := b.localQP.Read(b.region, recA, DataIOSize, func([]byte) { reads++ }); err != nil {
			t.Fatal(err)
		}
		b.settle()
		free, exts := pooled(pool.free), pooled(pool.exts)
		if len(free) != 0 || len(exts) != 1 || !recycled(exts[0]) {
			t.Fatalf("read %d: pooled %d plain and %d extended records (recycled: %v), want 0 and 1 cleared",
				i, len(free), len(exts), len(exts) == 1 && recycled(exts[0]))
		}
		if len(pool.spans) != 1 {
			t.Fatalf("read %d: %d spans pooled, want 1", i, len(pool.spans))
		}
	}
	if fr := b.local.flight; reads != 2 || fr.Started() != 2 || fr.Finished() != 2 {
		t.Errorf("%d reads delivered, %d spans started, %d finished; want 2 each", reads, fr.Started(), fr.Finished())
	}
}

// TestCrossShardReadDeliversServeTimeBytes: a cross-shard READ copies the
// record out at target service. A WRITE that lands on the record between
// service and delivery must not show in the delivered bytes, and the next
// READ, which recycles the same bounce buffer, must deliver its own
// record.
func TestCrossShardReadDeliversServeTimeBytes(t *testing.T) {
	// A long wire leaves room for a whole loopback WRITE at the server
	// between the READ's service and its delivery.
	b := newPoolBed(t, false, func(c *Config) { c.PropagationDelay = 20 * sim.Microsecond })
	if err := b.region.CopyIn(recA, fill(0xaa, DataIOSize)); err != nil {
		t.Fatal(err)
	}
	if err := b.region.CopyIn(recB, fill(0xbb, DataIOSize)); err != nil {
		t.Fatal(err)
	}
	loop, err := b.server.fabric.Connect(b.server, b.server)
	if err != nil {
		t.Fatal(err)
	}

	var first *byte
	delivered := false
	err = b.qp.Read(b.region, recA, DataIOSize, func(data []byte) {
		delivered = true
		if !bytes.Equal(data, fill(0xaa, DataIOSize)) {
			t.Errorf("READ delivered %#x.., want the serve-time record 0xaa..", data[:4])
		}
		if live, _ := b.region.CopyOut(recA, 4); !bytes.Equal(live, fill(0xcc, 4)) {
			t.Errorf("region holds %#x at delivery, want the overwrite 0xcc..", live)
		}
		first = &data[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	servedBefore := b.server.prof.Reads
	for b.server.prof.Reads == servedBefore {
		b.advance(sim.Microsecond)
	}
	written := false
	if err := loop.Write(b.region, recA, fill(0xcc, DataIOSize), func() { written = true }); err != nil {
		t.Fatal(err)
	}
	for !written {
		b.advance(sim.Microsecond)
		if delivered {
			t.Fatal("READ delivered before the overwrite landed; the test's timing assumption broke")
		}
	}
	b.settle()
	if !delivered {
		t.Fatal("first READ never delivered")
	}

	delivered = false
	err = b.qp.Read(b.region, recB, DataIOSize, func(data []byte) {
		delivered = true
		if &data[0] != first {
			t.Error("second READ did not recycle the first READ's buffer")
		}
		if !bytes.Equal(data, fill(0xbb, DataIOSize)) {
			t.Errorf("recycled buffer delivered %#x.., want its own record 0xbb..", data[:4])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b.settle()
	if !delivered {
		t.Fatal("second READ never delivered")
	}
}

// TestFreelistHighWater: payload buffers out are bounded by what is in
// flight, not by what was posted — a cross-shard READ takes its buffer
// only once it holds a flow-control credit and is leaving for the wire.
func TestFreelistHighWater(t *testing.T) {
	const reads = 10_000
	t.Run("read burst", func(t *testing.T) {
		b := newPoolBed(t, false, nil)
		done := 0
		for i := 0; i < reads; i++ {
			if err := b.qp.Read(b.region, recA, DataIOSize, func([]byte) { done++ }); err != nil {
				t.Fatal(err)
			}
		}
		b.advance(100 * sim.Millisecond)
		if done != reads {
			t.Fatalf("%d of %d READs delivered", done, reads)
		}
		b.checkPools(t, reads, b.qp.window)
	})
	t.Run("read closed loop", func(t *testing.T) {
		b := newPoolBed(t, false, nil)
		posted, done := 0, 0
		var next func([]byte)
		post := func() {
			posted++
			if err := b.qp.Read(b.region, recA, DataIOSize, next); err != nil {
				t.Fatal(err)
			}
		}
		next = func([]byte) {
			done++
			if posted < reads {
				post()
			}
		}
		for i := 0; i < b.qp.window; i++ {
			post()
		}
		b.advance(100 * sim.Millisecond)
		if done != reads {
			t.Fatalf("%d of %d READs delivered", done, reads)
		}
		// A callback posts the next READ before its own record is back.
		b.checkPools(t, b.qp.window+1, b.qp.window)
	})
	t.Run("write burst", func(t *testing.T) {
		const writes = 300
		b := newPoolBed(t, false, nil)
		payload := fill(0x11, DataIOSize)
		for i := 0; i < writes; i++ {
			if err := b.qp.Write(b.region, recB, payload, nil); err != nil {
				t.Fatal(err)
			}
		}
		b.advance(100 * sim.Millisecond)
		if got := b.server.prof.Writes; got != writes {
			t.Fatalf("%d of %d WRITEs served", got, writes)
		}
		b.checkPools(t, writes, writes)
	})
}

// checkPools asserts the client's freelists after a drained run: every
// record is back and at most maxRecords exist, at most maxBufs buffers
// exist, and the server's kernel — which only ever saw the client's
// records in passing — pooled none of them.
func (b *poolBed) checkPools(t *testing.T, maxRecords, maxBufs int) {
	t.Helper()
	cp, sp := b.client.pool, b.server.pool
	if n := len(cp.records()); n == 0 || n > maxRecords {
		t.Errorf("client freelists hold %d records, want 1..%d", n, maxRecords)
	}
	if n := len(cp.bufs); n == 0 || n > maxBufs {
		t.Errorf("client freelist holds %d buffers, want 1..%d", n, maxBufs)
	}
	if n := len(sp.records()); n != 0 || len(sp.bufs) != 0 {
		t.Errorf("server freelists hold %d records and %d buffers of a foreign kernel, want none",
			n, len(sp.bufs))
	}
	for _, op := range cp.records() {
		if !recycled(op) {
			t.Fatal("pooled record still references its last verb")
		}
	}
	if b.client.flight == nil && len(cp.spans) != 0 {
		t.Errorf("client freelist holds %d spans with no recorder attached, want none", len(cp.spans))
	}
}

// TestFleetVerbsTakeNoExtension: what a fleet client posts — 4 KB and
// probe READs, FETCH_ADDs, 8-byte reports with and without completion,
// and record UPDATEs of a key and zeros — rides in plain records: no
// verb takes an extension or a payload buffer.
func TestFleetVerbsTakeNoExtension(t *testing.T) {
	b := newPoolBed(t, false, nil)
	if err := b.region.CopyIn(recB, fill(0xff, DataIOSize)); err != nil {
		t.Fatal(err)
	}
	qp, pool := b.localQP, b.local.pool
	completions := 0
	onRead := func([]byte) { completions++ }
	onOld := func(int64) { completions++ }
	onDone := func() { completions++ }
	update := make([]byte, DataIOSize)
	const rounds = 64
	for i := 1; i <= rounds; i++ {
		binary.LittleEndian.PutUint64(update, uint64(i))
		for _, err := range []error{
			qp.Read(b.region, recA, DataIOSize, onRead),
			qp.Read(b.region, recA, 64, onRead),
			qp.FetchAdd(b.region, 16, 1, onOld),
			qp.WriteUint64(b.region, 8, uint64(i), nil),
			qp.WriteUint64(b.region, 24, uint64(i), onDone),
			qp.Write(b.region, recB, update, onDone),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if exts := pooled(pool.exts); len(exts) != 0 {
			t.Fatalf("round %d: %d records with an extension pooled", i, len(exts))
		}
	}
	b.advance(100 * sim.Millisecond)
	if completions != 5*rounds {
		t.Fatalf("%d completions, want %d", completions, 5*rounds)
	}
	free, exts := pooled(pool.free), pooled(pool.exts)
	if len(free) == 0 || len(exts) != 0 || len(pool.bufs) != 0 {
		t.Errorf("pooled: %d plain records, %d with an extension, %d buffers; want some, none, none",
			len(free), len(exts), len(pool.bufs))
	}
	for _, op := range free {
		if op.ext != nil {
			t.Fatal("a plain record carries an extension")
		}
	}
	got, _ := b.region.CopyOut(recB, DataIOSize)
	binary.LittleEndian.PutUint64(update, rounds)
	if !bytes.Equal(got, update) {
		t.Errorf("record after the UPDATEs starts %x, want the last key and zeros", got[:16])
	}
}

// TestRecycledRecordCarriesNothingStale: a record that comes back from a
// SEND, a CMP_SWAP or a buffered WRITE is pooled with its payload, swap
// value and buffer cleared, and the verbs that take it next — on a
// same-shard and a cross-shard QP — see none of them.
func TestRecycledRecordCarriesNothingStale(t *testing.T) {
	for _, cross := range []bool{false, true} {
		b := newPoolBed(t, false, nil)
		qp, pool := b.localQP, b.local.pool
		if cross {
			qp, pool = b.qp, b.client.pool
		}
		const cell = 2 * DataIOSize
		stale := Message{Kind: kindX, Flag: true, Seq: 3, A: -5, B: 1 << 50}
		var got []Message
		b.server.SetRecvHandler(func(_ *Node, m Message) { got = append(got, m) })
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			b.settle()
			if pool.exts == nil {
				t.Fatalf("cross=%v: after %s no record with an extension is pooled", cross, what)
			}
			for _, op := range pool.records() {
				if !recycled(op) {
					t.Fatalf("cross=%v: after %s a pooled record still holds its verb", cross, what)
				}
			}
		}
		step("a SEND", qp.Send(stale, 64, func() {}))
		step("a CMP_SWAP", qp.CompareSwap(b.region, cell, 0, 0x77, nil))
		step("a buffered WRITE", qp.Write(b.region, recB, fill(0xee, DataIOSize), nil))

		if err := b.region.CopyIn(recA, fill(0x11, DataIOSize)); err != nil {
			t.Fatal(err)
		}
		update := make([]byte, DataIOSize)
		binary.LittleEndian.PutUint64(update, 9)
		var old int64 = -1
		step("an empty SEND", qp.Send(Message{}, 64, func() {}))
		step("an inline WRITE", qp.Write(b.region, recA, update, nil))
		step("a failing CMP_SWAP", qp.CompareSwap(b.region, cell, 1, 2, func(v int64) { old = v }))
		if len(got) != 2 || got[0] != stale || got[1] != (Message{}) {
			t.Errorf("cross=%v: server received %+v, want [%+v {}]", cross, got, stale)
		}
		if rec, _ := b.region.CopyOut(recA, DataIOSize); !bytes.Equal(rec, update) {
			t.Errorf("cross=%v: record after the inline WRITE starts %x, want 9 and zeros", cross, rec[:16])
		}
		if v, _ := b.region.Uint64(cell); old != 0x77 || v != 0x77 {
			t.Errorf("cross=%v: CMP_SWAP saw %#x and left %#x, want 0x77 both", cross, old, v)
		}
	}
}

// recycled reports whether a pooled record holds nothing of its last verb
// but its extension and the continuation an earlier hop bound there; its
// next link is the freelist's.
func recycled(op *flowOp) bool {
	if x := op.ext; x != nil && (x.msg != (Message{}) || x.swap != 0 || x.buf != nil || x.span != nil || x.qp != nil) {
		return false
	}
	return op.kind == 0 && !op.control && !op.back && op.size == 0 &&
		op.region == nil && op.off == 0 && op.delta == 0 && op.cb == nil
}

// pooled lists the records of one freelist, top first.
func pooled(list *flowOp) []*flowOp {
	var ops []*flowOp
	for op := list; op != nil; op = op.next {
		ops = append(ops, op)
	}
	return ops
}

// records lists every record the pool holds, plain ones first.
func (p *opPool) records() []*flowOp { return append(pooled(p.free), pooled(p.exts)...) }

// TestRecordFootprint pins what a verb in flight and a connection cost:
// the record is one 64-byte cache line and the 64-byte allocation class
// (its QP named by the queue that holds it, its weights derived, an
// atomic's result in its operand, size packed with the flag bytes, one
// callback slot, what only some verbs carry — a span, a hop's QP —
// behind one pointer), a record with its extension still fits the
// 128-byte class, and a QP is twelve two-word queues, not twelve slice
// headers.
func TestRecordFootprint(t *testing.T) {
	if got := unsafe.Sizeof(flowOp{}); got > 64 {
		t.Errorf("flowOp is %d bytes, want <= 64", got)
	}
	if got := unsafe.Sizeof(extOp{}); got > 128 {
		t.Errorf("a record with its extension is %d bytes, want <= 128", got)
	}
	if got := unsafe.Sizeof(QP{}); got > 320 {
		t.Errorf("QP is %d bytes, want <= 320", got)
	}
}

// TestPooledRecordsTwoWorkers drives cross-shard traffic in both
// directions at once: every READ must deliver its record's bytes while
// the records it rides in are recycled on both shards' freelists and
// handed between kernels by the mailbox.
func TestPooledRecordsTwoWorkers(t *testing.T) {
	b := newPoolBed(t, true, nil)
	f := b.server.fabric
	// The mirror image of qp: a server on shard 1, targeted from shard 0.
	far, err := f.AddServer("s1/dn")
	if err != nil {
		t.Fatal(err)
	}
	farRegion, err := far.RegisterRegion("records", 4*DataIOSize)
	if err != nil {
		t.Fatal(err)
	}
	farQP, err := f.Connect(b.local, far)
	if err != nil {
		t.Fatal(err)
	}
	if !farQP.cross {
		t.Fatal("c0 -> s1/dn is not cross-shard")
	}

	// Each direction runs a closed loop of READs that check their bytes
	// (recA is never written), beside WRITEs with and without completion
	// and atomics on other offsets. The counters are per direction: each
	// is written by one kernel only.
	const perLoop = 2000
	type dir struct {
		qp     *QP
		region *Region
		want   []byte
		reads  int
		acks   int
	}
	dirs := []*dir{
		{qp: b.qp, region: b.region, want: fill(0xa1, DataIOSize)},
		{qp: farQP, region: farRegion, want: fill(0xb2, DataIOSize)},
	}
	payload := fill(0x33, DataIOSize)
	for _, d := range dirs {
		d := d
		if err := d.region.CopyIn(recA, d.want); err != nil {
			t.Fatal(err)
		}
		var onRead func([]byte)
		onAck := func() { d.acks++ }
		onRead = func(data []byte) {
			if !bytes.Equal(data, d.want) {
				t.Errorf("%s->%s: READ delivered %#x.., want %#x..",
					d.qp.initiator.name, d.qp.target.name, data[:4], d.want[:4])
			}
			d.reads++
			if d.reads >= perLoop {
				return
			}
			errs := []error{
				d.qp.Read(d.region, recA, DataIOSize, onRead),
				d.qp.Write(d.region, recB, payload, nil),
				d.qp.Write(d.region, 2*DataIOSize, payload, onAck),
				d.qp.WriteUint64(d.region, 3*DataIOSize, uint64(d.reads), nil),
				d.qp.FetchAdd(d.region, 3*DataIOSize+8, 1, nil),
			}
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		}
		for i := 0; i < 8; i++ {
			if err := d.qp.Read(d.region, recA, DataIOSize, onRead); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.advance(200 * sim.Millisecond)
	for _, d := range dirs {
		if d.reads < perLoop || d.acks == 0 {
			t.Errorf("%s->%s: %d READs and %d WRITE completions, want at least %d and some",
				d.qp.initiator.name, d.qp.target.name, d.reads, d.acks, perLoop)
		}
		if got, _ := d.region.Uint64(3*DataIOSize + 8); got == 0 {
			t.Errorf("%s: no FETCH_ADD applied", d.region.owner.name)
		}
	}
}
