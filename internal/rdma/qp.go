package rdma

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// QP is a queue pair: a unidirectional verb channel from an initiator node
// to a target node. Verbs submitted on a QP are processed FIFO at each
// station they traverse, so per-QP ordering matches RDMA reliable
// connection semantics.
//
// One-sided verbs (Read, Write, FetchAdd, CompareSwap) never involve the
// target CPU: their memory effects are applied by the simulated target NIC
// at its service-completion instant. Two-sided Sends are handed to the
// target CPU (for servers) and delivered to the node's receive handler.
//
// Verbs are represented as pooled flowOp records that move by pointer
// through per-QP per-stage FIFOs, each a head and a tail linked through
// the records; every pipeline stage completes through a callback bound
// once at Connect. This exploits the FIFO ordering each stage already
// guarantees (stations are FIFO within a class, the wire is a constant
// delay, the kernel breaks ties by scheduling order), so in steady state
// posting a verb allocates nothing: the record, its flight-recorder span
// and its payload buffer all come from the initiator kernel's freelists
// (see opPool) and return there when the verb completes.
type QP struct {
	fabric    *Fabric
	id        int
	initiator *Node
	target    *Node

	// cross marks a QP whose initiator and target live on different
	// shard kernels. Such a QP splits its pipeline at the wire: the
	// initiator-side stages run on the initiator's kernel, the
	// target-side stages on the target's, and every wire hop (arrival,
	// completion delivery, credit return) travels through the shard
	// coordinator's mailboxes as a message carrying the record's pointer
	// — the shared per-stage wire/deliver FIFOs are bypassed, since a
	// FIFO belongs to one kernel. The message is the
	// record's one continuation, bound the first time the record crosses,
	// so a recycled record's hop allocates nothing either.
	cross bool

	// ctxSlot is this QP's place in the QP-context caches of its two ends
	// (see qpCache): slot+1 in the initiator NIC's cache at [0] and in the
	// target NIC's at [1], zero while the context is not cached there. A
	// loopback QP has one end and uses [0]. Each word is written only by
	// the cache of its own end, on that end's kernel.
	ctxSlot [2]int32

	// Credit-based flow control for bulk transfers (see
	// Config.FlowControlWindow): inFlight counts data operations admitted
	// to the target and not yet serviced; waiting holds operations that
	// arrived at the wire without a credit. serverQ is this QP's queue in
	// the target's round-robin scheduler.
	window   int
	inFlight int
	waiting  opFIFO
	serverQ  *dataQueue

	// Pipeline-stage FIFOs. Control-class and bulk-class operations each
	// traverse their own initiator-NIC and wire stages (the two classes
	// complete out of order relative to each other, but FIFO within a
	// class); the remaining queues cover the target-side and delivery
	// stages. deliver is shared by every op kind: each push is paired
	// with scheduling one propagation-delayed event, so events pop in
	// push order.
	ctrlInit  opFIFO // awaiting initiator-NIC priority completion
	ctrlWire  opFIFO // on the wire toward the target (control class)
	ctrlServe opFIFO // awaiting target-NIC priority completion
	bulkInit  opFIFO // awaiting initiator-NIC bulk completion
	bulkWire  opFIFO // on the wire toward the target (bulk class)
	sendBulk  opFIFO // bulk SENDs awaiting a client target's NIC
	sendSrv   opFIFO // SENDs awaiting a server target's NIC
	sendCPU   opFIFO // SENDs awaiting a server target's CPU
	loopCtrl  opFIFO // loopback control ops at the initiator NIC
	loopBulk  opFIFO // loopback bulk ops at the initiator NIC
	deliver   opFIFO // completions awaiting delivery at the initiator

	// Wire arrival horizons. The FIFO pipeline pairs each wire push with
	// one delayed event, which is only correct while arrivals happen in
	// push order — guaranteed when the wire is a constant delay, but not
	// under a link-jitter storm, whose random extra could reorder two
	// hops. Each wire direction therefore clamps its arrival time to be
	// no earlier than the previous arrival on the same wire. Each horizon
	// has a single writer kernel: ctrlWireAt and bulkWireAt are written
	// only on the initiator's kernel (ctrlInitDone/bulkInitDone),
	// backWireAt only on the target's (serveOp/sendDeliver). With no
	// storm armed the clamp never binds (arrivals are already
	// non-decreasing), so the event sequence is unchanged.
	ctrlWireAt sim.Time
	bulkWireAt sim.Time
	backWireAt sim.Time

	// Kernel-timer callbacks (wire arrivals, completion delivery), bound
	// once at Connect. Station-stage completions need no per-QP closures:
	// they dispatch through (qp id, stage) tags resolved by one bound
	// function per node (see Node.dispatchTag).
	ctrlArriveFn func()
	bulkArriveFn func()
	deliverFn    func()
}

func (qp *QP) bindStages() {
	qp.ctrlArriveFn = qp.ctrlArrive
	qp.bulkArriveFn = qp.bulkArrive
	qp.deliverFn = qp.deliverNext
}

// Station-stage identifiers for tag dispatch: a tag packs the queue
// pair's dense id above stageBits bits of stage.
const (
	stageCtrlInit  uint32 = iota // initiator NIC finished a control op
	stageCtrlServe               // target NIC finished a control op
	stageBulkInit                // initiator NIC finished a bulk op
	stageSendBulk                // client target NIC finished a bulk SEND
	stageSendSrv                 // server target NIC finished a SEND header
	stageSendCPU                 // server target CPU finished a SEND
	stageLoopCtrl                // loopback control op traversed the NIC
	stageLoopBulk                // loopback bulk op traversed the NIC
	stageSched                   // the node's scheduler finished its op (no QP in the tag)
)

const (
	stageBits = 4
	stageMask = 1<<stageBits - 1
)

// tag packs this QP's id with a stage for station dispatch.
func (qp *QP) tag(stage uint32) uint32 { return uint32(qp.id)<<stageBits | stage }

// opKind tags the operation a flowOp record carries through the pipeline.
// The verb kinds share trace.Op's numbering, so a verb's span op is
// trace.Op(kind).
type opKind uint8

const (
	// opFunc is a raw unit of target service used by injection paths
	// (background jobs) that enqueue directly at a target scheduler.
	opFunc        opKind = 0
	opRead               = opKind(trace.OpRead)
	opWrite              = opKind(trace.OpWrite)
	opFetchAdd           = opKind(trace.OpFetchAdd)
	opCompareSwap        = opKind(trace.OpCompareSwap)
	opSend               = opKind(trace.OpSend)
)

// flowOp is one verb moving through the pipeline: a pooled record that
// stage FIFOs, the scheduler and the cross-shard mailbox all hold by
// pointer. It carries what no stage can work out — the routing class,
// the target memory range, the 8-byte operand, the caller's completion
// callback — and the link of the one stage queue it is in. Everything
// derivable is derived: the QP is the one whose stage queue holds the
// record (every stage runs as a method of that QP, the scheduler reads it
// off its dataQueue), a stage computes the service weight from kind and
// size (see weight), an atomic's result overwrites its operand, and the
// two cross-shard hops share one continuation. What only some verbs
// carry lives in an extension (opExt). A READ, a FETCH_ADD or an inline
// WRITE is this record and nothing beside it: 64 bytes, one cache line
// and the 64-byte size class (TestRecordFootprint).
//
// Ownership: a record is taken from and returned to the freelist of the
// initiator's kernel, and only code running on that kernel ever touches
// the freelist. Between its two wire hops a cross-shard record belongs to
// the mailbox message that carries it: the target's kernel stamps the
// span, fills buf and the result, and posts it back; the quantum barrier
// orders those writes before the initiator's reads. See DESIGN.md §8.2.
type flowOp struct {
	// next links the record into the stage queue holding it (see opFIFO)
	// or, while pooled, into its freelist (see opPool); nil otherwise.
	next *flowOp

	kind    opKind
	control bool
	// back marks a cross-shard record on its return hop (see hop).
	back bool
	// size is the verb's length in bytes: a READ's or WRITE's range, a
	// SEND's wire size.
	size uint32

	region *Region
	off    int

	// delta is the verb's 8-byte immediate: FETCH_ADD's addend, CMP_SWAP's
	// expected value, or an inline WRITE's head in little-endian order. A
	// WRITE is inline when its payload is zero past its first 8 bytes —
	// Haechi's silent reports and token pushes, and record UPDATEs of a key
	// and zeros — so it posts no buffer: apply writes the head and clears
	// the rest. An atomic's apply replaces delta with the pre-operation
	// value, the result its completion delivers.
	delta int64

	// cb is the caller's completion callback, nil when there is none: a
	// READ's func([]byte), an atomic's func(old int64), or the func() that
	// completes a WRITE or a SEND at the initiator and an opFunc injection
	// at its injector. A verb has at most one, so they share the slot.
	cb any

	// ext is nil on a record that carries only the fields above; see opExt.
	ext *opExt
}

// opExt is what only some verbs carry: a SEND's message, a CMP_SWAP's
// swap value, a WRITE's captured buffer, a recorded verb's span, and a
// cross-shard hop's QP, continuation and READ bounce buffer. It is
// allocated as part of its record (extOp) and never leaves it, so a
// record with an extension is one object of 128 bytes.
type opExt struct {
	msg  Message // SEND payload, held by value
	swap int64
	// buf is a pooled payload buffer: a WRITE's data captured at call
	// time, or the bounce buffer a cross-shard READ's data is copied into
	// at serve time. It returns to the freelist with the record.
	buf *[]byte
	// span is nil with recording off, else pooled storage taken with the
	// record and returned with it.
	span *trace.Span
	// qp is the verb's queue pair, for the one stage no QP method runs:
	// the mailbox hop (see hop).
	qp *QP
	// hopFn is the wire-hop continuation handed to the mailbox: op.hop,
	// bound the first time the record crosses and kept across recycling.
	hopFn func()
}

// extOp is a record and its extension in one allocation.
type extOp struct {
	op  flowOp
	ext opExt
}

// weight is the op's service weight at every station that charges it by
// kind and size: each stage of a one-sided verb, and the target
// scheduler for an opFunc unit. A SEND's weights depend on its endpoints
// and are worked out where they are charged.
func (op *flowOp) weight() float64 {
	switch op.kind {
	case opFetchAdd, opCompareSwap:
		return AtomicWeight
	case opFunc:
		return 1
	}
	return sizeWeight(int(op.size))
}

// buffer returns the op's pooled payload buffer, nil when it has none.
func (op *flowOp) buffer() *[]byte {
	if op.ext == nil {
		return nil
	}
	return op.ext.buf
}

// sp returns the op's flight-recorder span, nil when it is not recorded.
func (op *flowOp) sp() *trace.Span {
	if op.ext == nil {
		return nil
	}
	return op.ext.span
}

// opPool is one kernel's freelists: verb records, records with an
// extension, flight-recorder spans and payload buffers. All are LIFO
// stacks that start empty and grow to the run's high-water mark on
// demand: the two record lists are threaded through the records' own
// next link (a pooled record is in no stage queue), the others are
// slices; spans is touched only while a flight recorder is attached.
// Every node caches its shard's pool; get/put/getSpan/getBuf run only on
// that shard's kernel, so there is a single writer and no locking — which
// is also why this is not a sync.Pool: that would put a concurrency
// primitive on the event path (the noconcurrency lint), and its reuse
// depends on GC timing, while a verb's allocation behaviour here depends
// on the event sequence alone.
type opPool struct {
	free  *flowOp
	exts  *flowOp // records whose ext is set
	spans []*trace.Span
	bufs  []*[]byte
}

// get returns a zeroed record, with an extension when ext is set. An
// extended record keeps the continuation an earlier hop bound.
func (p *opPool) get(ext bool) *flowOp {
	list := &p.free
	if ext {
		list = &p.exts
	}
	if op := *list; op != nil {
		*list, op.next = op.next, nil
		return op
	}
	if !ext {
		return &flowOp{}
	}
	x := &extOp{}
	x.op.ext = &x.ext
	return &x.op
}

// put recycles a finished record with its extension, span and payload
// buffer. The reset drops every reference the verb held (callback,
// payload, buffer, region).
func (p *opPool) put(op *flowOp) {
	ext := op.ext
	if ext == nil {
		*op = flowOp{next: p.free}
		p.free = op
		return
	}
	if ext.span != nil {
		p.spans = append(p.spans, ext.span)
	}
	if ext.buf != nil {
		p.bufs = append(p.bufs, ext.buf)
	}
	*ext = opExt{hopFn: ext.hopFn}
	*op = flowOp{next: p.exts, ext: ext}
	p.exts = op
}

// getSpan returns span storage for a verb posted under a flight recorder;
// Begin overwrites every field.
func (p *opPool) getSpan() *trace.Span {
	if last := len(p.spans) - 1; last >= 0 {
		sp := p.spans[last]
		p.spans[last] = nil
		p.spans = p.spans[:last]
		return sp
	}
	return &trace.Span{}
}

// getBuf returns an n-byte payload buffer. Buffers are allocated in the
// DataIOSize class (everything a 4 KB I/O or smaller needs fits any of
// them); a larger request that the top buffer cannot hold gets a fresh
// one of its own size, which is pooled like the rest afterwards.
func (p *opPool) getBuf(n int) *[]byte {
	if last := len(p.bufs) - 1; last >= 0 && cap(*p.bufs[last]) >= n {
		b := p.bufs[last]
		p.bufs[last] = nil
		p.bufs = p.bufs[:last]
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n, max(n, DataIOSize))
	return &b
}

// hop is a cross-shard op's wire hop. Outbound it resumes on the target's
// kernel at the target NIC; on the way back (back set) it runs on the
// initiator's kernel: the flow-control credit first, then the completion,
// and an op that only came back for its credit ends here.
func (op *flowOp) hop() {
	qp := op.ext.qp
	if !op.back {
		if op.control {
			qp.ctrlArriveOp(op)
		} else {
			qp.bulkArriveOp(op)
		}
		return
	}
	if op.holdsCredit() {
		qp.releaseCredit()
	}
	if op.needsDeliver() {
		qp.deliverOp(op)
		return
	}
	qp.initiator.pool.put(op)
}

// holdsCredit reports whether the op was admitted through the QP's
// flow-control window (every bulk one-sided verb; SENDs are not
// flow-controlled).
func (op *flowOp) holdsCredit() bool { return !op.control && op.kind != opSend }

// needsDeliver reports whether the op schedules a completion delivery
// back at the initiator after its memory effect is applied. READs and
// atomics always deliver (the old value or the data travels back);
// WRITEs and SENDs only when the caller asked for a completion callback.
func (op *flowOp) needsDeliver() bool {
	switch op.kind {
	case opRead, opFetchAdd, opCompareSwap:
		return true
	case opWrite, opSend:
		return op.cb != nil
	}
	return false
}

// apply performs the op's memory effect at the target; for atomics the
// pre-operation value replaces delta, for delivery.
func (op *flowOp) apply() {
	switch op.kind {
	case opWrite:
		if buf := op.buffer(); buf != nil {
			op.region.write(op.off, *buf)
			break
		}
		var cell [8]byte
		binary.LittleEndian.PutUint64(cell[:], uint64(op.delta))
		head := min(int(op.size), len(cell))
		op.region.write(op.off, cell[:head])
		op.region.zero(op.off+head, int(op.size)-head)
	case opFetchAdd:
		old := int64(op.region.load64(op.off))
		op.region.store64(op.off, uint64(old+op.delta))
		op.delta = old
	case opCompareSwap:
		old := int64(op.region.load64(op.off))
		if old == op.delta {
			op.region.store64(op.off, uint64(op.ext.swap))
		}
		op.delta = old
	}
}

// invokeCB runs the caller's completion callback, if there is one.
func (op *flowOp) invokeCB() {
	switch cb := op.cb.(type) {
	case func([]byte):
		// Cross-shard READs copy the target memory into buf at serve time
		// (see serveOp): the live region view belongs to the target's
		// shard and must not be read a propagation later from the
		// initiator's. Same-shard READs keep the zero-copy view. Either
		// way the slice is the callback's only until it returns.
		if buf := op.buffer(); buf != nil {
			cb(*buf)
		} else {
			cb(op.region.window(op.off, int(op.size)))
		}
	case func(int64):
		cb(op.delta)
	case func():
		cb()
	}
}

// Initiator returns the initiating node.
func (qp *QP) Initiator() *Node { return qp.initiator }

// ID returns the queue pair's fabric-wide creation-order id.
func (qp *QP) ID() int { return qp.id }

// newOp takes a record from the initiator's freelist for a verb posted
// on this QP and, when recording is on, begins its flight-recorder span
// in storage from the same pool. The record has an extension when ext is
// set, the QP is cross-shard (the hop needs its QP) or a recorder is
// attached (the span lives there).
func (qp *QP) newOp(kind opKind, control, ext bool) *flowOp {
	n := qp.initiator
	fr := n.flight
	op := n.pool.get(ext || qp.cross || fr != nil)
	op.kind = kind
	op.control = control
	if x := op.ext; x != nil {
		x.qp = qp
		if fr != nil { // the initiator's shard begins the span
			x.span = fr.Begin(n.pool.getSpan(), trace.Op(kind), control, uint32(n.id), uint32(qp.target.id), qp.id, n.k.Now())
		}
	}
	return op
}

// retire ends op at a target-side stage that owes the initiator nothing
// more. Same-shard, one kernel runs both ends and the record goes back to
// its freelist. Cross-shard, this is the target's kernel and the freelist
// is not its to touch: the record is left to the collector (control
// WRITEs and SENDs without completion — Haechi's reports and pushes).
func (qp *QP) retire(op *flowOp) {
	if !qp.cross {
		qp.initiator.pool.put(op)
	}
}

// Target returns the target node.
func (qp *QP) Target() *Node { return qp.target }

// checkAccess validates a one-sided verb's target: r must be a region of
// the QP's target and [off, off+size) inside it, and size must fit the
// record's 32-bit length.
func (qp *QP) checkAccess(r *Region, off, size int) error {
	if r == nil {
		return fmt.Errorf("rdma: %s->%s: nil region", qp.initiator.name, qp.target.name)
	}
	if r.owner != qp.target {
		return fmt.Errorf("rdma: %s->%s: region %q is owned by %s, not the QP target",
			qp.initiator.name, qp.target.name, r.name, r.owner.name)
	}
	if err := r.checkRange(off, size); err != nil {
		return err
	}
	if uint64(size) > math.MaxUint32 {
		return fmt.Errorf("rdma: %s->%s: verb size %d does not fit in 32 bits", qp.initiator.name, qp.target.name, size)
	}
	return nil
}

// loopback reports whether this QP targets its own node (e.g. the QoS
// monitor manipulating the global token cell through its own NIC).
func (qp *QP) loopback() bool { return qp.initiator == qp.target }

// initiate charges the initiator NIC, then after propagation charges the
// target NIC and applies the op, then after propagation delivers the
// completion. For loopback QPs the op traverses the NIC once and skips the
// wire.
//
// When the op carries a span the pipeline stamps the span's stage
// timestamps. Stamps happen strictly inside callbacks the pipeline runs
// anyway and the span is finished at the memory-effect instant when the
// op needs no delivery — recording never schedules an event of its own,
// so the kernel's event sequence is identical with tracing on or off.
func (qp *QP) initiate(op *flowOp) {
	if qp.loopback() {
		pen := qp.initiator.qpPenalty(qp)
		if op.control {
			qp.loopCtrl.push(op)
			qp.initiator.nic.SubmitPriorityTagged(op.weight()+pen, qp.tag(stageLoopCtrl))
		} else {
			qp.loopBulk.push(op)
			qp.initiator.nic.SubmitTagged(op.weight()+pen, qp.tag(stageLoopBulk))
		}
		return
	}
	if op.control {
		qp.ctrlInit.push(op)
		qp.initiator.nic.SubmitPriorityTagged(op.weight()+qp.initiator.qpPenalty(qp), qp.tag(stageCtrlInit))
		return
	}
	qp.admitData(op)
}

// ctrlInitDone: a control op finished initiator-NIC service; put it on
// the wire. Cross-shard, the wire hop is a mailbox message carrying the
// record to the target's kernel.
func (qp *QP) ctrlInitDone() {
	op := qp.ctrlInit.pop()
	k := qp.initiator.k
	qp.initiator.prof.InitNICDone++
	if sp := op.sp(); sp != nil {
		sp.InitDone = k.Now()
	}
	at := qp.wireAt(k, &qp.ctrlWireAt)
	if qp.cross {
		qp.postToTarget(op, at)
		return
	}
	qp.ctrlWire.push(op)
	k.At(at, qp.ctrlArriveFn)
}

// wireAt computes a wire hop's arrival time — propagation plus any
// storm-drawn extra — clamped to the given direction's arrival horizon
// so arrivals stay in push order (see the horizon fields). Cross-shard
// the returned time is always ≥ now+PropagationDelay, the coordinator's
// lookahead, so the hop remains a legal mailbox message under storms.
func (qp *QP) wireAt(k *sim.Kernel, horizon *sim.Time) sim.Time {
	at := k.Now() + qp.fabric.cfg.PropagationDelay + qp.fabric.wireExtra(k)
	if at < *horizon {
		at = *horizon
	}
	*horizon = at
	return at
}

// ctrlArrive: a control op reached the target (same-shard FIFO path).
func (qp *QP) ctrlArrive() { qp.ctrlArriveOp(qp.ctrlWire.pop()) }

// ctrlArriveOp charges the target NIC's priority path for an arrived
// control op. Runs on the target's kernel.
func (qp *QP) ctrlArriveOp(op *flowOp) {
	qp.target.prof.WireArrivals++
	if sp := op.sp(); sp != nil {
		sp.Arrived = qp.target.k.Now()
	}
	qp.noteArrival(op)
	if op.kind == opSend {
		qp.sendTargetSubmit(op)
		return
	}
	qp.ctrlServe.push(op)
	qp.target.nic.SubmitPriorityTagged(op.weight()+qp.target.qpPenalty(qp), qp.tag(stageCtrlServe))
}

// noteArrival counts an op against the target's verb stats. Same-shard
// QPs count at post time (the historical and still-default accounting
// instant); cross-shard QPs must count here, on the target's shard, so
// the counters have a single writer.
func (qp *QP) noteArrival(op *flowOp) {
	if !qp.cross {
		return
	}
	if op.kind == opSend {
		qp.target.stats.SendsReceived++
	} else {
		qp.land(op.kind, op.region)
	}
}

// land counts a one-sided verb against its target node and the region it
// lands on. It runs on the target's kernel: at post time for a same-shard
// QP (the verb methods), at wire arrival for a cross-shard one
// (noteArrival).
func (qp *QP) land(kind opKind, r *Region) {
	qp.target.stats.OneSidedTargeted++
	r.landed.count(kind)
}

// postToTarget sends op across the wire to the target's shard, where it
// resumes at hop. This is the last instant the initiator's kernel holds
// the record, so a READ takes its bounce buffer here: every bulk READ
// past this point holds a flow-control credit, which bounds the buffers a
// QP has out by FlowControlWindow.
func (qp *QP) postToTarget(op *flowOp, at sim.Time) {
	if op.kind == opRead {
		op.ext.buf = qp.initiator.pool.getBuf(int(op.size))
	}
	qp.initiator.prof.MailboxPosts++
	qp.post(op, qp.initiator.shard, qp.target.shard, at)
}

// post hands op's wire hop from shard src to shard dst, binding the
// record's continuation on its first crossing.
func (qp *QP) post(op *flowOp, src, dst int, at sim.Time) {
	if op.ext.hopFn == nil {
		op.ext.hopFn = op.hop
	}
	qp.fabric.post(src, dst, at, op.ext.hopFn)
}

// ctrlServed: the target NIC finished a control-class op — either a
// one-sided verb (apply its effect) or a SEND to a client target
// (deliver it).
func (qp *QP) ctrlServed() {
	op := qp.ctrlServe.pop()
	if op.kind == opSend {
		qp.sendDeliver(op)
		return
	}
	qp.serveOp(op)
}

// serveOp applies a one-sided op's memory effect at target-service
// completion and schedules the completion delivery back to the initiator.
// Shared by the control path, the bulk scheduler path, and (without the
// propagation hop) the loopback path.
func (qp *QP) serveOp(op *flowOp) {
	k := qp.target.k
	qp.target.prof.countKind(op.kind)
	if sp := op.sp(); sp != nil {
		sp.Served = k.Now()
		if !op.needsDeliver() {
			// The span ends here; fold it into the target's shard recorder
			// (this code runs on the target's kernel).
			qp.target.flight.Finish(sp)
		}
	}
	if qp.cross && op.kind == opRead {
		// Copy the data out now, into the bounce buffer the op brought
		// along; invokeCB prefers buf over the live region view. An
		// unwritten page of a paged region is a prefix and a clear, not a
		// copy out of cold memory.
		op.region.read(*op.ext.buf, op.off)
	}
	op.apply()
	if qp.cross {
		// One message back across the wire does both halves of the return
		// hop: the flow-control credit (same-shard QPs release it at the
		// serve instant through the scheduler, but cross-shard the release
		// must run on the initiator's kernel, one propagation later — the
		// ACK travels the wire) and, when the op delivers, the completion
		// callback.
		if op.holdsCredit() || op.needsDeliver() {
			qp.postToInitiator(op, qp.wireAt(k, &qp.backWireAt))
			return
		}
	} else if op.needsDeliver() {
		qp.deliver.push(op)
		k.At(qp.wireAt(k, &qp.backWireAt), qp.deliverFn)
		return
	}
	qp.retire(op)
}

// postToInitiator sends the serviced op's return hop to the initiator's
// shard, where it resumes at hop.
func (qp *QP) postToInitiator(op *flowOp, at sim.Time) {
	op.back = true
	qp.target.prof.MailboxPosts++
	qp.post(op, qp.target.shard, qp.initiator.shard, at)
}

// deliverNext completes the oldest delivered op at the initiator
// (same-shard FIFO path).
func (qp *QP) deliverNext() { qp.deliverOp(qp.deliver.pop()) }

// deliverOp completes op at the initiator and recycles its record; the
// payload buffer goes back only after the callback has returned. Runs on
// the initiator's kernel.
func (qp *QP) deliverOp(op *flowOp) {
	qp.initiator.prof.Deliveries++
	if sp := op.sp(); sp != nil {
		sp.Done = qp.initiator.k.Now()
		qp.initiator.flight.Finish(sp)
	}
	op.invokeCB()
	qp.initiator.pool.put(op)
}

// loopCtrlServed / loopBulkServed: a loopback op traversed the NIC once;
// its effect and completion happen at the same instant, with no wire.
func (qp *QP) loopCtrlServed() { qp.loopServe(qp.loopCtrl.pop()) }

func (qp *QP) loopBulkServed() { qp.loopServe(qp.loopBulk.pop()) }

func (qp *QP) loopServe(op *flowOp) {
	k := qp.initiator.k // loopback QPs are never cross-shard
	qp.initiator.prof.Loopbacks++
	qp.initiator.prof.countKind(op.kind)
	sp := op.sp()
	if sp != nil {
		sp.Served = k.Now()
		if !op.needsDeliver() {
			qp.initiator.flight.Finish(sp)
		}
	}
	op.apply()
	if op.needsDeliver() {
		if sp != nil {
			sp.Done = k.Now()
			qp.initiator.flight.Finish(sp)
		}
		op.invokeCB()
	}
	qp.initiator.pool.put(op)
}

// admitData applies per-QP flow control at the initiator, before the
// sending NIC transmits: a posted WQE consumes no NIC processing until a
// credit is available, so late bursts of queued work still pay the
// per-operation initiator cost (the local capacity C_L) when they finally
// transmit — matching real credit-based flow control.
func (qp *QP) admitData(op *flowOp) {
	if qp.serverQ == nil {
		qp.serverQ = &dataQueue{qp: qp}
	}
	if qp.window > 0 && qp.inFlight >= qp.window {
		qp.waiting.push(op)
		return
	}
	qp.transmit(op)
}

// transmit runs the credit-holding pipeline: initiator NIC service, wire,
// then the target's round-robin scheduler.
func (qp *QP) transmit(op *flowOp) {
	qp.inFlight++
	qp.initiator.prof.CreditGrants++
	if sp := op.sp(); sp != nil {
		sp.Credit = qp.initiator.k.Now()
	}
	qp.bulkInit.push(op)
	qp.initiator.nic.SubmitTagged(op.weight()+qp.initiator.qpPenalty(qp), qp.tag(stageBulkInit))
}

// bulkInitDone: a bulk-class op (data transfer or bulk SEND) finished
// initiator-NIC service; put it on the wire.
func (qp *QP) bulkInitDone() {
	op := qp.bulkInit.pop()
	k := qp.initiator.k
	qp.initiator.prof.InitNICDone++
	if sp := op.sp(); sp != nil {
		sp.InitDone = k.Now()
	}
	at := qp.wireAt(k, &qp.bulkWireAt)
	if qp.cross {
		qp.postToTarget(op, at)
		return
	}
	qp.bulkWire.push(op)
	k.At(at, qp.bulkArriveFn)
}

// bulkArrive: a bulk-class op reached the target (same-shard FIFO path).
func (qp *QP) bulkArrive() { qp.bulkArriveOp(qp.bulkWire.pop()) }

// bulkArriveOp routes an arrived bulk-class op: data ops queue at the
// target's round-robin scheduler; bulk SENDs go to the target NIC
// directly (they are not flow-controlled). Runs on the target's kernel.
func (qp *QP) bulkArriveOp(op *flowOp) {
	qp.target.prof.WireArrivals++
	if sp := op.sp(); sp != nil {
		sp.Arrived = qp.target.k.Now()
	}
	qp.noteArrival(op)
	if op.kind == opSend {
		qp.sendTargetSubmit(op)
		return
	}
	qp.target.sched.enqueue(qp.serverQ, op)
}

// releaseCredit returns one flow-control credit after a serviced op and
// admits the next waiting operation, if any.
func (qp *QP) releaseCredit() {
	qp.inFlight--
	if !qp.waiting.empty() {
		qp.transmit(qp.waiting.pop())
	}
}

// sendTargetSubmit charges the target-side stations for an arrived SEND.
// A server target processes the request header on its NIC priority path
// and then hands the message to the CPU; a client target pays its NIC
// the size-proportional cost and delivers directly.
func (qp *QP) sendTargetSubmit(op *flowOp) {
	pen := qp.target.qpPenalty(qp)
	if qp.target.kind == ServerNode {
		qp.sendSrv.push(op)
		qp.target.nic.SubmitPriorityTagged(SendRequestWeight+pen, qp.tag(stageSendSrv))
		return
	}
	// A client receiving a SEND pays its NIC the size-proportional cost
	// (a 4 KB RPC reply is real work; a token push is nearly free).
	w := sizeWeight(int(op.size)) + pen
	if op.control {
		qp.ctrlServe.push(op)
		qp.target.nic.SubmitPriorityTagged(w, qp.tag(stageCtrlServe))
		return
	}
	qp.sendBulk.push(op)
	qp.target.nic.SubmitTagged(w, qp.tag(stageSendBulk))
}

func (qp *QP) sendSrvServed() {
	op := qp.sendSrv.pop()
	qp.sendCPU.push(op)
	// The CPU is not a QP-context station: no connection-cache charge.
	qp.target.cpu.SubmitTagged(1, qp.tag(stageSendCPU))
}

func (qp *QP) sendCPUServed() { qp.sendDeliver(qp.sendCPU.pop()) }

func (qp *QP) sendBulkServed() { qp.sendDeliver(qp.sendBulk.pop()) }

// sendDeliver hands an arrived SEND to the target's receive handler and,
// when the sender asked for a completion callback, schedules it back at
// the initiator after propagation.
func (qp *QP) sendDeliver(op *flowOp) {
	k := qp.target.k
	qp.target.prof.countKind(opSend)
	if sp := op.sp(); sp != nil {
		sp.Served = k.Now()
		if op.cb == nil {
			qp.target.flight.Finish(sp)
		}
	}
	qp.target.recv(qp.initiator, op.ext.msg)
	if op.cb == nil {
		qp.retire(op)
		return
	}
	if qp.cross {
		qp.postToInitiator(op, qp.wireAt(k, &qp.backWireAt))
		return
	}
	qp.deliver.push(op)
	k.At(qp.wireAt(k, &qp.backWireAt), qp.deliverFn)
}

// Read performs a one-sided RDMA READ of size bytes at off in region r.
// The slice the callback receives is valid only until the callback
// returns: it is either a live view of the target memory or a pooled
// bounce buffer the next READ reuses. Callers that keep the data must
// copy it inside the callback.
func (qp *QP) Read(r *Region, off, size int, cb func(data []byte)) error {
	if err := qp.checkAccess(r, off, size); err != nil {
		return err
	}
	qp.initiator.stats.Reads++
	qp.initiator.stats.BytesRead += uint64(size)
	if !qp.cross { // cross-shard: counted at arrival, on the target's shard
		qp.land(opRead, r)
	}
	op := qp.newOp(opRead, isControl(size), false)
	op.region, op.off, op.size = r, off, uint32(size)
	op.cb = cb
	qp.initiate(op)
	return nil
}

// Write performs a one-sided RDMA WRITE of data at off in region r. The
// data is captured at call time; cb (optional) fires when the initiator
// observes completion. Haechi's silent reports are 8-byte Writes.
//
// A payload that is zero past its first 8 bytes is captured as those 8
// bytes and its length (see flowOp.delta); any other goes into a pooled
// buffer.
func (qp *QP) Write(r *Region, off int, data []byte, cb func()) error {
	if err := qp.checkAccess(r, off, len(data)); err != nil {
		return err
	}
	qp.initiator.stats.Writes++
	qp.initiator.stats.BytesWritten += uint64(len(data))
	if !qp.cross { // cross-shard: counted at arrival, on the target's shard
		qp.land(opWrite, r)
	}
	var cell [8]byte
	head := copy(cell[:], data)
	inline := isZero(data[head:])
	op := qp.newOp(opWrite, isControl(len(data)), !inline)
	op.region, op.off, op.size = r, off, uint32(len(data))
	if cb != nil {
		op.cb = cb
	}
	if inline {
		op.delta = int64(binary.LittleEndian.Uint64(cell[:]))
	} else {
		op.ext.buf = qp.initiator.pool.getBuf(len(data))
		copy(*op.ext.buf, data)
	}
	qp.initiate(op)
	return nil
}

// WriteUint64 writes an 8-byte little-endian value; this is the wire
// format of Haechi client reports.
func (qp *QP) WriteUint64(r *Region, off int, v uint64, cb func()) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return qp.Write(r, off, b[:], cb)
}

// FetchAdd performs a one-sided atomic FETCH_ADD on the 8-byte cell at
// off: the callback receives the value before the add. Haechi clients
// claim batched global tokens with FetchAdd(-B).
func (qp *QP) FetchAdd(r *Region, off int, delta int64, cb func(old int64)) error {
	if err := qp.checkAccess(r, off, 8); err != nil {
		return err
	}
	qp.initiator.stats.FetchAdds++
	if !qp.cross { // cross-shard: counted at arrival, on the target's shard
		qp.land(opFetchAdd, r)
	}
	op := qp.newOp(opFetchAdd, true, false)
	op.region, op.off = r, off
	op.delta = delta
	if cb != nil {
		op.cb = cb
	}
	qp.initiate(op)
	return nil
}

// CompareSwap performs a one-sided atomic CMP_SWAP on the 8-byte cell at
// off: if the cell equals expect it is set to swap; the callback receives
// the value before the operation. The QoS monitor samples the global token
// cell with CompareSwap(v, v) loopbacks.
func (qp *QP) CompareSwap(r *Region, off int, expect, swap int64, cb func(old int64)) error {
	if err := qp.checkAccess(r, off, 8); err != nil {
		return err
	}
	qp.initiator.stats.CompareSwaps++
	if !qp.cross { // cross-shard: counted at arrival, on the target's shard
		qp.land(opCompareSwap, r)
	}
	op := qp.newOp(opCompareSwap, true, true)
	op.region, op.off = r, off
	op.delta, op.ext.swap = expect, swap
	if cb != nil {
		op.cb = cb
	}
	qp.initiate(op)
	return nil
}

// Send performs a two-sided operation carrying msg with the given wire
// size. For a server target the message is processed by the target NIC and
// then the target CPU before delivery to the receive handler — this is the
// path whose cost one-sided I/O avoids. For a client target (e.g. the
// monitor pushing reservation tokens) the message is delivered after the
// wire and the initiator-side costs only. cb (optional) fires at the
// initiator once the message has been delivered.
func (qp *QP) Send(msg Message, size int, cb func()) error {
	if size < 0 || uint64(size) > math.MaxUint32 {
		return fmt.Errorf("rdma: %s->%s: send size %d outside [0, 2^32)", qp.initiator.name, qp.target.name, size)
	}
	if qp.target.recv == nil {
		return fmt.Errorf("rdma: %s->%s: target has no receive handler", qp.initiator.name, qp.target.name)
	}
	f := qp.fabric

	initWeight := sizeWeight(size)
	if qp.initiator.kind == ClientNode {
		// Two-sided operations cost measurably more at the client than
		// one-sided ones (Fig. 6); the surcharge is derived from the
		// calibrated rates.
		initWeight += f.twoSidedExtraWeight()
	}
	qp.initiator.stats.SendsSent++
	if !qp.cross { // cross-shard: counted at arrival, on the target's shard
		qp.target.stats.SendsReceived++
	}

	control := isControl(size)
	op := qp.newOp(opSend, control, true)
	op.size = uint32(size)
	op.ext.msg = msg
	if cb != nil {
		op.cb = cb
	}
	// SENDs are not flow-controlled: they enter the class's initiator-NIC
	// stage directly.
	pen := qp.initiator.qpPenalty(qp)
	if control {
		qp.ctrlInit.push(op)
		qp.initiator.nic.SubmitPriorityTagged(initWeight+pen, qp.tag(stageCtrlInit))
	} else {
		qp.bulkInit.push(op)
		qp.initiator.nic.SubmitTagged(initWeight+pen, qp.tag(stageBulkInit))
	}
	return nil
}
