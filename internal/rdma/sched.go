package rdma

// opFIFO is a queue of flow-operation records threaded through the
// records themselves: a record is in exactly one stage queue at a time,
// so its next field is the only link any queue needs, and pushing or
// popping touches the queue's two words and the record it already holds.
// It is the building block for the per-QP pipeline-stage queues and the
// scheduler's per-initiator queues.
type opFIFO struct{ head, tail *flowOp }

func (q *opFIFO) push(op *flowOp) {
	if q.tail == nil {
		q.head = op
	} else {
		q.tail.next = op
	}
	q.tail = op
}

func (q *opFIFO) empty() bool { return q.head == nil }

// pop removes the oldest record; its link is cleared, so a record
// outside a queue never points into one.
func (q *opFIFO) pop() *flowOp {
	op := q.head
	q.head = op.next
	if q.head == nil {
		q.tail = nil
	}
	op.next = nil
	return op
}

// dataQueue is one initiator's FIFO of bulk operations awaiting service at
// a target NIC. The target's scheduler serves non-empty queues round-robin,
// modelling RNIC arbitration across queue pairs: concurrent clients share
// the NIC's processing equally, exactly the behaviour the paper measures
// ("C_G will be divided equally among the clients", Example 2 / Exp. 1C).
type dataQueue struct {
	opFIFO
	inRing bool
	// qp is the queue pair whose bulk verbs this queue holds; nil for an
	// injector's queue of opFunc units (see BackgroundJob).
	qp *QP
}

// rrScheduler arbitrates a node's bulk service among per-initiator queues.
// The record in service is parked in current/currentQP and completed
// through the node's stageSched tag, so dispatching allocates nothing per
// op.
type rrScheduler struct {
	node      *Node
	ring      []*dataQueue
	next      int
	inService bool

	current   *flowOp
	currentQP *QP // nil for an opFunc unit
}

// enqueue adds an operation and kicks the scheduler.
func (s *rrScheduler) enqueue(q *dataQueue, op *flowOp) {
	q.push(op)
	if !q.inRing {
		q.inRing = true
		s.ring = append(s.ring, q)
	}
	s.pump()
}

// pump dispatches the next operation round-robin when the server is free.
func (s *rrScheduler) pump() {
	if s.inService || len(s.ring) == 0 {
		return
	}
	if s.next >= len(s.ring) {
		s.next = 0
	}
	q := s.ring[s.next]
	op := q.pop()
	if q.empty() {
		q.inRing = false
		s.ring = append(s.ring[:s.next], s.ring[s.next+1:]...)
		// next now points at the following queue already.
	} else {
		s.next++
	}
	s.inService = true
	s.node.prof.SchedDispatches++
	if sp := op.sp(); sp != nil {
		sp.Service = s.node.k.Now()
	}
	s.current = op
	s.currentQP = q.qp
	// Service begins now, so the QP-context touch happens here (opFunc
	// injections carry no QP context and touch nothing).
	w := op.weight()
	if q.qp != nil {
		w += s.node.qpPenalty(q.qp)
	}
	s.node.nic.SubmitTagged(w, stageSched)
}

// onServed completes the operation in service: it applies the memory
// effect at the target, schedules the completion delivery back to the
// initiator, returns the flow-control credit, and serves the next op.
// A same-shard QP's credit returns here, at the serve instant; a
// cross-shard one's must return on the initiator's kernel, so serveOp
// mails it back with the record.
func (s *rrScheduler) onServed() {
	op := s.current
	qp := s.currentQP
	s.current = nil
	s.currentQP = nil
	if qp == nil {
		s.node.prof.countKind(opFunc)
		if done, _ := op.cb.(func()); done != nil {
			// opFunc injectors (background jobs) are always same-shard:
			// their private initiators are assigned to the target's shard.
			// The per-op bound completion needs no arrival horizon under a
			// link storm: nothing pops a FIFO on this path.
			f := s.node.fabric
			s.node.k.Schedule(f.cfg.PropagationDelay+f.wireExtra(s.node.k), done)
		}
		s.node.pool.put(op) // the injector's kernel is this one, see above
	} else {
		qp.serveOp(op)
		if !qp.cross {
			qp.releaseCredit()
		}
	}
	s.inService = false
	s.pump()
}
