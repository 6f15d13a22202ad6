package trace

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Op classifies the verb a Span records.
type Op uint8

// Span operations, one per RDMA verb the fabric simulates.
const (
	OpRead Op = iota + 1
	OpWrite
	OpFetchAdd
	OpCompareSwap
	OpSend
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpCompareSwap:
		return "CMP_SWAP"
	case OpSend:
		return "SEND"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Unset marks a pipeline stage a span never reached (or that does not
// exist on its path; control verbs skip the credit stage, for example).
const Unset sim.Time = -1

// Span follows one verb through the fabric pipeline. Every timestamp is
// stamped from the simulation kernel clock inside a callback the fabric
// would execute anyway, so recording spans never adds, removes, or
// reorders kernel events — the event sequence with tracing on is
// identical to the sequence with tracing off (DESIGN.md §7).
//
// Data-path stages, in order:
//
//	Posted   — verb posted at the initiator
//	Credit   — flow-control credit acquired, WQE handed to the NIC
//	InitDone — initiator NIC finished serving the WQE
//	Arrived  — after propagation, op entered the target's RR scheduler
//	Service  — target scheduler dispatched the op to the target NIC
//	Served   — target NIC finished service; memory effect applied
//	Done     — completion delivered back at the initiator
//
// Control verbs (atomics, small writes, sends) skip Credit/Service:
// they take the priority path straight through both NICs.
//
// A Span with a non-zero Kind is instead a protocol event (see
// FlightRecorder.Mark): Initiator names the actor, Posted is the
// instant, A and B carry the kind's values, and every later stamp is
// Unset. Events and verb spans share the ring, so one timeline holds
// both without a second buffer; the layout keeps a Span at 120 bytes
// (TestSpanFootprint).
type Span struct {
	// ID's top byte is the shard that recorded the entry (see Shard).
	// A verb span's ID is unique within a run; protocol events all
	// carry the bare shard base, which no verb span uses.
	ID      uint64
	Op      Op
	Control bool
	Kind    Kind
	QP      int32

	Initiator string
	Target    string
	A, B      int64

	Posted   sim.Time
	Credit   sim.Time
	InitDone sim.Time
	Arrived  sim.Time
	Service  sim.Time
	Served   sim.Time
	Done     sim.Time
}

// Shard returns the index of the shard whose recorder began the span or
// marked the event; 0 on the unsharded path. Sharded Chrome export
// groups verb spans into one process track per shard by it.
func (s *Span) Shard() int { return int(s.ID >> 56) }

// String formats the span or event as one line of a timeline dump,
// stamped with the instant it was recorded (End).
func (s *Span) String() string {
	if s.Kind != 0 {
		return fmt.Sprintf("%-12v %-15s %-10s A=%d B=%d", s.End(), s.Kind, s.Initiator, s.A, s.B)
	}
	return fmt.Sprintf("%-12v %-15s %-10s -> %s qp=%d total=%v", s.End(), s.Op, s.Initiator, s.Target, s.QP, s.Total())
}

// StageNames lists the per-stage latency components of a data span, in
// pipeline order, followed by the end-to-end total. The array is
// parallel to Span.StageDurations and StageStats.Histograms.
var StageNames = [...]string{
	"credit-wait",
	"init-nic",
	"wire",
	"target-queue",
	"target-service",
	"deliver",
	"total",
}

// End returns the last timestamp the span reached.
func (s *Span) End() sim.Time {
	switch {
	case s.Done >= 0:
		return s.Done
	case s.Served >= 0:
		return s.Served
	case s.Service >= 0:
		return s.Service
	case s.Arrived >= 0:
		return s.Arrived
	case s.InitDone >= 0:
		return s.InitDone
	case s.Credit >= 0:
		return s.Credit
	}
	return s.Posted
}

// stage returns the duration from to-from when both ends were stamped,
// else Unset.
func stage(from, to sim.Time) sim.Time {
	if from < 0 || to < 0 {
		return Unset
	}
	return to - from
}

// CreditWait is the time from posting until a flow-control credit was
// available (Haechi's queueing at the initiator happens above this, in
// the engine's token gate; this measures the fabric window).
func (s *Span) CreditWait() sim.Time { return stage(s.Posted, s.Credit) }

// InitNIC is the initiator NIC queueing+service time.
func (s *Span) InitNIC() sim.Time { return stage(s.Credit, s.InitDone) }

// Wire is the propagation delay to the target.
func (s *Span) Wire() sim.Time { return stage(s.InitDone, s.Arrived) }

// TargetQueue is the wait in the target's round-robin scheduler before
// dispatch — the component that dominates for bursty tenants (Fig. 13).
func (s *Span) TargetQueue() sim.Time { return stage(s.Arrived, s.Service) }

// TargetService is the target NIC queueing+service time.
func (s *Span) TargetService() sim.Time { return stage(s.Service, s.Served) }

// Delivery is the completion propagation back to the initiator.
func (s *Span) Delivery() sim.Time { return stage(s.Served, s.Done) }

// Total is the end-to-end latency from posting to the last stamped
// stage.
func (s *Span) Total() sim.Time { return s.End() - s.Posted }

// StageDurations returns the durations parallel to StageNames; entries
// are Unset for stages the span did not traverse.
func (s *Span) StageDurations() [len(StageNames)]sim.Time {
	return [...]sim.Time{
		s.CreditWait(),
		s.InitNIC(),
		s.Wire(),
		s.TargetQueue(),
		s.TargetService(),
		s.Delivery(),
		s.Total(),
	}
}
