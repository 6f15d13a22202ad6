package core

import "github.com/haechi-qos/haechi/internal/rdma"

// Two-sided control messages. Only the data node ever sends these (steps
// T1 and S3 in Fig. 5); the client-to-server direction stays one-sided.
const (
	// msgPeriodStart carries the reservation tokens for a new QoS period
	// (step T1) and doubles as the new-period signal.
	msgPeriodStart = rdma.KindPeriodStart
	// msgReportOn asks clients to begin periodic reporting (step S3).
	msgReportOn = rdma.KindReportOn
)

// periodStartMsg initializes a client's QoS period.
type periodStartMsg struct {
	// Index is the period number, monotonically increasing.
	Index int
	// Reservation is R_i: the reservation tokens granted this period.
	Reservation int64
	// EndAt is the absolute virtual time the period ends; the engine uses
	// it to schedule its final report.
	EndAt int64
	// Convert enables token returns: when false (Basic Haechi) unused
	// reservation tokens are wasted instead of returned to the pool.
	Convert bool
}

// message packs m for the wire.
func (m periodStartMsg) message() rdma.Message {
	return rdma.Message{Kind: msgPeriodStart, Flag: m.Convert, Seq: uint32(m.Index), A: m.Reservation, B: m.EndAt}
}

// periodStartOf unpacks a msgPeriodStart message.
func periodStartOf(m rdma.Message) periodStartMsg {
	return periodStartMsg{Index: int(m.Seq), Reservation: m.A, EndAt: m.B, Convert: m.Flag}
}

// reportOnMessage enables periodic reporting for the rest of period
// index, which rides in Seq.
func reportOnMessage(index int) rdma.Message {
	return rdma.Message{Kind: msgReportOn, Seq: uint32(index)}
}

// wire sizes (bytes) of the control messages.
const (
	periodStartMsgSize = 24
	reportOnMsgSize    = 8
)
