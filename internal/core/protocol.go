package core

// Two-sided control messages. Only the data node ever sends these (steps
// T1 and S3 in Fig. 5); the client-to-server direction stays one-sided.
const (
	// msgPeriodStart carries the reservation tokens for a new QoS period
	// (step T1) and doubles as the new-period signal.
	msgPeriodStart = "haechi.period_start"
	// msgReportOn asks clients to begin periodic reporting (step S3).
	msgReportOn = "haechi.report_on"
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

// reportOnMsg enables periodic reporting for the rest of the period.
type reportOnMsg struct {
	Index int
}

// wire sizes (bytes) of the control messages.
const (
	periodStartMsgSize = 24
	reportOnMsgSize    = 8
)
