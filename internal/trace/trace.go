// Package trace is the flight recorder of a Haechi run: one bounded ring
// per shard that holds, in the order they happen, the pipeline spans of
// RDMA verbs and the protocol events of the QoS control plane (token
// pushes and claims, yields and returns, pool caps, reports, capacity
// updates, throttling, and failure-detection transitions), plus exact
// per-stage latency histograms and per-kind event totals. Recording is
// optional and nil-safe — components reach a *FlightRecorder that may be
// nil — and adds a single branch when disabled.
package trace

import "fmt"

// Kind classifies a protocol event; the zero Kind marks a verb span.
type Kind uint8

// Event kinds. A and B in Span carry kind-specific values as noted.
const (
	// PeriodStart: a new QoS period at the monitor. A=period index,
	// B=token budget Omega.
	PeriodStart Kind = iota + 1
	// TokenPush: reservation tokens pushed to a client. A=client id,
	// B=R_i.
	TokenPush
	// ReportSignal: the monitor broadcast "begin reporting". A=period.
	ReportSignal
	// Report: a client wrote its report. A=residual, B=completed.
	Report
	// Claim: a client's FETCH_ADD claim returned. A=old pool value,
	// B=tokens granted.
	Claim
	// Probe: a zero-delta pool probe returned. A=old pool value.
	Probe
	// Yield: the X-counter decay reclaimed tokens at a client. A=tokens
	// yielded, B=tokens returned to the pool (0 in Basic mode).
	Yield
	// PoolCap: the monitor lowered the pool to the capacity bound.
	// A=previous value, B=bound written.
	PoolCap
	// CapacityUpdate: Algorithm 1 produced a new estimate. A=reported
	// usage U, B=Omega for the next period.
	CapacityUpdate
	// LimitThrottle: a client hit its per-period limit. A=limit.
	LimitThrottle
	// FailureSuspect / FailureRecover: failure-detection transitions.
	// A=client id.
	FailureSuspect
	FailureRecover
	// LocalViolation: Definition 2's runtime local-capacity condition
	// failed for a client mid-period — its residual reservation can no
	// longer be served at C_L in the time left. A=client id, B=shortfall.
	LocalViolation
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PeriodStart:
		return "period-start"
	case TokenPush:
		return "token-push"
	case ReportSignal:
		return "report-signal"
	case Report:
		return "report"
	case Claim:
		return "claim"
	case Probe:
		return "probe"
	case Yield:
		return "yield"
	case PoolCap:
		return "pool-cap"
	case CapacityUpdate:
		return "capacity-update"
	case LimitThrottle:
		return "limit-throttle"
	case FailureSuspect:
		return "failure-suspect"
	case FailureRecover:
		return "failure-recover"
	case LocalViolation:
		return "local-violation"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}
