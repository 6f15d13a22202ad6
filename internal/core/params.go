// Package core implements Haechi, the paper's token-based QoS mechanism
// for one-sided I/O (Section II): a client-side QoS Engine that regulates
// I/Os with reservation tokens and batched global-token claims, and a
// data-node QoS Monitor that dispatches reservation tokens, converts
// unused reservations into global tokens, and adaptively re-estimates
// capacity (Algorithm 1). Admission control enforces the aggregate (C_G)
// and local (C_L) capacity constraints of Definition 2.
//
// All remote interactions use the verbs in internal/rdma exactly as the
// paper prescribes: reservation tokens are pushed with two-sided SENDs at
// period start, global tokens are claimed with one-sided FETCH_ADD,
// client reports are silent one-sided 8-byte WRITEs, and the monitor
// samples and rewrites the global-token cell with loop-back atomics.
package core

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Params are the Haechi protocol constants. NewDefaultParams returns the
// paper's implementation values.
type Params struct {
	// Period is the QoS period length T (1 s in the paper).
	Period sim.Time
	// Tick is the client token-management update interval delta (1 ms).
	Tick sim.Time
	// CheckInterval is the monitor's wake-up interval (1 ms).
	CheckInterval sim.Time
	// ReportInterval is the client reporting interval once reporting is
	// signalled (1 ms).
	ReportInterval sim.Time
	// Batch is B, the number of global tokens claimed per FETCH_ADD
	// (1000 in the paper).
	Batch int64
	// SendQueueDepth is the engine's RNIC send-queue depth: how many
	// token-backed I/Os may be outstanding at once (the paper's clients
	// keep 64 requests outstanding). Tokens are consumed when an I/O is
	// posted, so the reservation residual tracks started work plus at
	// most this many in-flight operations.
	SendQueueDepth int
}

// NewDefaultParams returns the constants used in the paper's
// implementation (Section II-D/E).
func NewDefaultParams() Params {
	return Params{
		Period:         sim.Second,
		Tick:           sim.Millisecond,
		CheckInterval:  sim.Millisecond,
		ReportInterval: sim.Millisecond,
		Batch:          1000,
		SendQueueDepth: 64,
	}
}

// Scaled returns the constants for a testbed whose fabric rates are
// divided by scale (rdma.Config.Scaled): the control intervals are
// multiplied, and the FAA batch divided, by the same factor. That keeps
// every dimensionless ratio of the protocol — control-verb cost per unit
// of capacity, tokens per batch relative to the pool, ticks per period —
// equal to the paper's, so scaled runs reproduce full-scale shapes
// quickly. The period is untouched and each interval is capped at a tenth
// of it. A scale of 1 or less is the identity.
func (p Params) Scaled(scale float64) Params {
	if scale <= 1 {
		return p
	}
	stretch := func(v sim.Time) sim.Time {
		v = sim.Time(float64(v) * scale)
		if v > p.Period/10 {
			v = p.Period / 10
		}
		if v <= 0 {
			v = 1
		}
		return v
	}
	p.Tick = stretch(p.Tick)
	p.CheckInterval = stretch(p.CheckInterval)
	p.ReportInterval = stretch(p.ReportInterval)
	p.Batch = max(1, int64(float64(p.Batch)/scale))
	return p
}

// Validate reports the first invalid parameter, or nil.
func (p Params) Validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("core: Period must be positive, got %v", p.Period)
	}
	if p.Tick <= 0 || p.Tick > p.Period {
		return fmt.Errorf("core: Tick must be in (0, Period], got %v", p.Tick)
	}
	if p.CheckInterval <= 0 || p.CheckInterval > p.Period {
		return fmt.Errorf("core: CheckInterval must be in (0, Period], got %v", p.CheckInterval)
	}
	if p.ReportInterval <= 0 || p.ReportInterval > p.Period {
		return fmt.Errorf("core: ReportInterval must be in (0, Period], got %v", p.ReportInterval)
	}
	if p.Batch <= 0 {
		return fmt.Errorf("core: Batch must be positive, got %d", p.Batch)
	}
	if p.SendQueueDepth <= 0 {
		return fmt.Errorf("core: SendQueueDepth must be positive, got %d", p.SendQueueDepth)
	}
	return nil
}
