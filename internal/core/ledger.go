package core

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/sim"
)

// LedgerRow is one engine's token flow over one QoS period. The engine
// keeps the open row and hands each closed one to its period hook, so
// nothing is written per I/O; int32 holds a period's counts at every
// preset.
type LedgerRow struct {
	// Period is the index of the period the row opened at (0 before the
	// engine's first push). Granted is R_i; Claimed the pool tokens the
	// engine's claims were granted.
	Period, Granted, Claimed int32
	// ResUsed and PoolUsed count I/Os admitted on a reservation token and
	// on a pool token.
	ResUsed, PoolUsed int32
	// Yielded counts reservation tokens the X-counter decay gave up;
	// Returned those of them handed back to the pool (conversion on).
	Yielded, Returned int32
	// Held and Quarantined are the reservation tokens still held, and
	// moved into quarantine by a crash, when the row was taken.
	Held, Quarantined int32
	// Completed is N_i, the I/Os the live engine completed (what it
	// reports).
	Completed int32
}

// Check is the token-conservation law, nil when r obeys it: every
// granted reservation token was spent, yielded, quarantined or is still
// held, no balance is negative, and no I/O ran on an unclaimed pool
// token. cluster.Run applies it to every row after every run.
func (r LedgerRow) Check() error {
	if r.ResUsed+r.Held+r.Yielded+r.Quarantined == r.Granted && r.Held >= 0 && r.PoolUsed <= r.Claimed {
		return nil
	}
	return fmt.Errorf("period %d: used %d + held %d + yielded %d + quarantined %d != reservation %d, or pool used %d > claimed %d",
		r.Period, r.ResUsed, r.Held, r.Yielded, r.Quarantined, r.Granted, r.PoolUsed, r.Claimed)
}

// MonitorRow is one QoS period at a data node's monitor (steps T1-T3).
type MonitorRow struct {
	// Caps counts the pool caps step T2 wrote in the period, and
	// LocalViolations the clients that broke Definition 2's runtime
	// condition in it (they could no longer reach R_i at rate C_L).
	Period, Caps, LocalViolations int32
	// Omega is the capacity estimate Ω; Pool the global pool it seeded,
	// Ω minus the issued reservations (at least 0).
	Omega, Pool int64
	// Issued, Suspended and Admitted are the reservations pushed to live
	// clients, withheld from suspected ones, and admitted.
	Issued, Suspended, Admitted int64
	// Usage is U, the completions harvested at period end, and End that
	// instant; both 0 while the period is open.
	Usage int64
	End   sim.Time
}

// Check is the reclamation-conservation law, nil when r obeys it: a
// suspected client's reservation is withheld from the budget but stays
// admitted. cluster.Run applies it to every row after every run.
func (r MonitorRow) Check() error {
	if r.Issued+r.Suspended == r.Admitted {
		return nil
	}
	return fmt.Errorf("period %d: issued %d + suspended %d != admitted %d", r.Period, r.Issued, r.Suspended, r.Admitted)
}
