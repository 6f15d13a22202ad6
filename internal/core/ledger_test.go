package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestLedgerRowFootprint pins an engine's ledger row at 40 bytes: ten
// int32 columns, kept per engine and period, so a fleet's ledger costs
// 40 B a tenant-period.
func TestLedgerRowFootprint(t *testing.T) {
	if got := unsafe.Sizeof(LedgerRow{}); got != 40 {
		t.Errorf("core.LedgerRow is %d bytes, want 40", got)
	}
}

// TestEngineFootprint pins what an engine costs a tenant that never
// crashes or degrades: its fault state is one pointer and its protocol
// constants are shared with every other engine, so an engine fits the
// 480-byte allocation class.
func TestEngineFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got > 480 {
		t.Errorf("core.Engine is %d bytes, want <= 480", got)
	}
}

// TestLedgerRowCheck pins the token-conservation law on rows: the
// reservation identity, a non-negative balance, and no pool use beyond
// the claims.
func TestLedgerRowCheck(t *testing.T) {
	ok := LedgerRow{Period: 3, Granted: 10, Claimed: 5, ResUsed: 4, PoolUsed: 5, Yielded: 3, Returned: 3, Held: 2, Quarantined: 1}
	if err := ok.Check(); err != nil {
		t.Errorf("balanced row: %v", err)
	}
	if err := (LedgerRow{}).Check(); err != nil {
		t.Errorf("empty row: %v", err)
	}
	for name, mutate := range map[string]func(*LedgerRow){
		"a leaked token":       func(r *LedgerRow) { r.Held-- },
		"a negative balance":   func(r *LedgerRow) { r.Held, r.ResUsed = -1, 7 },
		"an unclaimed pool IO": func(r *LedgerRow) { r.PoolUsed++ },
	} {
		r := ok
		mutate(&r)
		if r.Check() == nil {
			t.Errorf("%s passed: %+v", name, r)
		}
	}
	if err := (MonitorRow{Issued: 7, Suspended: 3, Admitted: 10}).Check(); err != nil {
		t.Errorf("balanced monitor row: %v", err)
	}
	if (MonitorRow{Issued: 7, Admitted: 10}).Check() == nil {
		t.Error("a lost suspended reservation passed")
	}
}

// TestMonitorAllocatesOnlyItsLedger: the monitor's check loop samples the
// pool every check interval and its period machine rolls every period, so
// a callback built per sample or per period is paid for the life of the
// data node (28 KB over 13 periods when each sample captured its period in
// a closure). With its callbacks bound once and its ledger grown ahead,
// whole periods — pushes, pool samples, report signals, reports and
// conversion caps included — allocate nothing.
func TestMonitorAllocatesOnlyItsLedger(t *testing.T) {
	const warm, measured = 3, 8
	h := newQoSHarness(t, testParams(), []int64{400, 300, 200, 100}, func(int, int) int { return 0 })
	for _, e := range h.engines {
		e.OnPeriodStart = nil // the test driver's period log grows; the protocol does not
	}
	T := h.engines[0].params.Period
	// Idle tenants yield their reservations back to the pool; draining the
	// cell mid-period makes the next sample signal reporting, and the
	// yields then push the pool past its cap.
	drain := func() { _ = h.mon.region.PutUint64(globalTokenOff, 0) }
	for p := 1; p <= warm+measured; p++ {
		h.k.At(sim.Time(p)*T-T/2, drain)
	}
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(sim.Time(warm) * T)
	h.mon.rows = slices.Grow(h.mon.rows, measured)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.k.RunUntil(sim.Time(warm+measured) * T)
	runtime.ReadMemStats(&after)
	rows := h.mon.Ledger()
	if n := len(rows); n != warm+measured+1 {
		t.Fatalf("the monitor kept %d rows over %d periods", n, warm+measured+1)
	}
	// A cap follows a report signal, so a cap in every measured period
	// shows both paths ran.
	for _, r := range rows[warm : warm+measured] {
		if r.Caps == 0 {
			t.Fatalf("period %d signalled no reporting or capped no pool", r.Period)
		}
	}
	if b := after.TotalAlloc - before.TotalAlloc; b != 0 {
		t.Errorf("%d periods allocated %d B, want 0", measured, b)
	}
}
