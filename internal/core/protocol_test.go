package core

import (
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestPeriodStartAllocatesNothingPerTenant: the monitor pushes a
// period-start SEND to every tenant each period, so whatever one costs is
// paid tenants × periods times. In steady state the message rides inline
// in its pooled SEND record and the engine reads it by value: eight
// period starts of 200 tenants allocate 0 B per tenant (the monitor's own
// per-period timer and check callbacks are per data node; 64 B a tenant
// while each message was boxed into an interface).
func TestPeriodStartAllocatesNothingPerTenant(t *testing.T) {
	const tenants, warm, measured = 200, 4, 8
	res := make([]int64, tenants)
	for i := range res {
		res[i] = 10
	}
	h := newQoSHarness(t, testParams(), res, func(int, int) int { return 0 })
	for _, e := range h.engines {
		e.OnPeriodStart = nil // the test driver's period log grows; the protocol does not
	}
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	T := h.engines[0].params.Period
	var total uint64
	for p := 1; p <= warm+measured; p++ {
		h.k.RunUntil(sim.Time(p)*T - sim.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.k.RunUntil(sim.Time(p)*T + 5*sim.Millisecond)
		runtime.ReadMemStats(&after)
		for i, e := range h.engines {
			if e.periodIndex != p+1 {
				t.Fatalf("period %d: engine %d is in period %d 5 ms after the push", p+1, i, e.periodIndex)
			}
		}
		if p > warm {
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	if per := total / (tenants * measured); per != 0 {
		t.Errorf("a steady-state period start allocates %d B per tenant (%d B over %d), want 0", per, total, measured)
	}
}
