package core

import (
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestFailureDetectionReclaimsReservation: a crashed client's reservation
// is detected via its static report slot and returned to the pool; the
// surviving clients absorb the freed capacity.
func TestFailureDetectionReclaimsReservation(t *testing.T) {
	res := []int64{3000, 3000, 3000, 3000}
	demand := func(client, period int) int { return 6000 }
	h := newQoSHarness(t, testParams(), res, demand, WithFailureDetection())
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(2 * P)

	victim := h.engines[0]
	beforeCrash := victim.Stats().TotalCompleted
	victim.Crash()

	h.k.RunUntil(8 * P)
	h.mon.Stop()

	if !h.mon.clients[0].suspected {
		t.Fatal("crashed client never suspected")
	}
	if h.mon.FailureSuspicions == 0 {
		t.Error("suspicion counter not incremented")
	}
	// The victim did nothing after the crash.
	if victim.Stats().TotalCompleted > beforeCrash+uint64(testParams().SendQueueDepth) {
		t.Errorf("crashed client kept completing: %d -> %d", beforeCrash, victim.Stats().TotalCompleted)
	}
	// Survivors absorb the freed 3000/period: their later periods exceed
	// their reservation by a wide margin.
	for i := 1; i < 4; i++ {
		log := h.drivers[i].periods
		if len(log) < 6 {
			t.Fatalf("client %d: %d periods", i, len(log))
		}
		last := log[len(log)-1]
		if int64(last) < 3500 {
			t.Errorf("survivor %d last period %d; freed capacity not absorbed", i, last)
		}
	}
}

// TestFailureRecovery: a suspected client that reports again is
// reinstated and receives tokens the next period.
func TestFailureRecovery(t *testing.T) {
	res := []int64{2000, 2000}
	demand := func(client, period int) int { return 4000 }
	h := newQoSHarness(t, testParams(), res, demand, WithFailureDetection())
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(P / 2)

	// Simulate a long network partition rather than a process crash: the
	// engine's reports stop reaching the monitor. We model it by crashing
	// and later writing a fresh report word directly (the client coming
	// back and reporting).
	h.engines[0].Crash()
	h.k.RunUntil(6 * P)
	if !h.mon.clients[0].suspected {
		t.Fatal("client not suspected during partition")
	}
	// The client "returns": its slot changes again.
	grantRegion := h.mon.QoSRegion()
	_ = grantRegion.PutUint64(reportSlotOffset(0), PackReport(123, 456))
	h.k.RunUntil(7 * P)
	if h.mon.clients[0].suspected {
		t.Error("client not reinstated after reporting again")
	}
	if h.mon.FailureRecoveries == 0 {
		t.Error("recovery counter not incremented")
	}
	h.mon.Stop()
}

// TestNoFailureDetectionByDefault: without the option, a crashed client
// is never suspected (the paper's base protocol).
func TestNoFailureDetectionByDefault(t *testing.T) {
	res := []int64{2000, 2000}
	demand := func(client, period int) int { return 4000 }
	h := newQoSHarness(t, testParams(), res, demand)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	h.engines[0].Crash()
	h.k.RunUntil(6 * testParams().Period)
	h.mon.Stop()
	if h.mon.clients[0].suspected {
		t.Error("client suspected without failure detection enabled")
	}
}

// TestCrashedEngineIgnoresProtocol: crash drops queued work and ignores
// control messages without panicking.
func TestCrashedEngineIgnoresProtocol(t *testing.T) {
	res := []int64{1000}
	demand := func(client, period int) int { return 500 }
	h := newQoSHarness(t, testParams(), res, demand)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(testParams().Period / 2)
	e := h.engines[0]
	e.Crash()
	before := e.Stats().TotalRequested
	e.Arrive(1)
	if e.Pending() != 0 || e.Stats().TotalRequested != before {
		t.Errorf("crashed engine counted an arrival")
	}
	h.k.RunUntil(3 * testParams().Period)
	h.mon.Stop()
	if e.open.Period > 1 {
		t.Error("crashed engine kept processing period starts")
	}
	_ = sim.Time(0)
}

// TestLocalViolationDetection: the spike/burst scenario triggers
// Definition 2's runtime condition for high-reservation clients; a
// feasible uniform scenario does not. The monitor's ledger counts them.
func TestLocalViolationDetection(t *testing.T) {
	violations := func(m *Monitor) (n int32) {
		for _, r := range m.Ledger() {
			n += r.LocalViolations
		}
		return n
	}
	// Spike: 3 clients at 2850 (71% of C_L), 7 at 800+share; with burst
	// posting the big clients' catch-up exceeds C_L mid-period.
	res := []int64{2850, 2850, 2850, 800, 800, 800, 800, 800, 800, 800}
	demand := func(client, period int) int { return int(res[client]) + 155 }
	h := newQoSHarness(t, testParams(), res, demand)
	h.run(3)
	if violations(h.mon) == 0 {
		t.Error("spike/burst produced no local-capacity violations")
	}

	uniform := []int64{1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413}
	h2 := newQoSHarness(t, testParams(), uniform, func(client, period int) int { return 1570 })
	h2.run(3)
	if n := violations(h2.mon); n != 0 {
		t.Errorf("uniform scenario flagged %d local violations", n)
	}
}
