package core

import (
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sanitize"
	"github.com/haechi-qos/haechi/internal/sim"
)

// sanitizeHarness attaches one checker to the monitor and every engine.
func sanitizeHarness(h *qosHarness) *sanitize.Checker {
	c := sanitize.New()
	h.mon.SetSanitizer(c)
	for _, e := range h.engines {
		e.SetSanitizer(c)
	}
	return c
}

// TestEngineRestartRecovery is the crash → suspect → restart →
// re-register → reinstated lifecycle: after Restart the engine's
// recovery heartbeat flips its report slot, the monitor reinstates the
// reservation at the next period end, fresh tokens arrive and
// completions resume — all without a single invariant violation.
func TestEngineRestartRecovery(t *testing.T) {
	res := []int64{3000, 3000}
	demand := func(client, period int) int { return 6000 }
	h := newQoSHarness(t, testParams(), res, demand, WithFailureDetection())
	san := sanitizeHarness(h)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(2 * P)

	victim := h.engines[0]
	if err := victim.Restart(); err == nil {
		t.Error("Restart on a running engine did not fail")
	}
	victim.Crash()
	victim.Crash() // idempotent
	h.k.RunUntil(6 * P)
	if !h.mon.clients[0].suspected {
		t.Fatal("crashed client never suspected")
	}
	if h.mon.SuspectedAt(0) == 0 {
		t.Error("suspicion time not recorded")
	}

	beforeRestart := victim.Stats().TotalCompleted
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(9 * P)
	h.mon.Stop()

	if h.mon.clients[0].suspected {
		t.Error("restarted client not reinstated")
	}
	if h.mon.FailureRecoveries == 0 {
		t.Error("recovery counter not incremented")
	}
	if h.mon.ReinstatedAt(0) <= h.mon.SuspectedAt(0) {
		t.Error("reinstatement not after suspicion")
	}
	fs := victim.FaultStats()
	if fs.Crashes != 1 || fs.Restarts != 1 {
		t.Errorf("fault transitions: %+v", fs)
	}
	if fs.RejoinPeriod == 0 || fs.RejoinAt < fs.RestartAt {
		t.Errorf("rejoin not recorded: %+v", fs)
	}
	if victim.Stats().TotalCompleted <= beforeRestart {
		t.Errorf("completions did not resume after restart: %d -> %d",
			beforeRestart, victim.Stats().TotalCompleted)
	}
	// The reinstated reservation is honored again: the last finished
	// period completed at least R.
	log := h.drivers[0].periods
	if len(log) == 0 || int64(log[len(log)-1]) < res[0] {
		t.Errorf("reinstated reservation not met: period log %v", log)
	}
	if err := san.Err(); err != nil {
		t.Errorf("invariant violations through crash/recovery: %v", err)
	}
}

// TestCrashQuarantineConservation: tokens held at crash time are
// quarantined, the conservation identity holds through the crash window,
// and the quarantine is released when the expired period rolls over
// after the restart.
func TestCrashQuarantineConservation(t *testing.T) {
	res := []int64{2000}
	demand := func(client, period int) int { return 1000 }
	h := newQoSHarness(t, testParams(), res, demand)
	san := sanitizeHarness(h)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(P + P/4) // mid period 2, before the X decay yields

	e := h.engines[0]
	e.Crash()
	fs := e.FaultStats()
	if fs.QuarantinedRes != 1000 {
		t.Errorf("quarantined %d reservation tokens, want 1000 (2000 reserved - 1000 demanded)",
			fs.QuarantinedRes)
	}
	h.k.RunUntil(2*P + P/2)
	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(4 * P)
	h.mon.Stop()

	fs = e.FaultStats()
	if fs.QuarantinedRes != 0 || fs.QuarantineReleased != 1000 {
		t.Errorf("quarantine not released at rollover: %+v", fs)
	}
	if err := san.Err(); err != nil {
		t.Errorf("conservation violated through crash window: %v", err)
	}
}

// TestPostCrashCompletionInvariant: a deliberate completion delivered to
// a crashed engine beyond its in-flight window fails the run naming the
// invariant.
func TestPostCrashCompletionInvariant(t *testing.T) {
	res := []int64{2000}
	demand := func(client, period int) int { return 1000 }
	h := newQoSHarness(t, testParams(), res, demand)
	san := sanitizeHarness(h)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(testParams().Period)
	h.engines[0].Crash()
	h.engines[0].DebugInjectPostCrashCompletion()
	h.mon.Stop()
	err := san.Err()
	if err == nil {
		t.Fatal("injected post-crash completion not caught")
	}
	if !strings.Contains(err.Error(), "post-crash-completion") {
		t.Errorf("violation does not name the invariant: %v", err)
	}
}

// TestMonitorOutageDegradedMode: while the monitor is paused the engines
// notice the overdue period, degrade to local-token mode (no claims
// against the stale pool, bounded-backoff probes), and resynchronize
// cleanly when the monitor resumes with a fresh period.
func TestMonitorOutageDegradedMode(t *testing.T) {
	res := []int64{3000, 3000}
	demand := func(client, period int) int { return 10000 } // saturating: backlog persists
	h := newQoSHarness(t, testParams(), res, demand)
	san := sanitizeHarness(h)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(2*P + P/2)
	h.mon.Outage(2 * P)
	if !h.mon.paused {
		t.Fatal("monitor not paused")
	}
	h.k.RunUntil(3*P + P/2) // deep inside the outage window
	for i, e := range h.engines {
		if !e.degraded {
			t.Errorf("engine %d not degraded during outage", i)
		}
	}
	h.k.RunUntil(6 * P)
	h.mon.Stop()

	if h.mon.paused {
		t.Error("monitor still paused after the window")
	}
	if n, ns := h.mon.OutageStats(); n != 1 || ns != int64(2*P) {
		t.Errorf("outage stats (%d, %d), want (1, %d)", n, ns, int64(2*P))
	}
	for i, e := range h.engines {
		fs := e.FaultStats()
		if e.degraded || fs.DegradedSpells == 0 || fs.DegradedTime == 0 {
			t.Errorf("engine %d degraded window not closed: %+v", i, fs)
		}
		if fs.DegradedProbes == 0 {
			t.Errorf("engine %d issued no backoff probes while degraded", i)
		}
	}
	if err := san.Err(); err != nil {
		t.Errorf("invariant violations through outage: %v", err)
	}
}

// TestOutageOpenAtStop: an outage window still open when the monitor
// stops is timed up to the stop, not counted with no duration, and the
// resume it scheduled changes nothing afterwards.
func TestOutageOpenAtStop(t *testing.T) {
	res := []int64{1000}
	demand := func(client, period int) int { return 500 }
	h := newQoSHarness(t, testParams(), res, demand)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(P + P/4)
	h.mon.Outage(2 * P)
	h.k.RunUntil(2 * P)
	h.mon.Stop()
	want := int64(2*P - (P + P/4))
	if n, ns := h.mon.OutageStats(); n != 1 || ns != want {
		t.Errorf("outage stats at stop (%d, %d), want (1, %d)", n, ns, want)
	}
	if h.mon.paused {
		t.Error("monitor still paused after Stop")
	}
	h.k.RunUntil(4 * P) // past the scheduled resume
	if n, ns := h.mon.OutageStats(); n != 1 || ns != want {
		t.Errorf("outage stats after the resume instant (%d, %d), want (1, %d)", n, ns, want)
	}
}

// TestOutageGuards: Outage is a no-op on a stopped or already-paused
// monitor and with a non-positive duration.
func TestOutageGuards(t *testing.T) {
	res := []int64{1000}
	demand := func(client, period int) int { return 500 }
	h := newQoSHarness(t, testParams(), res, demand)
	h.mon.Outage(sim.Second) // not started
	if h.mon.paused {
		t.Error("outage on a stopped monitor paused it")
	}
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	h.mon.Outage(0)
	if h.mon.paused {
		t.Error("zero-duration outage paused the monitor")
	}
	h.mon.Outage(sim.Second)
	h.mon.Outage(sim.Second) // nested: ignored
	if n, _ := h.mon.OutageStats(); n != 1 {
		t.Errorf("nested outage counted: %d", n)
	}
	h.k.RunUntil(2 * sim.Second)
	h.mon.Stop()
}

// TestFaultRecordOnFirstFault: an engine keeps no fault state until it
// needs some. A fault-free run leaves every engine's fault record nil; a
// crash allocates it, and the restart and a second crash reuse that one
// record; an engine that only degrades in a monitor outage gets its own.
func TestFaultRecordOnFirstFault(t *testing.T) {
	res := []int64{3000, 3000}
	demand := func(client, period int) int { return 6000 }
	h := newQoSHarness(t, testParams(), res, demand, WithFailureDetection())
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(3 * P)
	for i, e := range h.engines {
		if e.fault != nil {
			t.Errorf("engine %d holds a fault record after a fault-free run", i)
		}
	}

	victim, bystander := h.engines[0], h.engines[1]
	victim.Crash()
	rec := victim.fault
	if rec == nil {
		t.Fatal("a crash left the fault record nil")
	}
	h.k.RunUntil(5 * P)
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(7 * P)
	victim.Crash()
	if victim.fault != rec {
		t.Error("the restart or the second crash replaced the fault record")
	}
	if fs := victim.FaultStats(); fs.Crashes != 2 || fs.Restarts != 1 {
		t.Errorf("fault transitions through one record: %+v", fs)
	}
	if bystander.fault != nil {
		t.Error("a peer's crash gave the bystander a fault record")
	}

	h.mon.Outage(2 * P)
	h.k.RunUntil(8*P + P/2)
	if !bystander.degraded || bystander.fault == nil {
		t.Error("degrading in an outage did not allocate the bystander's fault record")
	}
	h.mon.Stop()
}
