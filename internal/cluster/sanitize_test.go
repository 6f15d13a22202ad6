package cluster

import (
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/workload"
)

// TestSanitizerCatchesTokenLeak proves the sanitizer's conservation
// checks are live, not vacuous: silently discarding reservation tokens
// mid-period (Engine.DebugDropReservationTokens, a hook that exists only
// for this test) breaks the per-period identity
// used + held + yielded + quarantined == reservation. The sanitized run
// must fail with a token-conservation violation at the next period
// rollover or, when the engine crashes right after the leak, with a
// crash-quarantine violation at the crash. The same leak run unsanitized
// completes, and its ledger's rows fail Ledger.Check under
// token-conservation: the live and the post-hoc check share one
// predicate.
func TestSanitizerCatchesTokenLeak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash bool
		check string
	}{
		{"rollover", false, "token-conservation"},
		{"crash", true, "crash-quarantine"},
	} {
		// leaky runs the scenario, sanitized or not.
		leaky := func(t *testing.T, sanitized bool) (*Cluster, *Results, error) {
			specs := make([]ClientSpec, 2)
			for i := range specs {
				// Demand far below the reservation keeps tokens held
				// mid-period, so there is something to leak.
				specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(100)}
			}
			cfg := testConfig(Haechi)
			cfg.Seed = 11
			cfg.Sanitize = sanitized
			cl, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			// ApplyScale ran inside New; use the normalized period.
			T := cl.Config().Params.Period
			cl.kernel.At(T+T/2, func() {
				eng := cl.Clients()[0].Engine
				eng.DebugDropReservationTokens(5)
				if tc.crash {
					eng.Crash()
				}
			})
			res, err := cl.Run(1, 2)
			return cl, res, err
		}
		t.Run(tc.name, func(t *testing.T) {
			_, res, err := leaky(t, false)
			if err != nil {
				t.Fatalf("unsanitized run: %v", err)
			}
			if err := res.Ledger.Check(); err == nil || !strings.Contains(err.Error(), "token-conservation: engine-0 ") {
				t.Errorf("Ledger.Check = %v, want a token-conservation breach by engine-0", err)
			}
			cl, _, err := leaky(t, true)
			if err == nil {
				t.Fatal("sanitized run with an injected token leak returned no error")
			}
			if !strings.Contains(err.Error(), tc.check) {
				t.Errorf("error does not name %s: %v", tc.check, err)
			}
			found := false
			for _, v := range cl.SanitizeViolations() {
				if v.Check == tc.check && strings.Contains(v.Detail, "engine-0") {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation attributed to engine-0: %v", tc.check, cl.SanitizeViolations())
			}
		})
	}
}

// TestSanitizerCatchesBrokenCookie proves completion-cookie is live. A
// link's pending queue is the only place a posted request's arrival
// instant waits, so each way of corrupting it — a Push dropped, an instant
// from the future, more queued than the send queue holds — must fail the
// sanitized run naming the invariant and the tenant, and the first must be
// a report, not an index panic on the empty queue.
func TestSanitizerCatchesBrokenCookie(t *testing.T) {
	mutations := []struct {
		name, want string
		mutate     func(w *wire, now sim.Time)
	}{
		{"a push dropped", "none posted", func(w *wire, _ sim.Time) { w.pending.Pop() }},
		{"an instant from the future", "after now", func(w *wire, now sim.Time) {
			// The same count, the oldest instant a second ahead.
			var rest []sim.Time
			for w.pending.Len() > 0 {
				rest = append(rest, w.pending.Pop())
			}
			w.pending.Push(now + sim.Second)
			for _, at := range rest[1:] {
				w.pending.Push(at)
			}
		}},
		{"more posted than the send queue holds", "send queue depth", func(w *wire, now sim.Time) {
			for i := 0; i <= w.check.depth; i++ {
				w.pending.Push(now)
			}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			specs := make([]ClientSpec, 2)
			for i := range specs {
				// Paced demand below the reservation: the link drains between
				// requests, so a missing cookie is missed.
				specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1000), Pattern: workload.ConstantRate{}}
			}
			cfg := testConfig(Haechi)
			cfg.Seed = 11
			cfg.Sanitize = true
			cl, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			w := cl.Clients()[1].wire
			var strike func()
			strike = func() { // at the first instant an I/O is on the wire
				if w.pending.Len() == 0 {
					cl.kernel.Schedule(sim.Microsecond, strike)
					return
				}
				m.mutate(w, cl.kernel.Now())
			}
			T := cl.Config().Params.Period
			cl.kernel.At(T+T/2, strike)
			_, err = cl.Run(1, 2)
			if err == nil || !strings.Contains(err.Error(), "completion-cookie") {
				t.Fatalf("run with %s returned %v, want a completion-cookie violation", m.name, err)
			}
			v := cl.SanitizeViolations()[0]
			if v.Check != "completion-cookie" || !strings.Contains(v.Detail, "client-01") || !strings.Contains(v.Detail, m.want) {
				t.Errorf("first violation = %v, want completion-cookie naming client-01 and %q", v, m.want)
			}
		})
	}
}
