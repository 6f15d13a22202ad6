package core

import (
	"reflect"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// TestArriveBacklogIsACount: a backlog the engine cannot serve costs one
// number. An engine that holds no token takes 2^20 arrivals without
// allocating per arrival; a per-request queue would append 2^20 entries.
func TestArriveBacklogIsACount(t *testing.T) {
	h := newQoSHarness(t, testParams(), []int64{1000}, func(int, int) int { return 0 })
	e := h.engines[0] // the monitor never starts: no period, no tokens
	const n = 1 << 20
	small := testing.AllocsPerRun(1, func() { e.Arrive(1 << 4) })
	large := testing.AllocsPerRun(1, func() { e.Arrive(n) })
	if small > 1 || large > 1 {
		t.Errorf("Arrive allocated %v times for 2^4 arrivals and %v for 2^20, want at most 1 each", small, large)
	}
	// AllocsPerRun(1, f) calls f twice.
	if want := 2*(1<<4) + 2*n; e.Pending() != want {
		t.Errorf("Pending = %d, want %d", e.Pending(), want)
	}
	if got := e.Stats().TotalRequested; got != uint64(e.Pending()) {
		t.Errorf("TotalRequested = %d, want %d", got, e.Pending())
	}
	// A later instant starts a new run; it is still one entry, not n.
	h.k.RunUntil(h.k.Now() + sim.Microsecond)
	if later := testing.AllocsPerRun(1, func() { e.Arrive(n) }); later > 1 {
		t.Errorf("Arrive at a later instant allocated %v times, want at most 1", later)
	}
}

// arrivalOutcome is everything an observer outside the engine can see of
// how a run's demand was served.
type arrivalOutcome struct {
	// timeline is every verb any client posted (kind, QP, post and
	// completion times) and every protocol event, LimitThrottle records
	// included, in record order.
	timeline    []trace.Span
	probes      uint64
	stats       []EngineStats
	completions [][]sim.Time
	degraded    int
}

// TestArriveBulkEqualsSingles is the metamorphic property behind the pull
// contract: announcing n arrivals in one call is indistinguishable from
// announcing them one at a time at the same instant — the same verbs on
// the QP at the same times, the same protocol counters (LimitThrottled
// counts every arrival turned away, so it is the sensitive one), the same
// completion times. Demand arrives twice per period, off the period
// boundary, so batches meet every token state: fresh reservation, claimed
// global tokens, a drained pool, and a silent monitor.
func TestArriveBulkEqualsSingles(t *testing.T) {
	cases := []struct {
		name         string
		reservations []int64
		limit        int64
		batch        int
		outage       bool
	}{
		{name: "reservation and pool", reservations: []int64{1000, 2000}, batch: 2500},
		{name: "limit", reservations: []int64{1000, 2000}, limit: 1200, batch: 2500},
		{name: "pool exhausted", reservations: []int64{3000, 3000, 3000}, batch: 6000},
		{name: "degraded", reservations: []int64{3000, 3000}, batch: 6000, outage: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(bulk bool) arrivalOutcome {
				h := newQoSHarness(t, testParams(), tc.reservations, func(int, int) int { return 0 })
				fr, err := trace.NewFlightRecorder(1 << 18)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.f.SetFlightRecorders([]*trace.FlightRecorder{fr}); err != nil {
					t.Fatal(err)
				}
				P := testParams().Period
				out := arrivalOutcome{completions: make([][]sim.Time, len(h.engines))}
				for i, e := range h.engines {
					i, e := i, e
					e.limit = tc.limit
					e.OnPeriodStart = nil
					e.SetSource(func(sim.Time) uint64 { return 0 },
						func(sim.Time) { out.completions[i] = append(out.completions[i], h.k.Now()) })
					for at := P + P/8; at < 6*P; at += P / 2 {
						h.k.At(at, func() {
							if bulk {
								e.Arrive(uint64(tc.batch))
								return
							}
							for j := 0; j < tc.batch; j++ {
								e.Arrive(1)
							}
						})
					}
				}
				if err := h.mon.Start(); err != nil {
					t.Fatal(err)
				}
				if tc.outage {
					h.k.At(2*P+P/2, func() { h.mon.Outage(2 * P) })
				}
				h.k.RunUntil(7 * P)
				h.mon.Stop()
				out.timeline = fr.Spans()
				out.probes = fr.Count(trace.Probe)
				if fr.Dropped() > 0 {
					t.Fatalf("recorder overflowed: %d spans and events dropped", fr.Dropped())
				}
				for _, e := range h.engines {
					out.stats = append(out.stats, e.Stats())
					out.degraded += e.FaultStats().DegradedSpells
				}
				return out
			}
			singles, bulk := run(false), run(true)
			if !reflect.DeepEqual(singles.stats, bulk.stats) {
				t.Errorf("EngineStats differ:\n singles %+v\n bulk    %+v", singles.stats, bulk.stats)
			}
			if !reflect.DeepEqual(singles.completions, bulk.completions) {
				t.Error("completion times differ")
			}
			if !reflect.DeepEqual(singles.timeline, bulk.timeline) {
				t.Errorf("verb and protocol-event timelines differ (%d vs %d entries)", len(singles.timeline), len(bulk.timeline))
			}

			// The scenario must reach the state it is named for.
			var throttled, faas, done uint64
			for _, st := range bulk.stats {
				throttled += st.LimitThrottled
				faas += st.FAAIssued
				done += st.TotalCompleted
			}
			if done == 0 || faas == 0 {
				t.Errorf("scenario served %d I/Os with %d claims; it exercises nothing", done, faas)
			}
			if (tc.limit > 0) != (throttled > 0) {
				t.Errorf("limit %d but LimitThrottled = %d", tc.limit, throttled)
			}
			if tc.outage != (bulk.degraded > 0) {
				t.Errorf("outage %v but %d degraded spells", tc.outage, bulk.degraded)
			}
			if tc.name == "pool exhausted" && bulk.probes == 0 {
				t.Error("pool never ran dry")
			}
		})
	}
}

// TestCrashDropsCountsAndRestartStartsFresh: Crash drops waiting and
// token-backed-but-unposted arrivals; because they were counts, nothing of
// them is left in the source — it is asked for exactly the requests that
// were posted. An arrival while crashed is ignored. After Restart the
// first request pulled carries its own arrival instant, not a pre-crash
// one.
func TestCrashDropsCountsAndRestartStartsFresh(t *testing.T) {
	params := testParams()
	h := newQoSHarness(t, params, []int64{2000}, func(int, int) int { return 0 }, WithFailureDetection())
	san := sanitizeHarness(h)
	e := h.engines[0]
	e.OnPeriodStart = nil
	// The arrival instant of every request the engine pulled, and the one
	// each completion came back with.
	var pulledAt, completedAt []sim.Time
	e.SetSource(func(arrivedAt sim.Time) uint64 {
		pulledAt = append(pulledAt, arrivedAt)
		return 0
	}, func(arrivedAt sim.Time) { completedAt = append(completedAt, arrivedAt) })
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := params.Period
	crashAt := P + P/4
	h.k.RunUntil(crashAt)
	// 2000 reservation tokens back the first 2000 at once; the send queue
	// holds SendQueueDepth of them, the rest are token-backed and unposted
	// or still waiting for a token.
	e.Arrive(30000)
	posted := len(pulledAt)
	if posted == 0 || posted > params.SendQueueDepth {
		t.Fatalf("%d requests pulled on arrival, want 1..%d (the send queue)", posted, params.SendQueueDepth)
	}
	if e.Pending() == 0 {
		t.Fatal("no arrival left waiting for a token; the scenario tests nothing")
	}
	e.Crash()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Crash", e.Pending())
	}
	e.Arrive(500) // ignored
	h.k.RunUntil(3 * P)
	if len(pulledAt) != posted {
		t.Errorf("crashed engine pulled %d more requests", len(pulledAt)-posted)
	}
	if len(completedAt) != posted {
		t.Errorf("%d of the %d posted I/Os completed", len(completedAt), posted)
	}
	if st := e.Stats(); st.TotalRequested != 30000 {
		t.Errorf("TotalRequested = %d, want 30000 (arrivals while crashed are not counted)", st.TotalRequested)
	}

	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(5*P + P/4)
	if got := len(pulledAt); got != posted {
		t.Fatalf("restarted engine pulled %d requests nobody announced", got-posted)
	}
	arriveAt := h.k.Now()
	e.Arrive(10)
	h.k.RunUntil(6 * P)
	h.mon.Stop()
	if got := len(pulledAt) - posted; got != 10 {
		t.Fatalf("pulled %d requests after restart, want 10", got)
	}
	for _, at := range pulledAt[posted:] {
		if at != arriveAt {
			t.Errorf("post-restart request carries arrival %v, want %v (crash at %v)", at, arriveAt, crashAt)
		}
	}
	if !reflect.DeepEqual(completedAt, pulledAt) {
		t.Errorf("completions came back with arrival instants %v, want those pulled: %v", completedAt, pulledAt)
	}
	if err := san.Err(); err != nil {
		t.Errorf("invariant violations: %v", err)
	}
}
