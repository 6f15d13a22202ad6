package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/workload"
)

// chaosSpecs builds the standard 4-tenant mix used by the chaos tests:
// every client reserves 1200 and demands 5000, so the floor binds every
// period and aggregate demand exceeds capacity (~15700 at Scale 100) —
// the pool drains, reporting mode engages, and a backlog persists
// through fault windows (which is what makes degraded-mode probes fire).
func chaosSpecs() []ClientSpec {
	specs := make([]ClientSpec, 4)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(5000)}
	}
	return specs
}

// allKindsScenario exercises every fault kind in one run: the set5
// crash/restart/outage/degrade backbone plus a link storm and a
// congestion burst in the gap between recovery and the outage.
const allKindsScenario = "crash@2.25:c=0;restart@5.5:c=0;outage@7.25+1.25;" +
	"degrade@10.25+1.5:factor=4;jitter@5.75+1:extra=2us;burst@6+0.75:jobs=2,window=32"

// TestChaosByteIdentical is the chaos twin of
// TestDeterminismByteIdentical: a run injecting every fault kind —
// client crash and recovery, monitor outage, NIC degradation, link
// storm, congestion burst — must serialize to byte-identical Results
// (including the flight-recorder spans and the FaultReport) on a rerun,
// on one kernel and on three shards. Runs sanitized, so the
// failure-aware invariants also hold on both.
func TestChaosByteIdentical(t *testing.T) {
	run := func(shards int) []byte {
		cfg := testConfig(Haechi)
		cfg.Seed = 42
		cfg.Chaos = allKindsScenario
		cfg.Sanitize = true
		cfg.Shards = shards
		cfg.Observe = &Observe{
			FlightSpans:     1024,
			MetricsInterval: DefaultMetricsInterval(cfg.Params.Period),
		}
		cl, err := New(cfg, chaosSpecs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, 13)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Faults == nil {
			t.Fatalf("shards=%d: chaos run produced no FaultReport", shards)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, shards := range []int{1, 3} {
		if a, b := run(shards), run(shards); !bytes.Equal(a, b) {
			t.Errorf("shards=%d: rerun diverged:", shards)
			reportDivergence(t, a, b)
		}
	}
}

// TestChaosObservabilityInert proves the observability layer stays inert
// under fault injection: a chaos run with the flight recorder and
// metrics sampling enabled must produce the same simulated outcome —
// every period count, every fault timestamp, every miss classification —
// as the blind chaos run. Crash/restart handling adds engine state
// transitions the recorder did not exist for originally, so this guards
// against probes accidentally coupling into the recovery path.
func TestChaosObservabilityInert(t *testing.T) {
	run := func(observe bool) []byte {
		cfg := testConfig(Haechi)
		cfg.Seed = 7
		cfg.Chaos = "set5"
		cfg.Sanitize = true
		if observe {
			cfg.Observe = &Observe{
				FlightSpans:     1024,
				MetricsInterval: DefaultMetricsInterval(cfg.Params.Period),
			}
		}
		cl, err := New(cfg, chaosSpecs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, 13)
		if err != nil {
			t.Fatal(err)
		}
		res.Stages = nil
		res.Metrics = nil
		res.EventsExecuted = 0
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	blind := run(false)
	if observed := run(true); !bytes.Equal(blind, observed) {
		reportDivergence(t, blind, observed)
	}
}

// TestChaosRecoveryReport runs the acceptance scenario (set5: crash,
// restart, monitor outage, server-NIC degradation) end to end, sanitized,
// and checks the FaultReport tells the full recovery story: the crash
// was detected and the reservation reclaimed, the restart rejoined
// through the recovery heartbeat, the outage pushed the surviving
// engines into degraded local-token mode, and every reservation miss is
// excused by a scenario window.
func TestChaosRecoveryReport(t *testing.T) {
	cfg := testConfig(Haechi)
	cfg.Seed = 3
	cfg.Chaos = "set5"
	cfg.Sanitize = true
	cl, err := New(cfg, chaosSpecs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 13)
	if err != nil {
		t.Fatalf("sanitized set5 run failed: %v", err)
	}
	fr := res.Faults
	if fr == nil {
		t.Fatal("chaos run produced no FaultReport")
	}
	if fr.ScenarioName != "set5" {
		t.Errorf("scenario name %q", fr.ScenarioName)
	}
	if fr.Injected.Crashes != 1 || fr.Injected.Restarts != 1 || fr.Injected.Outages != 1 || fr.Injected.Degrades != 1 {
		t.Errorf("injected counts %+v", fr.Injected)
	}
	if fr.MonitorOutages != 1 || fr.MonitorOutageTime <= 0 {
		t.Errorf("outage accounting: %d outages, %v total", fr.MonitorOutages, fr.MonitorOutageTime)
	}
	if fr.Suspicions < 1 || fr.Recoveries < 1 {
		t.Errorf("failure detection never fired: %d suspicions, %d recoveries", fr.Suspicions, fr.Recoveries)
	}

	c0 := fr.Clients[0]
	if c0.Crashes != 1 || c0.Restarts != 1 {
		t.Fatalf("client 0 transitions: %+v", c0)
	}
	if c0.CrashAt <= 0 || c0.RestartAt <= c0.CrashAt {
		t.Errorf("crash/restart instants out of order: crash %v, restart %v", c0.CrashAt, c0.RestartAt)
	}
	if c0.SuspectedAt <= c0.CrashAt {
		t.Errorf("suspicion %v not after crash %v", c0.SuspectedAt, c0.CrashAt)
	}
	if c0.ReclamationLatency <= 0 {
		t.Errorf("no reclamation latency recorded: %+v", c0)
	}
	if c0.ReinstatedAt <= c0.RestartAt {
		t.Errorf("reinstatement %v not after restart %v", c0.ReinstatedAt, c0.RestartAt)
	}
	if c0.RejoinAt <= c0.RestartAt || c0.RejoinPeriod <= 0 {
		t.Errorf("engine never rejoined: at %v, period %d", c0.RejoinAt, c0.RejoinPeriod)
	}
	if c0.QuarantinedRes != 0 || c0.QuarantinedGlobal != 0 {
		t.Errorf("tokens still quarantined at run end: res %d, global %d",
			c0.QuarantinedRes, c0.QuarantinedGlobal)
	}

	// The 1.25-period outage far exceeds the degraded-mode trigger
	// (2×CheckInterval), so every engine alive through it must have
	// entered local-token mode at least once and probed for the monitor.
	for i, cf := range fr.Clients[1:] {
		if cf.DegradedSpells < 1 || cf.DegradedTime <= 0 {
			t.Errorf("client %d never degraded through the outage: %+v", i+1, cf)
		}
		if cf.DegradedProbes < 1 {
			t.Errorf("client %d never probed the monitor while degraded", i+1)
		}
		if cf.Crashes != 0 || cf.PostCrashCompletions != 0 {
			t.Errorf("survivor %d has crash accounting: %+v", i+1, cf)
		}
	}

	// Misses may exist (client 0 around its crash, everyone during the
	// factor-4 NIC degradation) but each must be excused — the sanitizer
	// already enforced this (err == nil), so this just pins that the
	// report agrees and that the scenario actually produced some.
	var misses, excused int
	for _, cf := range fr.Clients {
		for _, mw := range cf.MissWindows {
			misses++
			if mw.Excused {
				excused++
			}
		}
	}
	if misses == 0 {
		t.Error("set5 produced no reservation misses; the scenario is not stressing the floor")
	}
	if misses != excused {
		t.Errorf("%d of %d misses unexcused in a clean sanitized run", misses-excused, misses)
	}
	if v := cl.SanitizeViolations(); len(v) != 0 {
		t.Errorf("sanitized run reported violations: %v", v)
	}

	// A posted request is one arrival instant waiting on its link, and the
	// sanitizer's completion-cookie check — clean, above — held that count
	// within the engine's send queue at every completion through backlog,
	// crash, outage and degradation. In particular the crashed tenant's: the
	// thousands of arrivals its crash dropped left nothing behind.
	for i, c := range cl.Clients() {
		if n := c.wire.pending.Len(); c.Gen.Completed() == 0 || n > cfg.Params.SendQueueDepth {
			t.Errorf("client %d: completed %d, %d I/Os left posted, want at most %d (SendQueueDepth)",
				i, c.Gen.Completed(), n, cfg.Params.SendQueueDepth)
		}
	}
}

// TestChaosCatchesPostCrashCompletion proves the no-completion-after-
// crash invariant is live: injecting a completion into a crashed engine
// after its in-flight window drained (DebugInjectPostCrashCompletion, a
// hook that exists only for this test) must fail the sanitized run
// naming the invariant.
func TestChaosCatchesPostCrashCompletion(t *testing.T) {
	cfg := testConfig(Haechi)
	cfg.Seed = 5
	cfg.Chaos = "crash@2.25:c=0"
	cfg.Sanitize = true
	cl, err := New(cfg, chaosSpecs())
	if err != nil {
		t.Fatal(err)
	}
	T := cl.cfg.Params.Period
	cl.kernel.At(sim.Time(3.5*float64(T)), func() {
		cl.Clients()[0].Engine.DebugInjectPostCrashCompletion()
	})
	_, err = cl.Run(1, 4)
	if err == nil {
		t.Fatal("sanitized run with an injected post-crash completion returned no error")
	}
	if !strings.Contains(err.Error(), "post-crash-completion") {
		t.Errorf("error does not name the broken invariant: %v", err)
	}
}

// TestSubPeriodOutageKeepsPeriod: a monitor outage that ends before the
// period's scheduled end leaves that end in place. Rolling the period at
// resume instead cut it to 0.75 T, and survivors reserving 0.9 C_G in
// aggregate completed 5/6 of R_i, tripping reservation-floor-survivor.
// A 10-client closed loop at two scales, the outage at four starts.
func TestSubPeriodOutageKeepsPeriod(t *testing.T) {
	for _, scale := range []float64{40, 400} {
		for _, start := range []string{"1.25", "3.25", "5.25", "6.25"} {
			cfg := NewDefaultConfig()
			cfg.Scale = scale
			cfg.Records = 4096
			cfg.Chaos = "outage@" + start + "+0.5"
			cfg.Sanitize = true
			specs := make([]ClientSpec, 10)
			res := workload.UniformSplit(uint64(0.9*float64(1_570_000/scale)), len(specs))
			for i := range specs {
				specs[i] = ClientSpec{Reservation: int64(res[i]), Pattern: workload.Burst{Window: 64}}
			}
			cl, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(1, 6); err != nil {
				t.Errorf("scale %v, %s: %v", scale, cfg.Chaos, err)
			}
			for _, v := range cl.SanitizeViolations() {
				if v.At < int64(cfg.Params.Period) {
					t.Errorf("%s reported at t=%dns, not an instant in the run", v.Check, v.At)
				}
			}
		}
	}
}
