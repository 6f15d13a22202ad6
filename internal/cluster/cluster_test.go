package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// testConfig returns a 100x-scaled testbed (server ≈ 15.7 KIOPS) with a
// small store, fast to simulate while preserving the paper's ratios.
func testConfig(mode Mode) Config {
	cfg := NewDefaultConfig()
	cfg.Mode = mode
	cfg.Scale = 100
	cfg.Store = kvstore.Options{Capacity: 1 << 10, RecordSize: 4096}
	cfg.Records = 512
	cfg.Fabric.Jitter = 0.005
	cfg.Sigma = 400
	return cfg
}

const scaledServerC = 15_700

func TestApplyScaleDefaults(t *testing.T) {
	cfg, err := (Config{}).ApplyScale()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != Haechi || cfg.Scale != 1 {
		t.Errorf("defaults not applied: %+v", cfg.Mode)
	}
	if cfg.ProfiledCapacityPerPeriod() != 1_570_000 {
		t.Errorf("derived profiled capacity = %d, want 1570000", cfg.ProfiledCapacityPerPeriod())
	}
	if cfg.Sigma != 15_700 {
		t.Errorf("derived sigma = %v", cfg.Sigma)
	}
	if cfg.Records != cfg.Store.Capacity/2 {
		t.Errorf("derived records = %d", cfg.Records)
	}
}

func TestApplyScaleRescalesControlPlane(t *testing.T) {
	cfg := NewDefaultConfig()
	cfg.Scale = 100
	scaled, err := cfg.ApplyScale()
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Fabric.ServerOneSidedRate != 15_700 {
		t.Errorf("server rate = %v", scaled.Fabric.ServerOneSidedRate)
	}
	// Intervals stretched (capped at Period/10) and batch shrunk.
	if scaled.Params.Tick != scaled.Params.Period/10 {
		t.Errorf("tick = %v, want period/10 cap", scaled.Params.Tick)
	}
	if scaled.Params.Batch != 10 {
		t.Errorf("batch = %d, want 10", scaled.Params.Batch)
	}
	if scaled.ProfiledCapacityPerPeriod() != 15_700 {
		t.Errorf("profiled = %d", scaled.ProfiledCapacityPerPeriod())
	}
}

func TestApplyScaleValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string // a fragment of the refusal; "" when accepted
	}{
		{"fractional scale", func(c *Config) { c.Scale = 0.5 }, "Scale must be >= 1"},
		{"two-sided QoS", func(c *Config) { c.TwoSided = true }, "TwoSided is bare-only"},
		{"two-sided, 0 shards", func(c *Config) { c.Mode, c.TwoSided = Bare, true }, ""},
		{"two-sided, 1 shard", func(c *Config) { c.Mode, c.TwoSided, c.Shards = Bare, true, 1 }, ""},
		// The client reads the record from the data node's region.
		{"two-sided, 2 shards", func(c *Config) { c.Mode, c.TwoSided, c.Shards = Bare, true, 2 }, "on its own kernel"},
		{"one shard worker", func(c *Config) { c.Shards, c.ShardWorkers = 3, 1 }, ""},
		{"two shard workers", func(c *Config) { c.Shards, c.ShardWorkers = 3, 2 }, "ShardWorkers must be 0 or 1"},
	} {
		cfg := NewDefaultConfig()
		tc.set(&cfg)
		_, err := cfg.ApplyScale()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testConfig(Haechi), nil); err == nil {
		t.Error("empty specs accepted")
	}
	// A record count the store cannot hold is refused before any region
	// is registered: rejecting it allocates nothing the size of a page,
	// let alone the 1 MB index it used to.
	cfg := testConfig(Haechi)
	cfg.Store.Capacity = 1 << 16
	for _, records := range []int{1<<16 + 1, -1} {
		cfg.Records = records
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New(cfg, []ClientSpec{{Reservation: 10}})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%d records in a store of %d accepted", records, cfg.Store.Capacity)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= rdma.DataIOSize {
			t.Errorf("rejecting %d records allocated %d bytes", records, got)
		}
	}
	// Admission failure surfaces from New.
	cfg = testConfig(Haechi)
	if _, err := New(cfg, []ClientSpec{{Reservation: 1 << 40}}); err == nil {
		t.Error("over-reservation accepted")
	}
}

// TestNewRefusesRecordsPastSlotRange: a data node's share of Records
// past the 2^31 slots a store holds is refused by ApplyScale, before the
// capacity is derived from it — 2^62+1 records once sent that derivation
// doubling past the top of an int, and New never returned.
func TestNewRefusesRecordsPastSlotRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold a record count past 2^31")
	}
	past := int64(kvstore.MaxCapacity) + 1
	for _, c := range []struct{ records, servers int }{
		{math.MaxInt/2 + 2, 1}, // 2^62 + 1
		{math.MaxInt, 2},       // the per-node share's rounding must not wrap
		{int(past), 1},
		{int(2 * past), 2},
	} {
		cfg := testConfig(Haechi)
		cfg.Store.Capacity = 0 // derived from Records
		cfg.Records, cfg.Servers = c.records, c.servers
		done := make(chan error, 1)
		go func() {
			_, err := New(cfg, []ClientSpec{{Reservation: 10}})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "slots a store holds") {
				t.Errorf("%d records on %d node(s): err = %v, want the slot-range refusal", c.records, c.servers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("New with %d records on %d node(s) did not return", c.records, c.servers)
		}
	}
	// The largest share a store holds is still accepted.
	cfg := testConfig(Haechi)
	cfg.Store.Capacity = 0
	cfg.Records = int(past - 1)
	got, err := cfg.ApplyScale()
	if err != nil || got.Store.Capacity != cfg.Records {
		t.Errorf("%d records: capacity %d, err %v; want as many and none", cfg.Records, got.Store.Capacity, err)
	}
}

func TestModeString(t *testing.T) {
	if Bare.String() != "bare" || Haechi.String() != "haechi" || BasicHaechi.String() != "basic-haechi" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

// TestBareSaturation reproduces Fig. 7's one-sided curve at test scale:
// 10 saturating clients reach ≈ C_G with a fair split.
func TestBareSaturation(t *testing.T) {
	specs := make([]ClientSpec, 10)
	for i := range specs {
		specs[i] = ClientSpec{Pattern: workload.Burst{Window: 64}}
	}
	cl, err := New(testConfig(Bare), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputPerPeriod < 0.95*scaledServerC || res.ThroughputPerPeriod > 1.05*scaledServerC {
		t.Errorf("bare throughput %.0f/period, want ≈%d", res.ThroughputPerPeriod, scaledServerC)
	}
	for _, cr := range res.Clients {
		if cr.MeanPeriod < 0.85*scaledServerC/10 || cr.MeanPeriod > 1.15*scaledServerC/10 {
			t.Errorf("client %d mean %.0f, want ≈ fair share %d", cr.Index, cr.MeanPeriod, scaledServerC/10)
		}
	}
	if len(res.Clients[0].Periods) != 3 {
		t.Errorf("measured %d periods, want 3", len(res.Clients[0].Periods))
	}
}

// TestBareSingleClient reproduces Fig. 6 at test scale: one client caps at
// C_L ≈ 4000/period one-sided.
func TestBareSingleClient(t *testing.T) {
	cl, err := New(testConfig(Bare), []ClientSpec{{Pattern: workload.Burst{Window: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputPerPeriod < 3800 || res.ThroughputPerPeriod > 4100 {
		t.Errorf("single-client throughput %.0f, want ≈4000 (C_L)", res.ThroughputPerPeriod)
	}
}

// TestBareTwoSided reproduces the two-sided curves: single client ≈ 3200,
// four clients ≈ 4300 (server CPU bound).
func TestBareTwoSided(t *testing.T) {
	run := func(n int) float64 {
		cfg := testConfig(Bare)
		cfg.TwoSided = true
		specs := make([]ClientSpec, n)
		for i := range specs {
			specs[i] = ClientSpec{Pattern: workload.Burst{Window: 64}}
		}
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputPerPeriod
	}
	one := run(1)
	four := run(4)
	if one < 2900 || one > 3500 {
		t.Errorf("1-client two-sided %.0f, want ≈3200", one)
	}
	if four < 4100 || four > 4500 {
		t.Errorf("4-client two-sided %.0f, want ≈4300", four)
	}
}

// TestHaechiMeetsReservations: the end-to-end stack (KV store + engines +
// monitor) meets uniform reservations with <1% throughput loss vs bare.
func TestHaechiMeetsReservations(t *testing.T) {
	reserved := int64(0.9 * scaledServerC / 10) // 1413 per client
	pool := uint64(scaledServerC) - 10*uint64(reserved)
	specs := make([]ClientSpec, 10)
	for i := range specs {
		specs[i] = ClientSpec{
			Reservation: reserved,
			// The paper's Exp 2A demand: reservation plus the whole
			// initial global pool, per client.
			Demand: ConstantDemand(uint64(reserved) + pool),
		}
	}
	cl, err := New(testConfig(Haechi), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Clients {
		if float64(cr.MinPeriod) < 0.98*float64(reserved) {
			t.Errorf("client %d min period %d < reservation %d", cr.Index, cr.MinPeriod, reserved)
		}
	}
	if res.ThroughputPerPeriod < 0.92*scaledServerC {
		t.Errorf("haechi throughput %.0f, want ≥92%% of %d", res.ThroughputPerPeriod, scaledServerC)
	}
	if res.Overhead.NICFraction > 0.05 {
		t.Errorf("QoS overhead %.2f%% of NIC time; want small", 100*res.Overhead.NICFraction)
	}
	if res.Overhead.DataReads == 0 {
		t.Error("no data reads counted")
	}
}

// TestHaechiZipfVsBare (Experiment 2A shape): under Zipf reservations the
// bare system starves high-reservation clients; Haechi fixes them.
func TestHaechiZipfVsBare(t *testing.T) {
	res, err := workload.ZipfGroupSplit(uint64(0.9*scaledServerC), 10, 5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pool := uint64(scaledServerC) - workload.Sum(res)
	demand := func(i int) DemandFn { return ConstantDemand(res[i] + pool) }

	bareSpecs := make([]ClientSpec, 10)
	qosSpecs := make([]ClientSpec, 10)
	for i := range bareSpecs {
		bareSpecs[i] = ClientSpec{Demand: demand(i)}
		qosSpecs[i] = ClientSpec{Reservation: int64(res[i]), Demand: demand(i)}
	}

	bareCl, err := New(testConfig(Bare), bareSpecs)
	if err != nil {
		t.Fatal(err)
	}
	bareRes, err := bareCl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The bare system is insensitive to reservations: C1 (highest) misses.
	if float64(bareRes.Clients[0].MeanPeriod) >= float64(res[0]) {
		t.Errorf("bare C1 unexpectedly met its would-be reservation: %.0f >= %d",
			bareRes.Clients[0].MeanPeriod, res[0])
	}

	qosCl, err := New(testConfig(Haechi), qosSpecs)
	if err != nil {
		t.Fatal(err)
	}
	qosRes, err := qosCl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	fairShare := float64(scaledServerC) / 10
	for _, cr := range qosRes.Clients {
		if cr.Index < 2 {
			// The top Zipf group at 90% reserved sits at the local-
			// capacity feasibility edge under burst (see EXPERIMENTS.md):
			// it reaches ~90% of R, still far above the bare fair share.
			if float64(cr.MinPeriod) < 0.87*float64(cr.Reservation) {
				t.Errorf("haechi client %d min %d below feasibility-edge band of reservation %d",
					cr.Index, cr.MinPeriod, cr.Reservation)
			}
			if cr.MeanPeriod < 1.3*fairShare {
				t.Errorf("haechi client %d mean %.0f not differentiated above fair share %.0f",
					cr.Index, cr.MeanPeriod, fairShare)
			}
			continue
		}
		if float64(cr.MinPeriod) < 0.98*float64(cr.Reservation) {
			t.Errorf("haechi client %d min %d < reservation %d", cr.Index, cr.MinPeriod, cr.Reservation)
		}
	}
}

// TestConversionVsBasic (Experiment 2B shape): when C1, C2 under-demand,
// full Haechi redistributes their tokens; Basic Haechi wastes them.
func TestConversionVsBasic(t *testing.T) {
	res, err := workload.ZipfGroupSplit(uint64(0.9*scaledServerC), 10, 5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	build := func(mode Mode) *Results {
		specs := make([]ClientSpec, 10)
		for i := range specs {
			d := ConstantDemand(res[i] + 1000)
			if i < 2 {
				d = ConstantDemand(res[i] / 3) // insufficient demand
			}
			specs[i] = ClientSpec{Reservation: int64(res[i]), Demand: d}
		}
		cl, err := New(testConfig(mode), specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cl.Run(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := build(Haechi)
	basic := build(BasicHaechi)
	// Work conservation: conversion recovers most of C1/C2's unused
	// reservation for the others (Fig. 11 shape).
	if full.ThroughputPerPeriod <= 1.04*basic.ThroughputPerPeriod {
		t.Errorf("conversion gain too small: full=%.0f basic=%.0f",
			full.ThroughputPerPeriod, basic.ThroughputPerPeriod)
	}
	// Converted tokens are competed for; individual shares vary
	// period-to-period, but broadly the hungry clients gain (Fig. 10) and
	// none does worse than its reservation.
	gainers := 0
	for i := 2; i < 10; i++ {
		if full.Clients[i].Total > basic.Clients[i].Total {
			gainers++
		}
		if int64(full.Clients[i].MinPeriod) < int64(float64(res[i])*0.98) {
			t.Errorf("client %d fell below reservation under conversion: %d < %d",
				i, full.Clients[i].MinPeriod, res[i])
		}
		if float64(full.Clients[i].Total) < 0.95*float64(basic.Clients[i].Total) {
			t.Errorf("client %d lost throughput to conversion: %d vs %d",
				i, full.Clients[i].Total, basic.Clients[i].Total)
		}
	}
	if gainers < 6 {
		t.Errorf("only %d of 8 hungry clients gained from conversion", gainers)
	}
}

// TestLatencyBurstVsConstantRate (Fig. 15 shape): constant-rate requests
// see far lower mean and tail latency than burst.
func TestLatencyBurstVsConstantRate(t *testing.T) {
	res := int64(0.8 * scaledServerC / 10)
	run := func(p workload.Pattern) *Results {
		specs := make([]ClientSpec, 10)
		for i := range specs {
			specs[i] = ClientSpec{
				Reservation: res,
				Demand:      ConstantDemand(uint64(res)),
				Pattern:     p,
			}
		}
		cl, err := New(testConfig(Haechi), specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cl.Run(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	burst := run(workload.Burst{})
	cr := run(workload.ConstantRate{})
	if cr.AggregateLatency.Mean >= burst.AggregateLatency.Mean {
		t.Errorf("constant-rate mean %v >= burst mean %v",
			cr.AggregateLatency.Mean, burst.AggregateLatency.Mean)
	}
	if cr.AggregateLatency.P99 >= burst.AggregateLatency.P99 {
		t.Errorf("constant-rate p99 %v >= burst p99 %v",
			cr.AggregateLatency.P99, burst.AggregateLatency.P99)
	}
}

// TestBackgroundJobAndTimeline: a congestion burst from period 6 to past
// the run's end dents the throughput timeline (Fig. 16 shape) and the
// timelines are recorded from t=0.
func TestBackgroundJobAndTimeline(t *testing.T) {
	reserved := int64(0.8 * scaledServerC / 10)
	specs := make([]ClientSpec, 10)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: reserved, Demand: ConstantDemand(uint64(reserved) + 400)}
	}
	cfg := testConfig(Haechi)
	cfg.Chaos = "burst@6+6:jobs=3,window=64"
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for _, cr := range res.Clients {
		for p := 1; p < 4; p++ {
			before += float64(cr.Periods[p])
		}
		for p := 7; p < 10; p++ {
			after += float64(cr.Periods[p])
		}
	}
	if after >= before {
		t.Errorf("congestion did not dent throughput: before=%.0f after=%.0f", before, after)
	}
	if len(res.Clients[0].Timeline.Points) < 10 {
		t.Errorf("timeline too short: %d", len(res.Clients[0].Timeline.Points))
	}
	if len(res.OmegaTimeline.Points) == 0 || len(res.UsageTimeline.Points) == 0 {
		t.Error("monitor timelines missing")
	}
}

// TestRunValidation covers bad run arguments.
func TestRunValidation(t *testing.T) {
	cl, err := New(testConfig(Bare), []ClientSpec{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(-1, 3); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := cl.Run(1, 0); err == nil {
		t.Error("zero measure accepted")
	}
}

// TestLimitInCluster: limits hold end to end.
func TestLimitInCluster(t *testing.T) {
	reserved := int64(1000)
	specs := []ClientSpec{{
		Reservation: reserved,
		Limit:       1500,
		Demand:      ConstantDemand(4000),
	}}
	cl, err := New(testConfig(Haechi), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range res.Clients[0].Periods {
		if n > 1500+64 {
			t.Errorf("period %d: %d completions exceed limit 1500", p, n)
		}
	}
}

// TestResultsString formats without panicking and contains client rows.
func TestResultsString(t *testing.T) {
	specs := []ClientSpec{{Reservation: 500, Demand: ConstantDemand(600)}}
	cl, err := New(testConfig(Haechi), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if s == "" || len(s) < 20 {
		t.Errorf("String too short: %q", s)
	}
}

// TestScaledParamsStillValid: a scaled config passes core validation and
// produces a working monitor with period structure intact.
func TestScaledParamsStillValid(t *testing.T) {
	cfg, err := testConfig(Haechi).ApplyScale()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Params.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Params.Period != core.NewDefaultParams().Period {
		t.Error("scale must not change the QoS period")
	}
	_ = sim.Time(0)
}

// TestUpdateMix: a YCSB-B-style 5% update mix flows through the same
// token path; updates are one-sided writes at the server.
func TestUpdateMix(t *testing.T) {
	specs := []ClientSpec{{
		Reservation:    2000,
		Demand:         ConstantDemand(2500),
		UpdateFraction: 0.5,
	}}
	cl, err := New(testConfig(Haechi), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Clients[0].MinPeriod) < 0.97*2000 {
		t.Errorf("reservation missed with update mix: %d", res.Clients[0].MinPeriod)
	}
	kv := cl.Clients()[0].KV
	gets, puts := kv.OneSidedGets(), kv.OneSidedPuts()
	total := gets + puts
	frac := float64(puts) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("update fraction = %.2f, want ≈0.5 (gets=%d puts=%d)", frac, gets, puts)
	}
	// Still silent: no server CPU involvement.
	if res.ServerStats.SendsReceived != 0 {
		t.Errorf("update mix generated %d server messages", res.ServerStats.SendsReceived)
	}
}

// TestPoissonPatternInCluster: the extension arrival process works end to
// end under QoS.
func TestPoissonPatternInCluster(t *testing.T) {
	specs := []ClientSpec{{
		Reservation: 2000,
		Demand:      ConstantDemand(2400),
		Pattern:     workload.Poisson{},
	}}
	cl, err := New(testConfig(Haechi), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop random arrivals: the mean must track the demand.
	if res.Clients[0].MeanPeriod < 2200 || res.Clients[0].MeanPeriod > 2600 {
		t.Errorf("poisson mean %f, want ≈2400", res.Clients[0].MeanPeriod)
	}
}

// TestTracing: the flight recorder captures the protocol's event flow
// beside the verb spans, with exact per-kind totals.
func TestTracing(t *testing.T) {
	specs := []ClientSpec{
		{Reservation: 2000, Demand: ConstantDemand(4000)},
		{Reservation: 2000, Demand: ConstantDemand(500)}, // yields
	}
	cfg := testConfig(Haechi)
	cfg.Observe = &Observe{FlightSpans: 4096}
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Flight
	for _, k := range []trace.Kind{trace.PeriodStart, trace.TokenPush, trace.Report,
		trace.CapacityUpdate, trace.Claim, trace.Yield} {
		if fr.Count(k) == 0 {
			t.Errorf("no %v events recorded (%s)", k, fr.Summary())
		}
	}
	// The per-kind totals are exact even once the ring has wrapped.
	var reports uint64
	for _, rt := range cl.clients {
		reports += rt.Engine.Stats().ReportsSent
	}
	if got := fr.Count(trace.Report); got != reports {
		t.Errorf("%d report events counted, engines sent %d reports", got, reports)
	}
	if fr.Dropped() == 0 || len(fr.Events(trace.Report)) >= int(reports) {
		t.Errorf("ring never wrapped (%d dropped); the exact-count check proves nothing", fr.Dropped())
	}
}

// TestGoldenDeterminism: identical configurations produce event-for-event
// identical results. Two fresh clusters with the same seed must agree on
// every per-period count; any divergence means nondeterminism leaked into
// the simulation (wall-clock, map iteration into event order, etc.).
func TestGoldenDeterminism(t *testing.T) {
	build := func() *Results {
		res, err := workload.ZipfGroupSplit(uint64(0.9*scaledServerC), 10, 5, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]ClientSpec, 10)
		for i := range specs {
			d := res[i] + 1570
			if i == 1 {
				d = res[i] / 2
			}
			specs[i] = ClientSpec{Reservation: int64(res[i]), Demand: ConstantDemand(d), UpdateFraction: 0.05}
		}
		cl, err := New(testConfig(Haechi), specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cl.Run(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if a.TotalCompleted != b.TotalCompleted {
		t.Fatalf("runs diverge: %d vs %d", a.TotalCompleted, b.TotalCompleted)
	}
	for i := range a.Clients {
		for p := range a.Clients[i].Periods {
			if a.Clients[i].Periods[p] != b.Clients[i].Periods[p] {
				t.Fatalf("client %d period %d diverges: %d vs %d",
					i, p, a.Clients[i].Periods[p], b.Clients[i].Periods[p])
			}
		}
		if a.Clients[i].Latency.P99 != b.Clients[i].Latency.P99 {
			t.Fatalf("client %d latency diverges", i)
		}
	}
}

// TestPaperScaleStoreIsCheap loads the paper's store — 1 M records of
// 4 KB, 4 GB as a flat region — for nine readers and a tenant that updates
// records. Records nobody changed cost no bytes, and an update writes the
// record it replaces, so the cluster fits in what the index and the primed
// locations need, before and after a measured window, and a GET still
// returns the key plus zeros.
func TestPaperScaleStoreIsCheap(t *testing.T) {
	const records = 1 << 20
	cfg := testConfig(Haechi)
	cfg.Store = kvstore.Options{Capacity: records, RecordSize: rdma.DataIOSize}
	cfg.Records = records
	specs := make([]ClientSpec, 10)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 100, Demand: ConstantDemand(200)}
	}
	specs[3].UpdateFraction = 0.5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("HeapAlloc grew %.1f MB across New", float64(grown)/(1<<20))
	if grown > 32<<20 {
		t.Errorf("a %d-record cluster holds %d MB of heap, want at most 32", records, grown>>20)
	}
	data := cl.Store().DataRegion()
	if !data.Paged() || data.Resident() != 0 || int64(data.Size()) != records*int64(rdma.DataIOSize) {
		t.Errorf("kv/data: paged = %v, %d of %d bytes resident", data.Paged(), data.Resident(), data.Size())
	}

	// The hottest key is the mode of the shared chooser's draws.
	rng, draws := rand.New(rand.NewSource(1)), map[uint64]int{}
	hot := uint64(0)
	for i := 0; i < 2000; i++ {
		key := cl.sharedKeys.Next(rng)
		if draws[key]++; draws[key] > draws[hot] {
			hot = key
		}
	}
	if draws[hot] < 50 {
		t.Fatalf("no hot key among 2000 draws (mode %d drawn %d times)", hot, draws[hot])
	}
	want := make([]byte, rdma.DataIOSize)
	for _, key := range []uint64{0, records - 1, hot} {
		key, got := key, false
		err := cl.Clients()[0].KV.Get(key, func(v []byte, err error) {
			got = true
			binary.LittleEndian.PutUint64(want, key)
			if err != nil || !bytes.Equal(v, want) {
				t.Errorf("GET %d = %x.. (%d bytes), %v; want the key plus zeros", key, v[:min(len(v), 16)], len(v), err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.kernel.RunUntil(cl.kernel.Now() + 10*sim.Millisecond)
		if !got {
			t.Errorf("GET %d did not complete", key)
		}
	}
	if data.Resident() != 0 {
		t.Errorf("GETs left %d bytes resident", data.Resident())
	}

	if _, err := cl.Run(0, 2); err != nil {
		t.Fatal(err)
	}
	if puts := cl.Clients()[3].KV.OneSidedPuts(); puts < 100 {
		t.Fatalf("the updating tenant issued %d WRITEs", puts)
	}
	if !data.Paged() || data.Resident() != 0 {
		t.Errorf("after a measured window with a writer kv/data is paged = %v, %d bytes resident", data.Paged(), data.Resident())
	}
}

// TestUpdateWritesTheRecord: a one-sided UPDATE stores the record it
// replaces — the key in 8 bytes plus zeros, where the sender used to write
// byte(key) plus zeros and clear bytes 1–7 of the key field of every key
// past 255 — so a half-update run leaves every record as loaded and the
// data region unwritten.
func TestUpdateWritesTheRecord(t *testing.T) {
	cfg := testConfig(Bare)
	specs := make([]ClientSpec, 4)
	for i := range specs {
		specs[i] = ClientSpec{
			Demand: ConstantDemand(2500), Pattern: workload.ConstantRate{}, UpdateFraction: 0.5,
			Keys: &workload.SequentialKeys{N: uint64(cfg.Records)},
		}
	}
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(0, 2); err != nil {
		t.Fatal(err)
	}
	var puts uint64
	for _, c := range cl.Clients() {
		puts += c.KV.OneSidedPuts()
	}
	if puts < 16*uint64(cfg.Records) {
		t.Fatalf("%d WRITEs over %d keys", puts, cfg.Records)
	}
	want := make([]byte, cfg.Store.RecordSize)
	for key := uint64(0); key < uint64(cfg.Records); key++ {
		binary.LittleEndian.PutUint64(want, key)
		if v, ok := cl.Store().Get(key); !ok || !bytes.Equal(v, want) {
			t.Fatalf("record %d = %x.. after the run, %v; want the key plus zeros", key, v[:min(len(v), 16)], ok)
		}
	}
	if data := cl.Store().DataRegion(); !data.Paged() || data.Resident() != 0 {
		t.Errorf("kv/data: paged = %v, %d bytes resident after %d WRITEs", data.Paged(), data.Resident(), puts)
	}
}

// TestUpdateWindowNoAlloc is what holds bare_mixed_rw's run_alloc_mb: the
// store stays paged under writers, and a WRITE that stores the record it
// replaces must not cost a page, or anything else, per operation. Six more
// steady periods of a half-update Bare run over 64 Ki uniformly drawn
// records allocate under 0.01 objects per WRITE they add.
func TestUpdateWindowNoAlloc(t *testing.T) {
	run := func(measure int) (mallocs, writes uint64) {
		cfg := testConfig(Bare)
		cfg.Store.Capacity, cfg.Records = 1<<16, 1<<16
		specs := make([]ClientSpec, 6)
		for i := range specs {
			specs[i] = ClientSpec{
				Demand: ConstantDemand(2500), Pattern: workload.ConstantRate{}, UpdateFraction: 0.5,
				Keys: &workload.UniformKeys{N: uint64(cfg.Records)},
			}
		}
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cl.Run(1, measure); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		for _, c := range cl.Clients() {
			writes += c.KV.OneSidedPuts()
		}
		if got := cl.Store().DataRegion().Resident(); got != 0 {
			t.Errorf("%d bytes resident after %d WRITEs", got, writes)
		}
		return after.Mallocs - before.Mallocs, writes
	}
	m3, w3 := run(3)
	m9, w9 := run(9)
	if w9-w3 < 40_000 {
		t.Fatalf("six periods added only %d WRITEs", w9-w3)
	}
	if perOp := float64(int64(m9-m3)) / float64(w9-w3); perOp > 0.01 {
		t.Errorf("steady state allocates %.4f objects per WRITE (%d over %d WRITEs)", perOp, int64(m9-m3), w9-w3)
	}
}

// TestOpenLoopArrivalsNoAlloc: in Bare mode an open-loop arrival — the
// driver's timer, the key, the posted GET, its cookie on the link, the
// completion — allocates nothing once the pools and queues have grown.
// The Poisson driver built a closure per arrival: 100 mallocs per 1000
// events, and all the bytes a Bare run allocated.
func TestOpenLoopArrivalsNoAlloc(t *testing.T) {
	for _, pattern := range []workload.Pattern{workload.Poisson{}, workload.ConstantRate{}} {
		t.Run(pattern.String(), func(t *testing.T) {
			cl, err := New(testConfig(Bare), []ClientSpec{{Pattern: pattern}, {Pattern: pattern}})
			if err != nil {
				t.Fatal(err)
			}
			k, T := cl.kernel, cl.Config().Params.Period
			for _, c := range cl.Clients() {
				c.Gen.BeginPeriod(2000) // half what a client's NIC carries; never renewed
			}
			k.RunUntil(T / 2)
			done := cl.Clients()[0].Gen.Completed()
			step := T / 100
			if allocs := testing.AllocsPerRun(20, func() { k.RunUntil(k.Now() + step) }); allocs != 0 {
				t.Errorf("%v objects allocated per %v of steady arrivals", allocs, step)
			}
			if got := cl.Clients()[0].Gen.Completed() - done; got < 20*15 {
				t.Errorf("only %d requests completed while measuring", got)
			}
		})
	}
}
