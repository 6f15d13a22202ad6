package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// The integration harness runs the full protocol over a fabric scaled
// down 100x (client NIC 4 KIOPS, server NIC 15.7 KIOPS) with the paper's
// period structure (T = 1 s, 1 ms ticks), so a multi-period run simulates
// in milliseconds of wall time while preserving every capacity ratio.

const (
	testScale   = 100.0
	testServerC = 15_700 // scaled C_G per period
	testClientC = 4_000  // scaled C_L per period
)

func testParams() Params {
	p := NewDefaultParams()
	p.Batch = 50 // scale B with capacity, as the cluster runner does
	// Scale the control-plane intervals with capacity: at 1/100 capacity,
	// per-millisecond control verbs would cost 100x more of the data
	// node's NIC than in the paper; 10 ms intervals restore the paper's
	// control:data cost ratio.
	p.Tick = 10 * sim.Millisecond
	p.CheckInterval = 10 * sim.Millisecond
	p.ReportInterval = 10 * sim.Millisecond
	return p
}

type qosHarness struct {
	t       *testing.T
	k       *sim.Kernel
	f       *rdma.Fabric
	server  *rdma.Node
	mon     *Monitor
	engines []*Engine
	drivers []*burstLoop
	data    *rdma.Region
}

// burstLoop is a minimal closed-loop driver (window outstanding, fixed
// per-period demand) used to exercise engines without importing the
// workload package.
type burstLoop struct {
	e           *Engine
	window      int
	demand      func(period int) int
	target      int
	issued      int
	outstanding int
	pulled      uint64

	// periods holds the engine's completions in each finished period:
	// what it completed between one period start and the next.
	periods []uint64
}

// drive attaches a burstLoop to e as its period hook and request source.
func drive(e *Engine, window int, demand func(period int) int) *burstLoop {
	b := &burstLoop{e: e, window: window, demand: demand}
	e.OnPeriodStart = b.begin
	e.SetSource(b.next, b.onDone)
	return b
}

func (b *burstLoop) begin(period int, closed LedgerRow) {
	if closed.Period > 0 { // the first push closes the empty row of period 0
		b.periods = append(b.periods, uint64(closed.Completed))
	}
	b.target = b.demand(period)
	b.issued = 0
	b.fill()
}

func (b *burstLoop) fill() {
	for b.outstanding < b.window && b.issued < b.target {
		b.issued++
		b.outstanding++
		b.e.Arrive(1)
	}
}

// next is the engine's source: requests carry no state but their number.
func (b *burstLoop) next(sim.Time) uint64 {
	b.pulled++
	return b.pulled
}

func (b *burstLoop) onDone(sim.Time) {
	b.outstanding--
	b.fill()
}

// newQoSHarness builds a data node plus one engine per reservation; each
// engine's sender performs a real one-sided 4 KB read so NIC contention
// is exercised. demand maps (client, period) to requests per period.
// Demand is posted at period start (the paper's Example-2 burst form).
func newQoSHarness(t *testing.T, params Params, reservations []int64, demand func(client, period int) int, monOpts ...MonitorOption) *qosHarness {
	return newQoSHarnessSigma(t, params, reservations, demand, 400, monOpts...)
}

func newQoSHarnessSigma(t *testing.T, params Params, reservations []int64, demand func(client, period int) int, sigma float64, monOpts ...MonitorOption) *qosHarness {
	t.Helper()
	k := sim.New(11)
	cfg := rdma.NewDefaultConfig().Scaled(testScale)
	cfg.Jitter = 0
	f, err := rdma.NewFabric(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.AddServer("dn")
	if err != nil {
		t.Fatal(err)
	}
	data, err := server.RegisterRegion("data", rdma.DataIOSize)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewCapacityEstimator(params, testServerC, sigma)
	if err != nil {
		t.Fatal(err)
	}
	adm, err := NewAdmissionController(testServerC, testClientC)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(params, server, len(reservations), est, adm, monOpts...)
	if err != nil {
		t.Fatal(err)
	}
	h := &qosHarness{t: t, k: k, f: f, server: server, mon: mon, data: data}
	for i, r := range reservations {
		i := i
		node, err := f.AddClient(clientName(i))
		if err != nil {
			t.Fatal(err)
		}
		disp := rdma.NewDispatcher(node)
		grant, err := mon.Admit(node, r)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := f.Connect(node, server)
		if err != nil {
			t.Fatal(err)
		}
		var eng *Engine
		sender := func(key uint64, arrivedAt sim.Time) {
			if err := qp.Read(data, 0, rdma.DataIOSize, func([]byte) { eng.OnIODone(arrivedAt) }); err != nil {
				t.Fatalf("read failed: %v", err)
			}
		}
		eng, err = NewEngine(&params, grant, node, disp, 0, sender)
		if err != nil {
			t.Fatal(err)
		}
		drv := drive(eng, 1<<30, func(p int) int { return demand(i, p) })
		h.engines = append(h.engines, eng)
		h.drivers = append(h.drivers, drv)
	}
	return h
}

func clientName(i int) string { return "c" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

// run starts the monitor and runs n full periods, returning per-client
// per-period completions harvested from the drivers' period logs.
func (h *qosHarness) run(periods int) [][]uint64 {
	if err := h.mon.Start(); err != nil {
		h.t.Fatal(err)
	}
	h.k.RunUntil(sim.Time(periods+1) * h.engines[0].params.Period)
	h.mon.Stop()
	out := make([][]uint64, len(h.drivers))
	for i, d := range h.drivers {
		out[i] = d.periods
	}
	return out
}

func TestEngineValidation(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	client, _ := f.AddClient("c")
	disp := rdma.NewDispatcher(client)
	est, _ := NewCapacityEstimator(NewDefaultParams(), 1000, 0)
	adm, _ := NewAdmissionController(1000, 400)
	mon, _ := NewMonitor(NewDefaultParams(), server, 1, est, adm)
	grant, err := mon.Admit(client, 100)
	if err != nil {
		t.Fatal(err)
	}
	sender := func(uint64, sim.Time) {}
	params := NewDefaultParams()
	if _, err := NewEngine(nil, grant, client, disp, 0, sender); err == nil {
		t.Error("nil params accepted")
	}
	if _, err := NewEngine(&params, grant, nil, disp, 0, sender); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewEngine(&params, ClientGrant{}, client, disp, 0, sender); err == nil {
		t.Error("empty grant accepted")
	}
	if _, err := NewEngine(&params, grant, client, disp, -1, sender); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := NewEngine(&params, grant, client, disp, 0, nil); err == nil {
		t.Error("nil sender accepted")
	}
	bad := NewDefaultParams()
	bad.Batch = 0
	if _, err := NewEngine(&bad, grant, client, disp, 0, sender); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMonitorValidation(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	client, _ := f.AddClient("c")
	est, _ := NewCapacityEstimator(NewDefaultParams(), 1000, 0)
	adm, _ := NewAdmissionController(1000, 400)
	if _, err := NewMonitor(NewDefaultParams(), nil, 1, est, adm); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewMonitor(NewDefaultParams(), client, 1, est, adm); err == nil {
		t.Error("client node accepted as monitor host")
	}
	bad := NewDefaultParams()
	bad.Period = 0
	if _, err := NewMonitor(bad, server, 1, est, adm); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewMonitor(NewDefaultParams(), server, 0, est, adm); err == nil {
		t.Error("zero tenants accepted")
	}
	mon, err := NewMonitor(NewDefaultParams(), server, 1, est, adm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Admit(nil, 10); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := mon.Admit(client, 500); err == nil {
		t.Error("local-capacity-violating reservation accepted")
	}
	if err := mon.SetReservation(0, 10); err == nil {
		t.Error("re-reserving unknown client succeeded")
	}
	if err := mon.SetReservation(3, 10); err == nil {
		t.Error("SetReservation on unknown client succeeded")
	}
}

// TestMonitorReportTableFull: a monitor built for n tenants has n report
// slots; it admits n clients and refuses the next.
func TestMonitorReportTableFull(t *testing.T) {
	const n = 3
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	est, _ := NewCapacityEstimator(NewDefaultParams(), 1000, 0)
	adm, _ := NewAdmissionController(1000, 400)
	mon, err := NewMonitor(NewDefaultParams(), server, n, est, adm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mon.QoSRegion().Size(), reportSlotOffset(n); got != want {
		t.Errorf("QoS region is %d bytes, want %d (%d slots)", got, want, n)
	}
	for i := 0; i <= n; i++ {
		client, _ := f.AddClient(fmt.Sprintf("c%d", i))
		grant, err := mon.Admit(client, 10)
		if i < n {
			if err != nil || grant.ID != i {
				t.Fatalf("tenant %d: grant %d, %v", i, grant.ID, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "report table full") {
			t.Errorf("tenant %d of %d: err = %v, want report table full", i+1, n, err)
		}
	}
	if adm.Reserved() != n*10 {
		t.Errorf("admission holds %d, want %d: the refused tenant leaked a reservation", adm.Reserved(), n*10)
	}
}

// TestReservationsMetWithSufficientDemand is the core guarantee
// (Experiment 2A shape): continuously backlogged clients receive at least
// R_i every period, under both uniform and skewed reservations.
func TestReservationsMetWithSufficientDemand(t *testing.T) {
	cases := []struct {
		name string
		res  []int64
	}{
		{"uniform", []int64{1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413}},
		{"zipf", []int64{2361, 2361, 1558, 1558, 1221, 1221, 1027, 1027, 898, 898}}, // ZipfGroupSplit(0.6): 90% of 15700
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			demand := func(client, period int) int { return int(tc.res[client]) + 400 }
			h := newQoSHarness(t, testParams(), tc.res, demand)
			logs := h.run(5)
			for i, log := range logs {
				if len(log) < 4 {
					t.Fatalf("client %d: only %d periods logged", i, len(log))
				}
				// Skip the first period (engines join mid-protocol). The
				// 90%-reserved Zipf point sits exactly at the local-
				// capacity feasibility edge under the burst pattern: the
				// highest-reservation client's late-period catch-up rate
				// marginally exceeds C_L (see EXPERIMENTS.md), so the
				// per-period check carries a 4% tolerance; what must hold
				// strictly is that every client lands near its
				// reservation instead of the bare system's fair share.
				var sum float64
				for p := 1; p < len(log); p++ {
					if float64(log[p]) < 0.96*float64(tc.res[i]) {
						t.Errorf("client %d period %d: completed %d < reservation %d",
							i, p, log[p], tc.res[i])
					}
					sum += float64(log[p])
				}
				mean := sum / float64(len(log)-1)
				if mean < 0.96*float64(tc.res[i]) {
					t.Errorf("client %d: mean completions %.0f below reservation %d", i, mean, tc.res[i])
				}
				fairShare := float64(testServerC) / 10
				if float64(tc.res[i]) > 1.2*fairShare && mean < 1.3*fairShare {
					t.Errorf("client %d: mean %.0f not differentiated above fair share %.0f", i, mean, fairShare)
				}
			}
		})
	}
}

// TestHighThroughputMaintained: with 90% reserved and demand above
// reservation, Haechi keeps the data node near its capacity (the paper
// reports <0.1% loss for uniform reservations).
func TestHighThroughputMaintained(t *testing.T) {
	res := make([]int64, 10)
	for i := range res {
		res[i] = 1413
	}
	demand := func(client, period int) int { return 1413 + 400 }
	h := newQoSHarness(t, testParams(), res, demand)
	logs := h.run(4)
	var total uint64
	periods := 0
	for _, log := range logs {
		for p := 1; p < len(log); p++ {
			total += log[p]
		}
		if len(log)-1 > periods {
			periods = len(log) - 1
		}
	}
	perPeriod := float64(total) / float64(periods)
	if perPeriod < 0.93*testServerC {
		t.Errorf("throughput %.0f/period, want >= 93%% of %d", perPeriod, testServerC)
	}
}

// TestTokenYieldOnInsufficientDemand: a client that stops early returns
// reservation tokens (X-counter decay) and its engine reports shrinking
// residuals.
func TestTokenYieldOnInsufficientDemand(t *testing.T) {
	res := []int64{2000, 2000}
	demand := func(client, period int) int {
		if client == 0 {
			return 500 // far below its reservation
		}
		return 2500
	}
	h := newQoSHarness(t, testParams(), res, demand)
	h.run(3)
	st := h.engines[0].Stats()
	if st.TokensYielded == 0 {
		t.Error("under-demanding client never yielded tokens")
	}
}

// TestTokenConversionWorkConservation (Experiment 2B shape): with
// conversion, other clients consume the under-demanding clients' capacity
// and exceed their reservations; Basic Haechi wastes it.
func TestTokenConversionWorkConservation(t *testing.T) {
	res := []int64{3000, 3000, 2000, 2000, 1400, 1400, 700, 700, 400, 400}
	demand := func(client, period int) int {
		if client < 2 {
			return 600 // C1, C2 under-demand
		}
		return int(res[client]) + 2000
	}

	run := func(opts ...MonitorOption) (total float64, perClient []float64) {
		h := newQoSHarness(t, testParams(), res, demand, opts...)
		logs := h.run(4)
		perClient = make([]float64, len(logs))
		for i, log := range logs {
			for p := 1; p < len(log); p++ {
				perClient[i] += float64(log[p])
			}
			total += perClient[i]
		}
		return total, perClient
	}

	haechiTotal, haechiPer := run()
	basicTotal, basicPer := run(WithoutConversion())

	if haechiTotal <= basicTotal*1.05 {
		t.Errorf("conversion gained too little: haechi=%.0f basic=%.0f", haechiTotal, basicTotal)
	}
	// Clients 2..9 should do strictly better with conversion.
	for i := 2; i < 10; i++ {
		if haechiPer[i] <= basicPer[i] {
			t.Errorf("client %d: conversion %f <= basic %f", i, haechiPer[i], basicPer[i])
		}
	}
	// And should exceed their reservations (3 periods counted).
	for i := 2; i < 10; i++ {
		if haechiPer[i] <= float64(3*res[i]) {
			t.Errorf("client %d did not exceed reservation using converted tokens", i)
		}
	}
}

// TestLimitEnforced: an engine with L_i throttles dispatches to the limit
// each period.
func TestLimitEnforced(t *testing.T) {
	params := testParams()
	k := sim.New(5)
	cfg := rdma.NewDefaultConfig().Scaled(testScale)
	cfg.Jitter = 0
	f, _ := rdma.NewFabric(k, cfg)
	server, _ := f.AddServer("dn")
	data, _ := server.RegisterRegion("data", rdma.DataIOSize)
	est, _ := NewCapacityEstimator(params, testServerC, 50)
	adm, _ := NewAdmissionController(testServerC, testClientC)
	mon, _ := NewMonitor(params, server, 1, est, adm)

	node, _ := f.AddClient("c0")
	disp := rdma.NewDispatcher(node)
	grant, err := mon.Admit(node, 1000)
	if err != nil {
		t.Fatal(err)
	}
	qp, _ := f.Connect(node, server)
	var eng *Engine
	sender := func(key uint64, arrivedAt sim.Time) {
		_ = qp.Read(data, 0, rdma.DataIOSize, func([]byte) { eng.OnIODone(arrivedAt) })
	}
	const limit = 1200
	eng, err = NewEngine(&params, grant, node, disp, limit, sender)
	if err != nil {
		t.Fatal(err)
	}
	drv := drive(eng, 1<<30, func(int) int { return 3000 })
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(4 * params.Period)
	mon.Stop()
	for p, done := range drv.periods {
		if done > limit+1 {
			t.Errorf("period %d: completed %d exceeds limit %d", p, done, limit)
		}
	}
	if eng.Stats().LimitThrottled == 0 {
		t.Error("limit never throttled despite excess demand")
	}
}

// TestReportingOnlyAfterOverflow: the reporting machinery stays quiet
// while reservations cover the demand (silence is the point of the
// design), and activates once the global pool is touched.
func TestReportingOnlyAfterOverflow(t *testing.T) {
	res := []int64{3000, 3000}
	// Demand below reservation: pool untouched.
	quiet := func(client, period int) int { return 2000 }
	h := newQoSHarness(t, testParams(), res, quiet)
	h.run(3)
	// No report signal: engines send only the final report of each
	// period, and the monitor never caps the pool.
	for i, e := range h.engines {
		st := e.Stats()
		if st.ReportsSent < 2 || st.ReportsSent > 5 {
			t.Errorf("client %d sent %d reports, want one per period", i, st.ReportsSent)
		}
	}
	if h.mon.ConversionCount != 0 {
		t.Errorf("pool capped %d times with no pool usage", h.mon.ConversionCount)
	}

	// Demand above reservation: pool consumed, reporting activates, and
	// engines report every ReportInterval on top of the final report.
	greedy := func(client, period int) int { return 5000 }
	h2 := newQoSHarness(t, testParams(), res, greedy)
	h2.run(3)
	for i, e := range h2.engines {
		if n := e.Stats().ReportsSent; n <= 5 {
			t.Errorf("client %d sent %d reports despite pool consumption, want periodic ones", i, n)
		}
	}
	if h2.mon.ConversionCount == 0 {
		t.Error("no conversions despite reporting being active")
	}
}

// TestFAABatching: global tokens are claimed in batches, so the number of
// FAAs is roughly consumed/B, not one per I/O.
func TestFAABatching(t *testing.T) {
	res := []int64{1000}
	demand := func(client, period int) int { return 3500 }
	h := newQoSHarness(t, testParams(), res, demand)
	h.run(3)
	st := h.engines[0].Stats()
	if st.GlobalConsumed == 0 {
		t.Fatal("no global tokens consumed")
	}
	maxFAAs := uint64(st.GlobalConsumed)/uint64(testParams().Batch) + // full batches
		3*uint64(testParams().Period/testParams().Tick) // plus at most one probe per tick
	if st.FAAIssued > maxFAAs {
		t.Errorf("FAAs = %d for %d global tokens (batch %d); batching broken",
			st.FAAIssued, st.GlobalConsumed, testParams().Batch)
	}
	if st.FAAIssued*uint64(testParams().Batch) < uint64(st.GlobalConsumed) {
		t.Errorf("consumed %d global tokens with only %d FAAs of %d",
			st.GlobalConsumed, st.FAAIssued, testParams().Batch)
	}
}

// TestTotalTokenGatingInvariant: completions per period never exceed the
// period's token budget Omega (plus boundary carry-over of one window).
func TestTotalTokenGatingInvariant(t *testing.T) {
	res := []int64{1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413, 1413}
	demand := func(client, period int) int { return 5000 }
	h := newQoSHarness(t, testParams(), res, demand)
	logs := h.run(4)
	periods := 0
	for _, log := range logs {
		if len(log) > periods {
			periods = len(log)
		}
	}
	for p := 1; p < periods; p++ {
		var sum int64
		for _, log := range logs {
			if p < len(log) {
				sum += int64(log[p])
			}
		}
		omega := h.mon.Estimator().Current() // post-run estimate; budget is near testServerC
		slack := int64(10*64 + 2*h.mon.Estimator().eta)
		if sum > testServerC+slack && sum > omega+slack {
			t.Errorf("period %d: %d completions exceed token budget ≈%d", p, sum, testServerC)
		}
	}
}

// TestSetReservation: reservations can be retuned between periods.
func TestSetReservation(t *testing.T) {
	res := []int64{1000, 1000}
	demand := func(client, period int) int { return 4000 }
	h := newQoSHarness(t, testParams(), res, demand)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(testParams().Period + testParams().Period/2)
	if err := h.mon.SetReservation(0, 3000); err != nil {
		t.Fatal(err)
	}
	if err := h.mon.SetReservation(0, testClientC*10); err == nil {
		t.Error("local-violating reservation accepted")
	}
	h.k.RunUntil(5 * testParams().Period)
	h.mon.Stop()
	logs := h.drivers[0].periods
	last := logs[len(logs)-1]
	if int64(last) < 3000 {
		t.Errorf("raised reservation not honored: completed %d < 3000", last)
	}
}

// TestEngineStopsCleanly and pending counters.
func TestEngineStop(t *testing.T) {
	res := []int64{1000}
	demand := func(client, period int) int { return 100 }
	h := newQoSHarness(t, testParams(), res, demand)
	h.run(2)
	e := h.engines[0]
	e.Stop()
	if e.ID() != 0 {
		t.Errorf("ID = %d", e.ID())
	}
	if e.open.Period == 0 {
		t.Error("engine never saw a period")
	}
	// Accessors do not panic post-stop.
	_ = e.ReservationTokens()
	_ = e.LocalGlobalTokens()
	_ = e.Pending()
}

// TestMonitorDoubleStart rejects a second Start.
func TestMonitorDoubleStart(t *testing.T) {
	res := []int64{100}
	demand := func(client, period int) int { return 10 }
	h := newQoSHarness(t, testParams(), res, demand)
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.mon.Start(); err == nil {
		t.Error("double Start accepted")
	}
	h.k.RunUntil(testParams().Period * 2)
	h.mon.Stop()
}

// TestCapacityAdaptationUnderInjectedLoad (Experiment Set 4 shape): when
// background load consumes server capacity, the estimator converges down;
// when it stops, the estimator climbs back.
func TestCapacityAdaptationUnderInjectedLoad(t *testing.T) {
	res := []int64{2200, 2200, 1400, 1400, 950, 950, 550, 550, 350, 350} // ~69% of 15.7K
	demand := func(client, period int) int { return int(res[client]) + 2000 }
	h := newQoSHarnessSigma(t, testParams(), res, demand, 1800)
	// Three always-on background streams squeeze the round-robin share
	// available to Haechi's ten clients to ~10/13 of capacity (~11.5K):
	// below the token budget but above the estimator's lower bound, so
	// Algorithm 1 must adapt rather than dismiss the periods as idle.
	var jobs []*rdma.BackgroundJob
	for j := 0; j < 3; j++ {
		job, err := rdma.NewBackgroundJob(h.f, "bg"+string(rune('0'+j)), h.server, 64)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if err := h.mon.Start(); err != nil {
		t.Fatal(err)
	}
	P := testParams().Period
	h.k.RunUntil(3 * P)
	baseline := h.mon.Estimator().Current()
	for _, job := range jobs {
		job.Start()
	}
	h.k.RunUntil(20 * P)
	congested := h.mon.Estimator().Current()
	if congested >= baseline {
		t.Errorf("estimate did not drop under congestion: %d -> %d", baseline, congested)
	}
	for _, job := range jobs {
		job.Stop()
	}
	h.k.RunUntil(35 * P)
	h.mon.Stop()
	recovered := h.mon.Estimator().Current()
	if recovered <= congested {
		t.Errorf("estimate did not recover after congestion: %d -> %d", congested, recovered)
	}
}
