package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/chaos"
	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/parallel"
	"github.com/haechi-qos/haechi/internal/sim"
)

// set5Periods returns the measure-window length for the fault-injection
// experiment: the acceptance scenario's last fault window closes at 11.75
// periods, so the window is at least 13 periods (one settling period
// past the final degradation).
func (o Options) set5Periods() int {
	if o.MeasurePeriods < 13 {
		return 13
	}
	return o.MeasurePeriods
}

// shiftScenario re-times a scenario so its event clocks start at the
// measure window rather than run start: every preset is authored
// assuming period 0 is the first measured period, while cluster chaos
// times count from run start (warm-up included).
func (o Options) shiftScenario(spec string) (string, error) {
	sc, err := chaos.Parse(spec)
	if err != nil {
		return "", err
	}
	shifted := &chaos.Scenario{Name: sc.Name, Events: make([]chaos.FaultEvent, len(sc.Events))}
	for i, ev := range sc.Events {
		ev.At += float64(o.WarmupPeriods)
		shifted.Events[i] = ev
	}
	return shifted.String(), nil
}

// chaosRun runs full Haechi under a fault scenario, which turns the
// sanitizer on: the run fails loudly unless every failure-aware invariant —
// crash quarantine conservation, no completions after crash, rejoin
// monotonicity, reclamation conservation, and the reservation floor for
// surviving clients — holds throughout.
func (o Options) chaosRun(scenario string) (*cluster.Results, error) {
	res, err := o.reservations("uniform", 0.8)
	if err != nil {
		return nil, err
	}
	specs := o.qosSpecs(res, o.demandRPlusPool(res))
	cfg := o.config(cluster.Haechi)
	shifted, err := o.shiftScenario(scenario)
	if err != nil {
		return nil, err
	}
	cfg.Chaos = shifted
	cl, err := cluster.New(cfg, specs)
	if err != nil {
		return nil, err
	}
	return cl.Run(o.WarmupPeriods, o.set5Periods())
}

// faultTable renders the per-client fault and recovery accounting of a
// chaos run.
func (o Options) faultTable(title string, out *cluster.Results) *Table {
	t := &Table{
		Title: title,
		Header: []string{"client", "R", "crashes", "reclaimed after", "rejoin period",
			"degraded spells", "degraded time", "probes", "misses (excused)"},
	}
	for _, cf := range out.Faults.Clients {
		reclaim, rejoin := "-", "-"
		if cf.ReclamationLatency > 0 {
			reclaim = cf.ReclamationLatency.String()
		}
		if cf.RejoinPeriod > 0 {
			rejoin = fmt.Sprintf("%d", cf.RejoinPeriod)
		}
		excused := 0
		for _, mw := range cf.MissWindows {
			if mw.Excused {
				excused++
			}
		}
		t.AddRow(
			fmt.Sprintf("C%d", cf.Index+1),
			count(float64(out.Clients[cf.Index].Reservation), o.Base.Scale),
			fmt.Sprintf("%d", cf.Crashes),
			reclaim,
			rejoin,
			fmt.Sprintf("%d", cf.DegradedSpells),
			cf.DegradedTime.String(),
			fmt.Sprintf("%d", cf.DegradedProbes),
			fmt.Sprintf("%d (%d)", len(cf.MissWindows), excused),
		)
	}
	return t
}

// survivorMeans is phaseMeans excluding one (crashed) client: the mean
// per-period throughput of the surviving tenants before and after the
// switch instant.
func survivorMeans(out *cluster.Results, crashed int, switchAt sim.Time) (before, after float64) {
	totals := make(map[int]float64)
	var times []sim.Time
	first := -1
	for ci, cr := range out.Clients {
		if ci == crashed {
			continue
		}
		if first < 0 {
			first = ci
		}
		for i, p := range cr.Timeline.Points {
			totals[i] += p.V
			if ci == first {
				times = append(times, p.T)
			}
		}
	}
	var sumB, sumA float64
	var nB, nA int
	for i, tt := range times {
		if tt <= switchAt {
			sumB += totals[i]
			nB++
		} else {
			sumA += totals[i]
			nA++
		}
	}
	if nB > 0 {
		before = sumB / float64(nB)
	}
	if nA > 0 {
		after = sumA / float64(nA)
	}
	return before, after
}

// Set5 runs the fault-injection experiments: deterministic chaos
// scenarios against full Haechi with the failure-aware sanitizer on.
// Three runs: the acceptance scenario (client crash and recovery, a
// monitor outage, data-node NIC degradation in one run), a
// crash-without-restart run isolating reservation reclamation, and a
// wire-disturbance run (link storm plus congestion burst) proving the
// floor holds through fabric-level chaos.
func Set5(o Options) (*Report, error) {
	base, err := o.validate()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "set5",
		Caption: "Set 5: fault injection and recovery — crash/restart, monitor outage, NIC degradation (chaos layer)",
	}
	scenarios := []struct{ label, spec string }{
		{"acceptance (set5 preset: crash+restart, outage, degrade)", "set5"},
		{"reclamation (crash, never restarts)", "crash@2.25:c=0"},
		{"wire disturbance (link storm + congestion burst)", "jitter@3+2:extra=2us;burst@3+2:jobs=2,window=32"},
	}
	points, err := parallel.Map(o.workers(), len(scenarios), func(i int) (*cluster.Results, error) {
		return o.chaosRun(scenarios[i].spec)
	})
	if err != nil {
		return nil, err
	}
	rep.Runs = points
	T := base.Params.Period
	for i, sc := range scenarios {
		out := points[i]
		fr := out.Faults
		rep.Tables = append(rep.Tables, o.faultTable(fmt.Sprintf("(%s)", sc.label), out))
		note := fmt.Sprintf("%s: scenario %q", sc.label, fr.Scenario)
		if fr.MonitorOutages > 0 {
			note += fmt.Sprintf("; %d monitor outage(s) totaling %v", fr.MonitorOutages, fr.MonitorOutageTime)
		}
		if fr.Suspicions > 0 {
			note += fmt.Sprintf("; %d suspicion(s), %d reinstatement(s)", fr.Suspicions, fr.Recoveries)
		}
		rep.Notes = append(rep.Notes, note)
	}

	// The reclamation run: survivors absorb the crashed client's
	// reservation, so their combined throughput (total capacity minus the
	// crashed tenant's share) steps up once the failure detector reclaims
	// it — the aggregate alone would hide this, the run is capacity-bound.
	crashAt := sim.Time(float64(o.WarmupPeriods)+2.25) * T
	before, after := survivorMeans(points[1], 0, crashAt)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"reclamation: surviving clients' throughput %s -> %s after the crash (reclaimed reservation redistributed)",
		count(before, o.Base.Scale), count(after, o.Base.Scale)))
	rep.Notes = append(rep.Notes,
		"every run is sanitized: crash quarantine conservation, no completions after crash, rejoin",
		"monotonicity, reclamation conservation and the surviving-client reservation floor held throughout")
	return rep, nil
}
