package cluster

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/chaos"
	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// armChaos pre-schedules the compiled fault scenario's injections, each
// on the kernel that owns the faulted component: engine crashes,
// restarts and client-NIC degradations on that client's shard kernel;
// monitor outages, data-node NIC degradations and congestion bursts on
// shard 0 (the data node's); link storms arm windows inside the fabric
// itself. Everything is scheduled before the run starts, so the
// injection instants are part of the deterministic event order, and the
// faults' cross-shard *effects* (a recovery heartbeat WRITE, a
// reinstated token push) travel the ordinary RDMA mailbox paths with the
// usual lookahead — a chaos run needs no new synchronization.
func (c *Cluster) armChaos(start sim.Time) error {
	sc := c.chaos
	if sc == nil {
		return nil
	}
	c.runStart = start
	T := c.cfg.Params.Period
	at := func(p float64) sim.Time { return start + sim.Time(p*float64(T)) }
	for i, ev := range sc.Events {
		switch ev.Kind {
		case chaos.CrashClient:
			eng := c.clients[ev.Client].Engine
			c.clients[ev.Client].Node.Kernel().At(at(ev.At), eng.Crash)
		case chaos.RestartClient:
			eng := c.clients[ev.Client].Engine
			c.clients[ev.Client].Node.Kernel().At(at(ev.At), func() { _ = eng.Restart() })
		case chaos.MonitorOutage:
			d := sim.Time(ev.Duration * float64(T))
			c.kernel.At(at(ev.At), func() { c.Monitor().Outage(d) })
		case chaos.DegradeNIC:
			node := c.Server()
			if ev.Client >= 0 {
				node = c.clients[ev.Client].Node
			}
			st := node.NIC()
			k := node.Kernel()
			d := sim.Time(ev.Duration * float64(T))
			factor := ev.Factor
			k.At(at(ev.At), func() {
				base := st.Rate()
				_ = st.SetRate(base / factor)
				k.Schedule(d, func() { _ = st.SetRate(base) })
			})
		case chaos.LinkStorm:
			if err := c.fabric.AddLinkStorm(at(ev.At), at(ev.At+ev.Duration), ev.Extra); err != nil {
				return err
			}
		case chaos.CongestionBurst:
			for j := 0; j < ev.Jobs; j++ {
				job, err := rdma.NewBackgroundJob(c.fabric, fmt.Sprintf("chaos-%02d-%02d", i, j), c.Server(), ev.Window)
				if err != nil {
					return err
				}
				// Background initiators share the data node's shard (see New).
				job.SetSanitizer(c.sanFor(0))
				// A window open at run start is already congested when
				// the run's first event fires.
				if ev.At <= 0 {
					job.Start()
				} else {
					c.kernel.At(at(ev.At), job.Start)
				}
				c.kernel.At(at(ev.At+ev.Duration), job.Stop)
			}
		}
	}
	return nil
}

// MissWindow is one measured period in which a client completed fewer
// I/Os than its reservation. Excused windows are those the scenario
// accounts for (the client was crashed, or a whole-path disturbance —
// NIC degradation, link storm, congestion burst — overlapped the
// period); an unexcused miss violates the reservation-floor-survivor
// invariant.
type MissWindow struct {
	// Period is the absolute 1-based period number.
	Period int
	// Completed and Reservation are the period's count and the floor.
	Completed   uint64
	Reservation int64
	// Excused reports whether the scenario excuses the miss.
	Excused bool
	// end is the instant the period was harvested.
	end sim.Time
}

// ClientFaults is one client's fault and recovery accounting: its
// engine's own counters, and what the monitor and the measured periods
// saw of it.
type ClientFaults struct {
	Index int
	core.FaultStats
	// SuspectedAt/ReinstatedAt are the monitor's failure-detection
	// instants for this client (0 = never). ReclamationLatency is
	// SuspectedAt-CrashAt: how long the crashed reservation stayed
	// unreclaimed.
	SuspectedAt        sim.Time
	ReinstatedAt       sim.Time
	ReclamationLatency sim.Time
	// MissWindows lists measured periods below the reservation floor.
	MissWindows []MissWindow `json:",omitempty"`
}

// FaultReport is Results.Faults: the run's injection and recovery
// accounting. Every field is deterministic (part of the byte-identity
// surface).
type FaultReport struct {
	// Scenario is the compiled scenario in canonical grammar form;
	// ScenarioName the preset name ("custom" for inline specs).
	Scenario     string
	ScenarioName string
	// Injected tallies scheduled fault events by kind.
	Injected chaos.Counts
	// MonitorOutages/MonitorOutageTime aggregate the outage windows (one
	// still open at run end counts up to the end); Suspicions/Recoveries
	// are the monitor's failure-detection counters over the whole run.
	MonitorOutages    int
	MonitorOutageTime sim.Time
	Suspicions        uint64
	Recoveries        uint64
	// Clients is the per-client accounting, in client index order.
	Clients []ClientFaults
}

// buildFaults assembles the FaultReport after the run. Runs
// single-threaded (the group's RunUntil has returned, so no quantum is in
// flight), so reading every shard's engine state is safe.
func (c *Cluster) buildFaults() *FaultReport {
	sc := c.chaos
	fr := &FaultReport{
		Scenario:     sc.String(),
		ScenarioName: sc.Name,
		Injected:     sc.Count(),
	}
	if c.Monitor() != nil {
		n, ns := c.Monitor().OutageStats()
		fr.MonitorOutages = n
		fr.MonitorOutageTime = sim.Time(ns)
		fr.Suspicions = c.Monitor().FailureSuspicions
		fr.Recoveries = c.Monitor().FailureRecoveries
	}
	for i, rt := range c.clients {
		cf := ClientFaults{Index: i}
		if rt.Engine != nil {
			cf.FaultStats = rt.Engine.FaultStats()
			if c.Monitor() != nil {
				cf.SuspectedAt = c.Monitor().SuspectedAt(i)
				cf.ReinstatedAt = c.Monitor().ReinstatedAt(i)
				if cf.SuspectedAt > cf.CrashAt && cf.CrashAt > 0 {
					cf.ReclamationLatency = cf.SuspectedAt - cf.CrashAt
				}
			}
			cf.MissWindows = c.missWindows(rt, cf.FaultStats)
		}
		fr.Clients = append(fr.Clients, cf)
	}
	return fr
}

// missWindows scans a client's measured periods for completions below
// the reservation and classifies each miss as excused or not. A period's
// real span runs from the previous timeline entry's instant to its own,
// and its absolute number precedes that of the engine row opened as it
// closed — monitor outages pause rollovers and crashed clients skip them,
// so neither can be reconstructed from index arithmetic. Excuse checks
// compare those spans against absolute fault windows.
func (c *Cluster) missWindows(rt *Client, fs core.FaultStats) []MissWindow {
	R := rt.Spec.Reservation
	if R <= 0 {
		return nil
	}
	T := c.cfg.Params.Period
	rows := c.ledger[0].Engines[rt.Engine.ID()]
	var out []MissWindow
	for j := int(rt.measured[0]); j < int(rt.measured[1]); j++ {
		done := uint64(rt.timeline[j].V)
		if int64(done) >= R {
			continue
		}
		p, from, to := int(rows[j+1].Period)-1, rt.timeline[j-1].T, rt.timeline[j].T
		mw := MissWindow{Period: p, Completed: done, Reservation: R, end: to}
		switch {
		case rt.Spec.Demand(p) < uint64(R):
			// The client did not ask for its floor this period.
			mw.Excused = true
		case crashExcuses(fs, from, to, T):
			mw.Excused = true
		case c.chaos.ExcusesSpan(rt.Engine.ID(), from, to, c.runStart, T):
			mw.Excused = true
		}
		out = append(out, mw)
	}
	return out
}

// crashExcuses reports whether the client's own crash window overlaps
// the measured span [from, to]: from the crash instant through one full
// period past the rejoin (the rejoin period starts with no carried
// tokens), or open-ended if the engine never rejoined (its reservation
// was reclaimed for good). Tracks the most recent crash only — scenarios
// that crash one client repeatedly should space the cycles apart.
func crashExcuses(fs core.FaultStats, from, to, T sim.Time) bool {
	if fs.Crashes == 0 {
		return false
	}
	if to <= fs.CrashAt {
		return false // span ended before the crash
	}
	if fs.RejoinAt == 0 || fs.RejoinAt < fs.CrashAt {
		return true // never rejoined after the most recent crash
	}
	return from <= fs.RejoinAt+T
}

// checkChaosInvariants enforces the post-run failure-aware invariant:
// every unexcused reservation miss in Results.Faults is a
// reservation-floor-survivor violation — surviving clients keep their
// floor through monitor outages and peer crashes, because reservation
// tokens are pushed ahead of each period and the one-sided data path
// never needs the monitor mid-period. Runs single-threaded after the
// run; reports to shard 0's checker.
func (c *Cluster) checkChaosInvariants(res *Results) {
	if res.Faults == nil || c.san == nil {
		return
	}
	san := c.san[0]
	for _, cf := range res.Faults.Clients {
		for _, mw := range cf.MissWindows {
			if mw.Excused {
				continue
			}
			san.Reportf("reservation-floor-survivor", int64(mw.end),
				"client %d period %d: completed %d < reservation %d with no excusing fault window",
				cf.Index, mw.Period, mw.Completed, mw.Reservation)
		}
	}
}
