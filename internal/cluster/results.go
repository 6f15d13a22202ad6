package cluster

import (
	"errors"
	"fmt"
	"strings"

	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// ClientResult is one tenant's measured outcome.
type ClientResult struct {
	Index       int
	Reservation int64
	// Split is the reservation's per-data-node slices at run end (after
	// any rebalancing); absent with one data node.
	Split []int64 `json:",omitempty"`
	// Periods are completions in each measured period.
	Periods []uint64
	// Total is the sum over the measured periods.
	Total uint64
	// MinPeriod and MeanPeriod summarize the per-period counts.
	MinPeriod  uint64
	MeanPeriod float64
	// MetReservation reports whether every measured period reached R_i.
	MetReservation bool
	// Latency summarizes request latency (submission to completion,
	// including token-wait queueing) over the measure window.
	Latency metrics.Summary
	// Timeline is the full per-period completion series from t=0,
	// including warm-up and transition periods (Figs. 16-19).
	Timeline metrics.Series
}

// OverheadReport is Haechi's token-management cost at the data nodes (the
// paper's "negligible overhead" claim): what the fabric counted landing on
// their QoS regions over the window ServerStats covers, from the warm-up's
// end to the end of the run.
type OverheadReport struct {
	// FAAs counts atomics on the QoS region: claims, probes, yield
	// returns and monitor checks.
	FAAs uint64
	// ControlWrites counts WRITEs to the QoS region: client reports and
	// monitor pool writes.
	ControlWrites uint64
	// ControlSends counts the data nodes' SENDs: token pushes and
	// signals.
	ControlSends uint64
	// DataReads counts every other one-sided verb the data nodes served
	// (ServerStats.OneSidedTargeted − FAAs − ControlWrites): the data path,
	// READs and record WRITEs alike.
	DataReads uint64
	// NICFraction is the share of the data nodes' NIC capacity over the
	// window spent serving the control verbs above.
	NICFraction float64
}

// Results aggregates one run.
type Results struct {
	Mode            Mode
	MeasuredPeriods int
	Clients         []ClientResult
	// TotalCompleted sums completions over clients and measured periods.
	TotalCompleted uint64
	// ThroughputPerPeriod is TotalCompleted / MeasuredPeriods.
	ThroughputPerPeriod float64
	// AggregateLatency merges all clients' latency histograms.
	AggregateLatency metrics.Summary
	// OmegaTimeline and UsageTimeline are the (first data node's)
	// monitor's per-period estimated capacity and reported usage (QoS
	// modes only).
	OmegaTimeline metrics.Series
	UsageTimeline metrics.Series
	// ServerStats is the data nodes' summed verb-counter delta over the
	// window.
	ServerStats rdma.Stats
	// Overhead quantifies QoS control cost, summed over the data nodes.
	Overhead OverheadReport
	// Scale echoes the config's scale factor, so latency renderings can
	// convert back to full-scale equivalents.
	Scale float64
	// EventsExecuted is the simulation's total fired-event count at the
	// end of the run, summed over the shard kernels. It is
	// fully deterministic (part of the byte-identity surface); dividing
	// it by wall-clock time gives the kernel's events-per-second figure
	// cmd/haechibench reports.
	EventsExecuted uint64
	// Faults is the fault-injection and recovery accounting; nil unless
	// Config.Chaos armed a scenario. Deterministic (part of the
	// byte-identity surface).
	Faults *FaultReport `json:",omitempty"`
	// Sharding summarizes the shard coordination; nil for one shard
	// (nothing to coordinate). Deterministic.
	Sharding *ShardingReport `json:",omitempty"`
	// Stages is the per-tenant per-stage latency breakdown from the
	// flight recorder; nil unless Config.Observe enabled span recording.
	// The rows come from the merged per-shard recorders (histograms
	// merged per actor, deterministically).
	Stages []StageLatency `json:",omitempty"`
	// Metrics is the sampled registry; nil unless enabled. It marshals
	// deterministically (registration order). With several shards it is
	// the merged per-shard registry: summed totals under the plain
	// names plus shard<K>/ columns for per-shard gauges.
	Metrics *metrics.Registry `json:",omitempty"`
	// Flight is the span recorder for trace export (merged across
	// shards). Excluded from JSON: the ring is bounded
	// (eviction order is deterministic but the retained window is an
	// export concern, not a result).
	Flight *trace.FlightRecorder `json:"-"`
	// Attribution is the fabric's executed-work profile summed over
	// shards: per-verb-kind and per-pipeline-stage execution counts.
	// Always present and always deterministic — the counters ride the
	// event sequence itself, so they are identical with observability
	// on or off. Per-shard profiles appear in
	// Sharding.Attribution.
	Attribution rdma.ExecProfile
	// Ledger is the run's token ledger (nil in Bare mode), kept out of the
	// JSON the goldens and digests pin.
	Ledger Ledger `json:"-"`
}

// Ledger is a run's per-period token accounting, one NodeLedger per data
// node; Run checks its laws after every run.
type Ledger []NodeLedger

// NodeLedger holds a data node's monitor rows and, by client index, the
// rows of the engine each tenant holds there: each list runs from period
// 1 to the row open when the run stopped.
type NodeLedger struct {
	Monitor []core.MonitorRow
	Engines [][]core.LedgerRow
}

// check applies the token laws, nil when all hold: each row's Check
// (reclamation-conservation, token-conservation) and pool-bank, a data
// node's pool as a bank account. Over periods 1..p its engines claim at
// most the pools seeded plus the tokens returned, plus overdraft (a claim
// in flight per engine when a pool write lands). The law is cumulative:
// until push p+1 reaches an engine, it records in row p what it claims
// from pool p+1. Only a node's first breach is reported, and a clean
// ledger costs no allocation.
func (l Ledger) check(overdraft int64) error {
	var errs []error
	for s, n := range l {
		var claimed, funded int64
		bank := true
		for _, m := range n.Monitor {
			if err := m.Check(); err != nil {
				errs = append(errs, fmt.Errorf("reclamation-conservation: data node %d %w", s, err))
			}
			funded += m.Pool
			for _, rows := range n.Engines {
				r := rowAt(rows, m.Period)
				claimed += int64(r.Claimed)
				funded += int64(r.Returned)
			}
			if bank && claimed > funded+overdraft {
				bank = false
				errs = append(errs, fmt.Errorf("pool-bank: data node %d periods 1-%d: claimed %d > pools and returns %d + overdraft %d",
					s, m.Period, claimed, funded, overdraft))
			}
		}
		for i, rows := range n.Engines {
			for _, r := range rows {
				if err := r.Check(); err != nil {
					errs = append(errs, fmt.Errorf("token-conservation: engine-%d at data node %d %w", i, s, err))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// rowAt returns the row of period p among an engine's rows, or a zero row
// when a crash kept the engine out of p. Periods rise along the rows from
// 0 or 1, so that row is at index p or below.
func rowAt(rows []core.LedgerRow, p int32) core.LedgerRow {
	for j := min(int(p), len(rows)-1); j >= 0; j-- {
		if rows[j].Period == p {
			return rows[j]
		}
	}
	return core.LedgerRow{}
}

// buildResults assembles the run's Results; serverStats and qos are the
// data nodes' counts over window, the span from warm-up's end to the end
// of the run.
func (c *Cluster) buildResults(measurePeriods int, serverStats rdma.Stats, qos rdma.Landed, window sim.Time) (*Results, error) {
	res := &Results{
		Mode:            c.cfg.Mode,
		MeasuredPeriods: measurePeriods,
		ServerStats:     serverStats,
		Scale:           c.cfg.Scale,
		EventsExecuted:  c.group.Executed(),
	}
	if len(c.kernels) > 1 {
		res.Sharding = c.shardingReport()
	}
	if c.ledger != nil {
		// Close the books: each list gains the row open at run end.
		for s, dn := range c.nodes {
			n := &c.ledger[s]
			n.Monitor = dn.monitor.Ledger()
			for _, rt := range c.clients {
				_, eng := rt.link(s)
				n.Engines[eng.ID()] = append(n.Engines[eng.ID()], eng.Row())
			}
		}
		res.Ledger = c.ledger
	}
	if c.chaos != nil {
		res.Faults = c.buildFaults()
	}
	for _, p := range c.fabric.ExecProfiles() {
		p := p
		res.Attribution.Add(&p)
	}
	if c.flights != nil {
		// Merge the per-shard recorders in shard order: the span ring in
		// (End, shard) order, the stage histograms per actor. Identity for
		// one shard.
		fr := trace.MergeFlightRecorders(c.flights...)
		res.Flight = fr
		res.Stages = stageRows(fr)
	}
	if c.registries != nil {
		m, err := metrics.MergeSharded(c.registries)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	}
	res.Clients = make([]ClientResult, 0, len(c.clients))
	var agg metrics.Histogram
	for i, rt := range c.clients {
		cr := ClientResult{
			Index:       i,
			Reservation: rt.Spec.Reservation,
			Latency:     rt.Gen.Latency.Summarize(),
			Timeline:    metrics.Series{Name: rt.Node.Name()},
		}
		if len(rt.timeline) > 0 { // an empty timeline marshals as null
			cr.Timeline.Points = rt.timeline
		}
		if measured := rt.measuredPeriods(); len(measured) > 0 {
			cr.Periods = make([]uint64, len(measured))
			cr.MinPeriod = uint64(measured[0].V)
			for j, p := range measured {
				cr.Periods[j] = uint64(p.V)
				cr.Total += cr.Periods[j]
				cr.MinPeriod = min(cr.MinPeriod, cr.Periods[j])
			}
			cr.MeanPeriod = float64(cr.Total) / float64(len(measured))
		}
		cr.MetReservation = len(cr.Periods) > 0 && int64(cr.MinPeriod) >= rt.Spec.Reservation
		if rt.links != nil && rt.Engine != nil {
			for s, dn := range c.nodes {
				_, engine := rt.link(s)
				cr.Split = append(cr.Split, dn.monitor.Reservation(engine.ID()))
			}
		}
		agg.Merge(&rt.Gen.Latency)
		res.TotalCompleted += cr.Total
		res.Clients = append(res.Clients, cr)
	}
	res.ThroughputPerPeriod = float64(res.TotalCompleted) / float64(measurePeriods)
	res.AggregateLatency = agg.Summarize()
	if mon := c.Monitor(); mon != nil {
		res.OmegaTimeline.Name, res.UsageTimeline.Name = "omega", "usage"
		rows := mon.Ledger()
		for _, r := range rows[:max(len(rows)-1, 0)] { // the closed periods
			res.OmegaTimeline.Points = append(res.OmegaTimeline.Points, metrics.Point{T: r.End, V: float64(r.Omega)})
			res.UsageTimeline.Points = append(res.UsageTimeline.Points, metrics.Point{T: r.End, V: float64(r.Usage)})
		}
		o := OverheadReport{
			FAAs:          qos.Atomics,
			ControlWrites: qos.Writes,
			ControlSends:  serverStats.SendsSent,
		}
		o.DataReads = serverStats.OneSidedTargeted - o.FAAs - o.ControlWrites
		f := c.cfg.Fabric
		weighted := float64(o.FAAs)*rdma.AtomicWeight +
			float64(o.ControlWrites)*rdma.MinVerbWeight +
			float64(o.ControlSends)*rdma.SendRequestWeight
		o.NICFraction = weighted / (f.ServerOneSidedRate * window.Seconds() * float64(len(c.nodes)))
		res.Overhead = o
	}
	return res, nil
}

// measuredPeriods returns the timeline entries of the measure window.
func (rt *Client) measuredPeriods() []metrics.Point {
	from, to := int(rt.measured[0]), int(rt.measured[1])
	return rt.timeline[min(from, to):to]
}

// String renders a per-client table in the shape of the paper's bar
// charts: reservation, completions, attainment.
func (r *Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s periods=%d total=%d throughput=%.0f/period\n",
		r.Mode, r.MeasuredPeriods, r.TotalCompleted, r.ThroughputPerPeriod)
	for _, cr := range r.Clients {
		met := " "
		if cr.Reservation > 0 {
			if cr.MetReservation {
				met = "met"
			} else {
				met = "MISS"
			}
		}
		fmt.Fprintf(&b, "  C%-2d R=%-9d total=%-10d min/period=%-9d mean/period=%-10.0f %s\n",
			cr.Index+1, cr.Reservation, cr.Total, cr.MinPeriod, cr.MeanPeriod, met)
	}
	if r.Overhead.FAAs > 0 || r.Overhead.ControlWrites > 0 {
		fmt.Fprintf(&b, "  overhead: faa=%d ctrlWrites=%d ctrlSends=%d nicFraction=%.4f%%\n",
			r.Overhead.FAAs, r.Overhead.ControlWrites, r.Overhead.ControlSends, 100*r.Overhead.NICFraction)
	}
	return b.String()
}
