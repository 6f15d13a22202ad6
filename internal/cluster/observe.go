package cluster

import (
	"fmt"
	"strings"

	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// Observe configures the observability layer for a cluster run: per-I/O
// flight-recorder spans and a pull-based metrics registry, both stamped
// and sampled from the simulation clock. Recording is passive — it
// never schedules kernel events of its own — so enabling it does not
// change the simulated outcome (cluster.TestDeterminismByteIdentical
// runs with it on).
type Observe struct {
	// FlightSpans is the span ring capacity: the most recent finished
	// spans are retained for Chrome-trace export, while the per-stage
	// latency histograms cover every span regardless of eviction.
	// 0 disables span recording.
	FlightSpans int
	// MetricsInterval is the registry sampling cadence in virtual time.
	// 0 disables the registry.
	MetricsInterval sim.Time
}

// DefaultMetricsInterval returns a sampling cadence of 1/100th of the
// QoS period — fine enough to see within-period dynamics, coarse
// enough to keep exports small.
func DefaultMetricsInterval(period sim.Time) sim.Time {
	iv := period / 100
	if iv <= 0 {
		iv = 1
	}
	return iv
}

// setupObserve attaches the flight recorders and metrics registries per
// the config — one of each per shard, so every recorder stays
// single-writer. Called at the end of New, once all
// nodes, engines and generators exist.
func (c *Cluster) setupObserve() error {
	ob := c.cfg.Observe
	if ob == nil {
		return nil
	}
	if ob.FlightSpans > 0 {
		frs := make([]*trace.FlightRecorder, len(c.kernels))
		for s := range frs {
			fr, err := trace.NewShardFlightRecorder(ob.FlightSpans, s)
			if err != nil {
				return err
			}
			frs[s] = fr
		}
		if err := c.fabric.SetFlightRecorders(frs); err != nil {
			return err
		}
		c.flights = frs
	}
	if ob.MetricsInterval > 0 {
		c.registries = make([]*metrics.Registry, len(c.kernels))
		for s := range c.registries {
			c.registries[s] = metrics.NewRegistry()
		}
		if err := c.registerMetrics(); err != nil {
			return err
		}
	}
	return nil
}

// registerMetrics registers the standing gauges: kernel health, every
// node's NIC (and the server's CPU), monitor state, per-engine token
// state, per-client KV and workload progress, and the flight recorder's
// retention counters. Every gauge is registered on its owner's shard
// registry — the gauge reads state only that shard's kernel writes, and
// only that shard's ticker samples it — so sampling is single-writer
// and single-reader per shard. Registration order
// is fixed by construction order, so exports are deterministic; the
// merged registry presents per-shard columns plus summed totals for
// names that exist on several shards (metrics.MergeSharded).
func (c *Cluster) registerMetrics() error {
	// Kernel-health gauges: one set per shard, each sampled from its own
	// kernel. The merged export keeps the historical cross-shard sums
	// under the plain names and adds shard<K>/sim/* columns so shard
	// imbalance is visible directly in the CSV.
	for s, k := range c.kernels {
		reg := c.registries[s]
		if err := reg.Register("sim/pending-events", func() float64 { return float64(k.Pending()) }); err != nil {
			return err
		}
		if err := reg.Register("sim/executed-events", func() float64 { return float64(k.Executed()) }); err != nil {
			return err
		}
		if err := reg.Register("sim/cancelled-timers", func() float64 { return float64(k.Cancelled()) }); err != nil {
			return err
		}
	}
	for _, n := range c.fabric.Nodes() {
		reg := c.registries[n.Shard()]
		nic := n.NIC()
		if err := reg.Register(n.Name()+"/nic/served", func() float64 { return float64(nic.Served()) }); err != nil {
			return err
		}
		if err := reg.Register(n.Name()+"/nic/queue-delay-ns", func() float64 { return float64(nic.QueueDelay()) }); err != nil {
			return err
		}
		if cpu := n.CPU(); cpu != nil {
			if err := reg.Register(n.Name()+"/cpu/served", func() float64 { return float64(cpu.Served()) }); err != nil {
				return err
			}
		}
	}
	for s, dn := range c.nodes {
		if dn.monitor == nil {
			break
		}
		reg := c.registries[0] // monitors live on the data nodes' shard
		mon, name := dn.monitor, nth("monitor", s)
		if err := reg.Register(name+"/omega", func() float64 { return float64(mon.Estimator().Current()) }); err != nil {
			return err
		}
		if err := reg.Register(name+"/conversions", func() float64 { return float64(mon.ConversionCount) }); err != nil {
			return err
		}
	}
	for _, rt := range c.clients {
		rt := rt
		reg := c.registries[rt.Node.Shard()]
		name := rt.Node.Name()
		var err error
		register := func(gauge string, fn func() float64) {
			if err == nil {
				err = reg.Register(name+"/"+gauge, fn)
			}
		}
		for s := range c.nodes {
			kv, engine := rt.link(s)
			if engine != nil {
				e := nth("engine", s)
				register(e+"/pending", func() float64 { return float64(engine.Pending()) })
				register(e+"/res-tokens", func() float64 { return float64(engine.ReservationTokens()) })
				register(e+"/local-global-tokens", func() float64 { return float64(engine.LocalGlobalTokens()) })
			}
			register(nth("kv", s)+"/one-sided-gets", func() float64 { return float64(kv.OneSidedGets()) })
			register(nth("kv", s)+"/probe-reads", func() float64 { return float64(kv.ProbeReads()) })
		}
		register("workload/inflight", func() float64 { return float64(rt.Gen.Issued() - rt.Gen.Completed()) })
		if err != nil {
			return err
		}
	}
	for s, fr := range c.flights {
		reg := c.registries[s]
		if err := reg.Register("trace/spans-finished", func() float64 { return float64(fr.Finished()) }); err != nil {
			return err
		}
		if err := reg.Register("trace/spans-dropped", func() float64 { return float64(fr.Dropped()) }); err != nil {
			return err
		}
	}
	return nil
}

// StageLatency is one tenant's latency summary for one pipeline stage,
// the rows of the per-stage breakdown table.
type StageLatency struct {
	Client  string
	Stage   string
	Summary metrics.Summary
}

// stageRows flattens the flight recorder's per-tenant histograms into
// deterministic rows: tenants sorted by name, stages in pipeline order.
func stageRows(fr *trace.FlightRecorder) []StageLatency {
	var out []StageLatency
	for _, st := range fr.Stages() {
		hs := st.Histograms()
		for i, name := range trace.StageNames {
			out = append(out, StageLatency{Client: st.Actor, Stage: name, Summary: hs[i].Summarize()})
		}
	}
	return out
}

// StageBreakdown renders the per-stage latency table: one row per
// tenant, one mean/p99 cell per pipeline stage. Durations are converted
// back to full-scale equivalents (scaled runs inflate virtual time by
// Scale). Returns "" when span recording was off or captured nothing.
func (r *Results) StageBreakdown() string {
	if len(r.Stages) == 0 {
		return ""
	}
	scale := r.Scale
	if scale <= 0 {
		scale = 1
	}
	cell := func(s metrics.Summary) string {
		if s.Count == 0 {
			return "-"
		}
		mean := sim.Time(float64(s.Mean) / scale)
		p99 := sim.Time(float64(s.P99) / scale)
		return fmt.Sprintf("%v/%v", mean, p99)
	}
	cols := len(trace.StageNames) + 1
	header := append([]string{"client"}, trace.StageNames[:]...)
	rows := [][]string{header}
	row := make([]string, 0, cols)
	for _, sl := range r.Stages {
		if len(row) == 0 {
			row = append(row, sl.Client)
		}
		row = append(row, cell(sl.Summary))
		if len(row) == cols {
			rows = append(rows, row)
			row = make([]string, 0, cols)
		}
	}
	widths := make([]int, cols)
	for _, rw := range rows {
		for i, c := range rw {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString("per-stage latency (mean/p99, full-scale equivalent):\n")
	for _, rw := range rows {
		for i, c := range rw {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
