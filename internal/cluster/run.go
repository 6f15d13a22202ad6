package cluster

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// Run executes the experiment: warmupPeriods QoS periods of warm-up
// (discarded, like the paper's first 30 s), then measurePeriods periods
// whose per-client completions, latencies and throughput are recorded.
// Run is one-shot: it consumes the cluster, and a second call is an error.
//
// This is the only copy of the warm-up/measure/teardown protocol. Every
// per-client action (period boundaries, harvesting, measure-window flags,
// metrics sampling) is scheduled on that client's own shard kernel, so a
// quantum never writes state owned by another shard; the data-node-side
// pieces (monitor, server-stat snapshot, background jobs) live on shard 0.
// With one shard that is simply everything on c.kernel, run as a single
// quantum.
func (c *Cluster) Run(warmupPeriods, measurePeriods int) (*Results, error) {
	if warmupPeriods < 0 || measurePeriods <= 0 {
		return nil, fmt.Errorf("cluster: need warmupPeriods >= 0 and measurePeriods > 0, got %d/%d",
			warmupPeriods, measurePeriods)
	}
	if c.ran {
		return nil, fmt.Errorf("cluster: Run is one-shot and this cluster has already run")
	}
	c.ran = true
	defer c.group.Close()

	T := c.cfg.Params.Period
	start := c.kernel.Now()
	if err := c.armChaos(start); err != nil {
		return nil, err
	}

	var tickers []*sim.Ticker
	if c.cfg.Mode == Bare {
		// One period ticker per shard, driving only that shard's clients.
		// All shards tick at the same virtual instants, so the per-shard
		// period counters advance in lockstep.
		for s, list := range c.byShard {
			if len(list) == 0 {
				continue
			}
			period := 0
			tick, err := c.kernels[s].Every(0, T, func() {
				period++
				for _, rt := range list {
					c.harvest(rt, period)
					rt.Gen.BeginPeriod(rt.Spec.Demand(period))
				}
			})
			if err != nil {
				return nil, err
			}
			tickers = append(tickers, tick)
		}
	} else {
		for _, dn := range c.nodes {
			if err := dn.monitor.Start(); err != nil {
				return nil, err
			}
		}
		if err := c.armRebalancer(); err != nil {
			return nil, err
		}
	}

	warmEnd := start + sim.Time(warmupPeriods)*T
	measureEnd := warmEnd + sim.Time(measurePeriods)*T
	end := measureEnd + 3*T/4

	// One metrics ticker per shard, sampling only that shard's registry
	// from that shard's kernel: every gauge is registered on its owner's
	// shard (see registerMetrics), so sampling reads no cross-shard state
	// and the workers stay unconstrained. All shards tick at the same
	// virtual instants and run to the same horizon, so the per-shard
	// sample timelines coincide and merge cleanly. A ticker fires at
	// start and every interval up to end inclusive, so each registry
	// reserves exactly that many samples.
	if c.registries != nil {
		c.sampleSlots = int((end-start)/c.cfg.Observe.MetricsInterval) + 1
	}
	for s, reg := range c.registries {
		k := c.kernels[s]
		reg.Grow(c.sampleSlots)
		tick, err := k.Every(0, c.cfg.Observe.MetricsInterval, func() {
			reg.Sample(k.Now())
		})
		if err != nil {
			return nil, err
		}
		tickers = append(tickers, tick)
	}
	var warm struct { // the server counters at warm-end
		stats rdma.Stats
		qos   rdma.Landed
	}
	for s, list := range c.byShard {
		// Shard 0 always gets a warm-end event, clients or not: it owns
		// the data node, so that event also snapshots the server counters.
		if s == 0 || len(list) > 0 {
			c.kernels[s].At(warmEnd, func() {
				if s == 0 {
					warm.stats, warm.qos = c.serverStats()
				}
				for _, rt := range list {
					rt.Gen.Latency.Reset()
					rt.measuring = true
					// The next harvest closes the final warm-up period; skip it.
					rt.skipNext = true
				}
			})
		}
		if len(list) > 0 {
			// Harvests for period p happen just after the p+1 boundary; stop
			// measuring mid-period so exactly measurePeriods are recorded.
			c.kernels[s].At(measureEnd+T/2, func() {
				for _, rt := range list {
					rt.measuring = false
				}
			})
		}
	}

	c.group.RunUntil(end)
	serverStats, qos := c.serverStats()
	serverStats, qos = serverStats.Sub(warm.stats), qos.Sub(warm.qos)

	for _, tick := range tickers {
		tick.Stop()
	}
	for _, dn := range c.nodes {
		if dn.monitor != nil {
			dn.monitor.Stop()
		}
	}
	for _, rt := range c.clients {
		rt.Gen.Stop()
		for s := range c.nodes {
			if _, engine := rt.link(s); engine != nil {
				engine.Stop()
			}
		}
	}
	res, err := c.buildResults(measurePeriods, serverStats, qos, end-warmEnd)
	if err != nil {
		return nil, err
	}
	c.checkChaosInvariants(res)
	c.checkReservationSplit()
	// A sanitized run that broke an invariant fails loudly; the results
	// are returned alongside so diagnostics can still inspect them.
	return res, c.sanErr()
}

// serverStats sums the data nodes' verb counters and what landed on
// their QoS regions (nothing in Bare mode, which has none).
func (c *Cluster) serverStats() (sum rdma.Stats, qos rdma.Landed) {
	for _, dn := range c.nodes {
		sum = sum.Add(dn.node.Stats())
		if dn.monitor != nil {
			qos = qos.Add(dn.monitor.QoSRegion().Landed())
		}
	}
	return sum, qos
}
