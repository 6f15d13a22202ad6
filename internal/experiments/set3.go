package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/parallel"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/workload"
)

// spikeReservations builds Set 3's reservation distribution: 3 clients at
// 285K, 7 at 80K (scaled), ~90% of capacity.
func (o Options) spikeReservations() ([]int64, error) {
	high := o.Clients * 3 / 10
	if high == 0 {
		high = 1
	}
	parts, err := workload.SpikeSplit(o.Clients, high,
		uint64(285_000/o.Base.Scale), uint64(80_000/o.Base.Scale))
	if err != nil {
		return nil, err
	}
	return toInt64(parts), nil
}

// Fig13to15 reproduces Experiment Set 3: Spike reservations under the
// burst and constant-rate request patterns — per-client completions
// (Fig. 13), data-node throughput (Fig. 14), and read latency (Fig. 15).
func Fig13to15(o Options) (*Report, error) {
	if _, err := o.validate(); err != nil {
		return nil, err
	}
	res, err := o.spikeReservations()
	if err != nil {
		return nil, err
	}
	demand := o.demandRPlusShare(res)

	type outcome struct {
		name string
		res  *cluster.Results
	}
	patterns := []struct {
		name    string
		pattern workload.Pattern
	}{
		{"burst", workload.Burst{}},
		{"constant-rate", workload.ConstantRate{}},
	}
	outcomes, err := parallel.Map(o.workers(), len(patterns), func(pi int) (outcome, error) {
		pc := patterns[pi]
		specs := o.qosSpecs(res, demand)
		for i := range specs {
			specs[i].Pattern = pc.pattern
		}
		out, err := o.runQoS(cluster.Haechi, specs, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{pc.name, out}, nil
	})
	if err != nil {
		return nil, err
	}

	t13 := &Table{
		Title:  "Fig. 13 — completed I/Os per client (spike reservations)",
		Header: []string{"client", "reservation", "burst", "constant-rate", "burst meets R", "const meets R"},
	}
	for i := range res {
		t13.AddRow(fmt.Sprintf("C%d", i+1),
			count(float64(res[i]), o.Base.Scale),
			count(outcomes[0].res.Clients[i].MeanPeriod, o.Base.Scale),
			count(outcomes[1].res.Clients[i].MeanPeriod, o.Base.Scale),
			meets(outcomes[0].res.Clients[i].MinPeriod, res[i]),
			meets(outcomes[1].res.Clients[i].MinPeriod, res[i]))
	}

	capacity := float64(o.capacityPerPeriod())
	t14 := &Table{
		Title:  "Fig. 14 — data node throughput",
		Header: []string{"pattern", "throughput/period", "drop vs capacity"},
	}
	for _, oc := range outcomes {
		t14.AddRow(oc.name, count(oc.res.ThroughputPerPeriod, o.Base.Scale),
			fmt.Sprintf("%.1f%%", 100*(1-oc.res.ThroughputPerPeriod/capacity)))
	}

	t15 := &Table{
		Title:  "Fig. 15 — read request latency",
		Header: []string{"pattern", "average", "p99", "p99.9"},
	}
	for _, oc := range outcomes {
		lat := oc.res.AggregateLatency
		t15.AddRow(oc.name, scaledLatency(lat.Mean, o.Base.Scale), scaledLatency(lat.P99, o.Base.Scale), scaledLatency(lat.P999, o.Base.Scale))
	}

	return &Report{
		ID:      "fig13",
		Caption: "Burst vs constant-rate requests with Spike reservations (Figs. 13-15)",
		Tables:  []*Table{t13, t14, t15},
		Notes: []string{
			"expected: with burst requests the high-reservation clients C1-C3 miss their reservation",
			"(local capacity C_L limits late-period catch-up) and throughput drops ~13%;",
			"constant-rate meets and surpasses every reservation with ~1% drop and far lower latency",
		},
		Runs: []*cluster.Results{outcomes[0].res, outcomes[1].res},
	}, nil
}

// scaledLatency converts simulated latency to full-scale-equivalent units
// (a scaled run's service times are Scale x longer, so latencies divide
// back by Scale for paper-comparable values).
func scaledLatency(v sim.Time, scale float64) string {
	return sim.Time(float64(v) / scale).String()
}
