package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/sim"
)

// Ablation sweeps the protocol's design constants one at a time on a
// fixed workload (Zipf reservations at 90%, C1/C2 with insufficient
// demand — the scenario that exercises claims, yields, conversion and
// reporting together) and reports throughput, reservation attainment and
// token-management overhead. This is not a paper artifact; it quantifies
// the design choices DESIGN.md calls out:
//
//   - B, the FAA batch size (the paper picks 1000 to amortize atomics);
//   - the monitor check / client report interval (1 ms in the paper);
//   - the engine's RNIC send-queue depth (64 outstanding in the paper);
//   - the fabric's per-QP flow-control window.
func Ablation(o Options) (*Plan, error) {
	res, err := o.reservations("zipf", 0.9)
	if err != nil {
		return nil, err
	}
	full := o.demandRPlusPool(res)
	demand := func(i int) uint64 {
		if i < 2 {
			return uint64(res[i]) / 2
		}
		return full(i)
	}
	spikeRes, err := o.spikeReservations()
	if err != nil {
		return nil, err
	}
	spikeDemand := o.demandRPlusShare(spikeRes)

	// Each run renders as one row of its panel's table: add records the
	// run and the row it becomes, so the plan order is the row order.
	var runs []RunSpec
	var rows []func(out *cluster.Results)
	add := func(t *Table, label string, cfg cluster.Config, specs []cluster.ClientSpec, attainment func(*cluster.Results) float64) {
		runs = append(runs, o.run(label, cfg, specs))
		rows = append(rows, func(out *cluster.Results) {
			t.AddRow(label,
				count(out.ThroughputPerPeriod, o.Base.Scale),
				fmt.Sprintf("%.0f%%", 100*attainment(out)),
				fmt.Sprintf("%.3f%%", 100*out.Overhead.NICFraction),
				fmt.Sprintf("%d", out.Overhead.FAAs))
		})
	}
	// worstHungry is the lowest attainment among the clients with
	// sufficient demand (C3 on).
	worstHungry := func(out *cluster.Results) float64 {
		worst := 2.0
		for i := 2; i < len(out.Clients); i++ {
			worst = min(worst, float64(out.Clients[i].MinPeriod)/float64(res[i]))
		}
		return worst
	}
	header := []string{"value", "throughput", "worst attainment", "qos NIC overhead", "atomics"}

	// 1. FAA batch size. Values are expressed relative to the paper's
	// B=1000 at full scale and divided by Scale like everything else.
	// cluster.New applies the scale divisor to Batch, so setting the
	// full-scale value here sweeps the intended effective batch.
	tb := &Table{Title: "FAA batch size B, full-scale value (paper: 1000)", Header: header}
	for _, b := range []int64{1 * int64(o.Base.Scale), 100, 1000, 10000} {
		cfg := o.config(cluster.Haechi)
		cfg.Params.Batch = b
		add(tb, fmt.Sprintf("B=%d", b), cfg, o.qosSpecs(res, demand), worstHungry)
	}

	// 2. Check/report interval.
	// Intervals are stretched by the scale divisor inside cluster.New
	// (capped at T/10), so sweep pre-scale values and label the
	// effective result.
	ti := &Table{Title: "monitor check + client report interval (paper: 1 ms full-scale)", Header: header}
	for _, iv := range []sim.Time{200 * sim.Microsecond, sim.Millisecond, 4 * sim.Millisecond} {
		effective := sim.Time(float64(iv) * o.Base.Scale)
		if cap := core.NewDefaultParams().Period / 10; effective > cap {
			effective = cap
		}
		cfg := o.config(cluster.Haechi)
		cfg.Params.CheckInterval = iv
		cfg.Params.ReportInterval = iv
		cfg.Params.Tick = iv
		add(ti, effective.String(), cfg, o.qosSpecs(res, demand), worstHungry)
	}

	// 3. Send queue depth.
	ts := &Table{Title: "engine send-queue depth (paper: 64 outstanding)", Header: header}
	for _, d := range []int{8, 64, 512} {
		cfg := o.config(cluster.Haechi)
		cfg.Params.SendQueueDepth = d
		add(ts, fmt.Sprintf("depth=%d", d), cfg, o.qosSpecs(res, demand), worstHungry)
	}

	// 4. Flow-control window, on the Set-3 spike/burst workload where it
	// decides whether late-period catch-up is C_L-limited (window on) or
	// served from deep pre-posted server queues (window off): with flow
	// control disabled the spike clients' reservation miss disappears,
	// hiding the local-capacity physics the paper measures.
	tf := &Table{
		Title:  "send-queue depth x flow-control window on the spike/burst workload",
		Header: []string{"value", "throughput", "C1 attainment", "qos NIC overhead", "atomics"},
	}
	combos := []struct {
		depth, window int
	}{
		{64, 64},   // defaults: both bound outstanding work
		{2048, 64}, // deep send queue, credits still bound the server queue
		{2048, 0},  // nothing bounds the server queue: deep pre-posted
		// backlogs drain at full server rate late in the period, hiding
		// the local-capacity (C_L) physics behind Figs. 8(b)/13
	}
	for _, combo := range combos {
		cfg := o.config(cluster.Haechi)
		cfg.Params.SendQueueDepth = combo.depth
		cfg.Fabric.FlowControlWindow = combo.window
		add(tf, fmt.Sprintf("depth=%d window=%d", combo.depth, combo.window), cfg, o.qosSpecs(spikeRes, spikeDemand),
			func(out *cluster.Results) float64 { return float64(out.Clients[0].MinPeriod) / float64(spikeRes[0]) })
	}

	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		for i, out := range outs {
			rows[i](out)
		}
		return &Report{
			Caption: "Design-choice ablations (extension, not a paper artifact)",
			Tables:  []*Table{tb, ti, ts, tf},
			Notes: []string{
				"expected: tiny B inflates atomics and overhead; very coarse intervals slow conversion",
				"(lower throughput with insufficient-demand clients); shallow send queues limit per-client",
				"throughput; flow control off lets deep server queues mask the local-capacity effects",
			},
		}
	}}, nil
}
