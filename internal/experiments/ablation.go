package experiments

import (
	"fmt"
	"slices"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/parallel"
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
func Ablation(o Options) (*Report, error) {
	if _, err := o.validate(); err != nil {
		return nil, err
	}
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

	run := func(mutate func(*cluster.Config)) (*cluster.Results, error) {
		return o.runQoS(cluster.Haechi, o.qosSpecs(res, demand), mutate)
	}
	row := func(t *Table, label string, out *cluster.Results) {
		var worstHungry float64 = 2
		for i := 2; i < len(out.Clients); i++ {
			if a := float64(out.Clients[i].MinPeriod) / float64(res[i]); a < worstHungry {
				worstHungry = a
			}
		}
		t.AddRow(label,
			count(out.ThroughputPerPeriod, o.Base.Scale),
			fmt.Sprintf("%.0f%%", 100*worstHungry),
			fmt.Sprintf("%.3f%%", 100*out.Overhead.NICFraction),
			fmt.Sprintf("%d", out.Overhead.FAAs))
	}
	header := []string{"value", "throughput", "worst attainment", "qos NIC overhead", "atomics"}

	rep := &Report{
		ID:      "ablation",
		Caption: "Design-choice ablations (extension, not a paper artifact)",
	}

	// 1. FAA batch size. Values are expressed relative to the paper's
	// B=1000 at full scale and divided by Scale like everything else.
	// cluster.New applies the scale divisor to Batch, so setting the
	// full-scale value here sweeps the intended effective batch.
	tb := &Table{Title: "FAA batch size B, full-scale value (paper: 1000)", Header: header}
	batches := []int64{1 * int64(o.Base.Scale), 100, 1000, 10000}
	batchOuts, err := parallel.Map(o.workers(), len(batches), func(i int) (*cluster.Results, error) {
		b := batches[i]
		return run(func(c *cluster.Config) { c.Params.Batch = b })
	})
	if err != nil {
		return nil, err
	}
	for i, b := range batches {
		row(tb, fmt.Sprintf("B=%d", b), batchOuts[i])
	}
	rep.Tables = append(rep.Tables, tb)

	// 2. Check/report interval.
	// Intervals are stretched by the scale divisor inside cluster.New
	// (capped at T/10), so sweep pre-scale values and label the
	// effective result.
	ti := &Table{Title: "monitor check + client report interval (paper: 1 ms full-scale)", Header: header}
	intervals := []sim.Time{200 * sim.Microsecond, sim.Millisecond, 4 * sim.Millisecond}
	intervalOuts, err := parallel.Map(o.workers(), len(intervals), func(i int) (*cluster.Results, error) {
		iv := intervals[i]
		return run(func(c *cluster.Config) {
			c.Params.CheckInterval = iv
			c.Params.ReportInterval = iv
			c.Params.Tick = iv
		})
	})
	if err != nil {
		return nil, err
	}
	for i, iv := range intervals {
		effective := sim.Time(float64(iv) * o.Base.Scale)
		if cap := core.NewDefaultParams().Period / 10; effective > cap {
			effective = cap
		}
		row(ti, effective.String(), intervalOuts[i])
	}
	rep.Tables = append(rep.Tables, ti)

	// 3. Send queue depth.
	ts := &Table{Title: "engine send-queue depth (paper: 64 outstanding)", Header: header}
	depths := []int{8, 64, 512}
	depthOuts, err := parallel.Map(o.workers(), len(depths), func(i int) (*cluster.Results, error) {
		d := depths[i]
		return run(func(c *cluster.Config) { c.Params.SendQueueDepth = d })
	})
	if err != nil {
		return nil, err
	}
	for i, d := range depths {
		row(ts, fmt.Sprintf("depth=%d", d), depthOuts[i])
	}
	rep.Tables = append(rep.Tables, ts)

	// 4. Flow-control window, on the Set-3 spike/burst workload where it
	// decides whether late-period catch-up is C_L-limited (window on) or
	// served from deep pre-posted server queues (window off): with flow
	// control disabled the spike clients' reservation miss disappears,
	// hiding the local-capacity physics the paper measures.
	spikeRes, err := o.spikeReservations()
	if err != nil {
		return nil, err
	}
	spikeDemand := o.demandRPlusShare(spikeRes)
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
	comboOuts, err := parallel.Map(o.workers(), len(combos), func(i int) (*cluster.Results, error) {
		combo := combos[i]
		return o.runQoS(cluster.Haechi, o.qosSpecs(spikeRes, spikeDemand),
			func(c *cluster.Config) {
				c.Params.SendQueueDepth = combo.depth
				c.Fabric.FlowControlWindow = combo.window
			})
	})
	if err != nil {
		return nil, err
	}
	for i, combo := range combos {
		out := comboOuts[i]
		tf.AddRow(fmt.Sprintf("depth=%d window=%d", combo.depth, combo.window),
			count(out.ThroughputPerPeriod, o.Base.Scale),
			fmt.Sprintf("%.0f%%", 100*float64(out.Clients[0].MinPeriod)/float64(spikeRes[0])),
			fmt.Sprintf("%.3f%%", 100*out.Overhead.NICFraction),
			fmt.Sprintf("%d", out.Overhead.FAAs))
	}
	rep.Tables = append(rep.Tables, tf)
	rep.Runs = slices.Concat(batchOuts, intervalOuts, depthOuts, comboOuts)

	rep.Notes = append(rep.Notes,
		"expected: tiny B inflates atomics and overhead; very coarse intervals slow conversion",
		"(lower throughput with insufficient-demand clients); shallow send queues limit per-client",
		"throughput; flow control off lets deep server queues mask the local-capacity effects")
	return rep, nil
}
