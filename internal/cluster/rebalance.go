package cluster

import "github.com/haechi-qos/haechi/internal/sim"

// rebalanceStep is the fraction of a slice's distance to its demand share
// that one round takes away.
const rebalanceStep = 0.5

// armRebalancer schedules the reservation rebalancer every
// Config.RebalanceEvery periods, just before a period boundary, when the
// routed counters hold the window's demand split.
func (c *Cluster) armRebalancer() error {
	if c.cfg.RebalanceEvery == 0 || len(c.nodes) == 1 {
		return nil
	}
	interval := sim.Time(c.cfg.RebalanceEvery) * c.cfg.Params.Period
	took := make([]int64, len(c.nodes))
	_, err := c.kernel.Every(interval-c.cfg.Params.CheckInterval, interval, func() {
		for _, rt := range c.clients {
			c.rebalance(rt, took)
		}
		c.checkReservationSplit()
	})
	return err
}

// rebalance is the pShift/pTrans-style token shift the paper's §V cites,
// applied to Haechi's reservations: move tenant rt's per-node slices toward
// its observed demand split, bounded by rebalanceStep per round and by each
// data node's admission control. The monitors hold the slices (each pushes
// its own as next period's tokens); took is the round's scratch, one entry
// per data node.
func (c *Cluster) rebalance(rt *Client, took []int64) {
	links := *rt.links
	var demand uint64
	for s := range links {
		demand += links[s].routed
	}
	total := rt.Spec.Reservation
	if demand == 0 || total == 0 {
		return
	}
	id := rt.Engine.ID() // admission order is client order at every monitor
	held := func(s int) int64 { return c.nodes[s].monitor.Reservation(id) }
	set := func(s int, r int64) bool { return c.nodes[s].monitor.SetReservation(id, r) == nil }
	desired := func(s int) int64 { return int64(float64(total) * float64(links[s].routed) / float64(demand)) }

	// Two passes conserve the total: decreases first (freeing capacity on
	// cold nodes), then increases on hot nodes bounded by what was freed
	// and by the node's admission headroom.
	var freed int64
	for s := range links {
		took[s] = 0
		have, want := held(s), desired(s)
		if want >= have {
			continue
		}
		next := max(have+int64(float64(want-have)*rebalanceStep), 0)
		if set(s, next) {
			took[s] = have - next
			freed += took[s]
		}
	}
	for s := 0; s < len(links) && freed > 0; s++ {
		have, want := held(s), desired(s)
		if want <= have {
			continue
		}
		// Binary back-off: try the full grow, then halves, so a partially
		// full node still absorbs what it can.
		for grow := min(want-have, freed); grow > 0; grow /= 2 {
			if set(s, have+grow) {
				freed -= grow
				break
			}
		}
	}
	// What no hot node accepted goes back where it came from, each slice
	// taking at most what this round took from it — always admissible: it
	// held that a moment ago, and only this tenant's slices moved since.
	for s := range links {
		if back := min(took[s], freed); back > 0 && !c.skipHandBack && set(s, held(s)+back) {
			freed -= back
		}
		links[s].routed = 0
	}
}

// checkReservationSplit is the sanitizer's reservation-split invariant,
// checked after every rebalance round and at run end: each tenant's
// per-node slices sum to its reservation. The other half of the banking
// invariant — a data node never admits more than its bound — is each
// monitor's own reservation-floor check at every period start.
func (c *Cluster) checkReservationSplit() {
	san := c.sanFor(0)
	if san == nil || len(c.nodes) == 1 || c.cfg.Mode == Bare {
		return
	}
	now := int64(c.kernel.Now())
	for i, rt := range c.clients {
		var sum int64
		for s := range c.nodes {
			sum += c.nodes[s].monitor.Reservation(rt.Engine.ID())
		}
		if sum != rt.Spec.Reservation {
			san.Reportf("reservation-split", now, "client %d: per-node slices sum to %d, reservation is %d", i, sum, rt.Spec.Reservation)
		}
	}
}
