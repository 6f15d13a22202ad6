package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/workload"
)

// Set 6 — fleet scale. The paper's testbed stops at 10 clients; this set
// asks what happens to token QoS when the tenant population grows toward
// datacenter fleet sizes (10^3-10^6): how the reservation-miss rate moves
// as reservations thin out to a reserved tier plus a best-effort tier,
// what fraction of the data-node NIC the token-distribution protocol
// itself consumes per completed I/O, how fairly the pool splits across
// the best-effort tier, and how much the RNIC's finite QP-context cache
// (Config.QPCacheSize; the RDMAvisor/Storm scalability effect) costs once
// the fleet outgrows it.
const (
	// fleetQPCacheSize is the modelled on-chip QP-context capacity for the
	// cache-on runs: a few thousand contexts, the order reported for
	// ConnectX-class NICs, so the 10^4+ fleets actually thrash it.
	fleetQPCacheSize = 1024
	// fleetQPCachePenalty is the extra NIC service weight of a context
	// miss, in 4 KB-transfer units: a ~1 KB ICM fetch over PCIe stalls
	// the pipeline for roughly a quarter of a 4 KB wire transfer.
	fleetQPCachePenalty = 0.25
)

// fleetCounts expands the option's client count into the sweep: decades
// from 1000 up to and including the configured width. Counts at or below
// 1000 run a single point, so the default options stay fast.
func fleetCounts(max int) []int {
	if max <= 1000 {
		return []int{max}
	}
	var out []int
	for n := 1000; n < max; n *= 10 {
		out = append(out, n)
	}
	return append(out, max)
}

// Set6 runs the fleet-scale sweep: client counts from fleetCounts, each
// with the QP-context cache off and on.
func Set6(o Options) (*Plan, error) {
	var runs []RunSpec
	for _, n := range fleetCounts(o.Clients) {
		// 60% of capacity reserved, split evenly: beyond ~10^4 tenants the
		// split degenerates into a reserved tier (R_i = 1) and a
		// best-effort tier (R_i = 0) — the fleet regime under test.
		res := toInt64(workload.UniformSplit(uint64(6*o.capacityPerPeriod()/10), n))
		share := o.demandRPlusShare(res)
		for _, cache := range []bool{false, true} {
			specs := o.qosSpecs(res, func(i int) uint64 {
				// Every tenant wants at least one I/O per period, so the
				// best-effort tier competes for the pool instead of idling.
				if d := share(i); d > 0 {
					return d
				}
				return 1
			})
			cfg := o.config(cluster.Haechi)
			if cache {
				cfg.Fabric.QPCacheSize = fleetQPCacheSize
				cfg.Fabric.QPCacheMissPenalty = fleetQPCachePenalty
			}
			runs = append(runs, o.run(fmt.Sprintf("%d clients qp-cache %s", n, onOff(cache)), cfg, specs))
		}
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		t := &Table{
			Title: "Set 6 — token QoS at fleet scale",
			Header: []string{"clients", "qp-cache", "completed/period", "res-miss",
				"fairness", "ctrl-verbs/IO", "nic-ctrl", "cache-hit", "events/client"},
		}
		for i, out := range outs {
			t.AddRow(fmt.Sprintf("%d", len(out.Clients)),
				onOff(runs[i].Config.Fabric.QPCacheSize > 0),
				count(out.ThroughputPerPeriod, o.Base.Scale),
				fmt.Sprintf("%.1f%%", 100*reservationMissRate(out)),
				fmt.Sprintf("%.3f", bestEffortFairness(out)),
				fmt.Sprintf("%.2f", controlVerbsPerIO(out)),
				fmt.Sprintf("%.1f%%", 100*out.Overhead.NICFraction),
				cacheHitRate(out),
				fmt.Sprintf("%.0f", float64(out.EventsExecuted)/float64(len(out.Clients))))
		}
		return &Report{
			Caption: "Fleet scale: reservation attainment, token-distribution overhead and QP-cache pressure vs client count (Set 6)",
			Tables:  []*Table{t},
			Notes: []string{
				"expected: reservations hold while the reserved tier fits capacity; the best-effort tier",
				"splits the pool near-evenly (fairness ~1); control verbs per completed I/O grow with the",
				"fleet (per-tenant period messages amortize over fewer data I/Os each); with the QP-context",
				"cache on, fleets beyond its capacity pay the miss penalty and aggregate throughput drops —",
				"the RNIC connection-scalability wall the small-testbed calibration cannot see",
			},
		}
	}}, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// reservationMissRate is the fraction of reserved clients (R_i > 0) that
// missed their reservation in at least one measured period.
func reservationMissRate(out *cluster.Results) float64 {
	var reserved, missed int
	for _, cr := range out.Clients {
		if cr.Reservation <= 0 {
			continue
		}
		reserved++
		if !cr.MetReservation {
			missed++
		}
	}
	if reserved == 0 {
		return 0
	}
	return float64(missed) / float64(reserved)
}

// bestEffortFairness is Jain's index over the unreserved tier's total
// completions (all clients when every tenant holds a reservation): 1.0 is
// a perfectly even pool split, 1/n a single client holding everything.
func bestEffortFairness(out *cluster.Results) float64 {
	var xs []float64
	for _, cr := range out.Clients {
		if cr.Reservation <= 0 {
			xs = append(xs, float64(cr.Total))
		}
	}
	if len(xs) == 0 {
		for _, cr := range out.Clients {
			xs = append(xs, float64(cr.Total))
		}
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// controlVerbsPerIO is the token-distribution overhead ratio: QoS control
// operations (global-token FAAs, report/pool writes, period messages) per
// completed data I/O.
func controlVerbsPerIO(out *cluster.Results) float64 {
	if out.TotalCompleted == 0 {
		return 0
	}
	ctrl := out.Overhead.FAAs + out.Overhead.ControlWrites + out.Overhead.ControlSends
	return float64(ctrl) / float64(out.TotalCompleted)
}

// cacheHitRate renders the QP-context cache hit rate, "-" when disabled.
func cacheHitRate(out *cluster.Results) string {
	hits, misses := out.Attribution.QPCacheHits, out.Attribution.QPCacheMisses
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}
