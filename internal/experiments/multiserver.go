package experiments

import (
	"fmt"
	"math/rand"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/workload"
)

// hotShardKeys routes every access to shard 0 of `servers` shards.
type hotShardKeys struct {
	servers int
	records int
}

// Next draws a shard-0 key.
func (h *hotShardKeys) Next(rng *rand.Rand) uint64 {
	return uint64(rng.Intn(h.records)) * uint64(h.servers)
}

// MultiServer evaluates the paper's stated future work (Section V):
// Haechi across several data nodes with per-node monitors.
//
// Panel 1 sweeps the cluster size with uniformly sharded tenants: total
// throughput should scale with the number of data nodes.
//
// Panel 2 compares a skew-bound tenant (all accesses on one shard) under
// a static equal reservation split vs. pTrans-style periodic rebalancing:
// static strands half the reservation on the cold shard; rebalancing
// follows the demand.
//
// Every run is sanitized: the reservation-split invariant holds across
// the rebalance rounds.
func MultiServer(o Options) (*Plan, error) {
	// 512 records per data node in tables kept at most half full: the
	// sizing testdata/golden/multiserver.txt was recorded at.
	const recordsPerServer = 512
	config := func(servers, rebalanceEvery int) cluster.Config {
		return cluster.Config{
			Observe:        o.Base.Observe,
			Chaos:          o.Base.Chaos,
			Servers:        servers,
			RebalanceEvery: rebalanceEvery,
			Scale:          o.Base.Scale,
			Store:          kvstore.Options{Capacity: 2 * recordsPerServer, RecordSize: rdma.DataIOSize},
			Records:        recordsPerServer * servers,
			Seed:           o.Base.Seed,
			Sanitize:       true,
		}
	}
	perServer := o.capacityPerPeriod()
	perClientCap := o.localCapacityPerPeriod()
	// Each run renders as one row of its panel's table, in plan order.
	var runs []RunSpec
	var rows []func(out *cluster.Results)

	// Panel 1: scaling. Twelve saturating tenants; each reserves its
	// share of 70% of the cluster, bounded by its own NIC (C_L).
	const tenants = 12
	t1 := &Table{
		Title:  fmt.Sprintf("cluster scaling: %d uniformly-sharded saturating tenants", tenants),
		Header: []string{"servers", "total reservation", "throughput/period", "all reservations met"},
	}
	for _, servers := range []int{1, 2, 4} {
		perTenant := min(perServer*int64(servers)*7/(10*tenants), perClientCap*55/100)
		specs := make([]cluster.ClientSpec, tenants)
		for i := range specs {
			specs[i] = cluster.ClientSpec{
				Reservation: perTenant,
				Demand:      cluster.ConstantDemand(uint64(perClientCap)), // saturate the client NIC
				Keys:        &workload.UniformKeys{N: recordsPerServer * uint64(servers)},
			}
		}
		runs = append(runs, o.run(fmt.Sprintf("%d servers", servers), config(servers, 0), specs))
		rows = append(rows, func(out *cluster.Results) {
			met := "yes"
			for _, cr := range out.Clients {
				if float64(cr.MinPeriod) < 0.97*float64(cr.Reservation) {
					met = fmt.Sprintf("MISS (min %d of %d)", cr.MinPeriod, cr.Reservation)
					break
				}
			}
			t1.AddRow(fmt.Sprintf("%d", servers),
				count(float64(perTenant)*tenants, o.Base.Scale),
				count(float64(out.TotalCompleted)/float64(o.MeasurePeriods), o.Base.Scale),
				met)
		})
	}

	// Panel 2: skew + rebalancing on 2 servers. Pressure tenants reserve
	// the hot shard nearly fully so the pool cannot cover the skew.
	t2 := &Table{
		Title:  "skew-bound tenant (all demand on shard 0 of 2)",
		Header: []string{"rebalancing", "final split", "min/period", "meets total R"},
	}
	skewRes := perClientCap * 3 / 4
	for _, rebalance := range []int{0, 2} {
		specs := []cluster.ClientSpec{
			{
				Reservation: skewRes,
				Demand:      cluster.ConstantDemand(uint64(skewRes) + uint64(skewRes)/10),
				Keys:        &hotShardKeys{servers: 2, records: recordsPerServer},
			},
		}
		// Six pressure tenants, each at its NIC-bound maximum reservation
		// (C_L), fill the hot shard so its pool cannot cover the skew.
		for p := 0; p < 6; p++ {
			specs = append(specs, cluster.ClientSpec{
				Reservation: perClientCap,
				Demand:      cluster.ConstantDemand(uint64(perServer)),
				Keys:        &workload.UniformKeys{N: 1024},
			})
		}
		label := "off"
		if rebalance > 0 {
			label = fmt.Sprintf("every %d periods", rebalance)
		}
		r := o.run("rebalancing "+label, config(2, rebalance), specs)
		r.Measure += 4
		runs = append(runs, r)
		rows = append(rows, func(out *cluster.Results) {
			cr := out.Clients[0]
			t2.AddRow(label,
				fmt.Sprintf("%v", cr.Split),
				count(float64(cr.MinPeriod), o.Base.Scale),
				meets(cr.Periods[len(cr.Periods)-1], skewRes))
		})
	}

	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		for i, out := range outs {
			rows[i](out)
		}
		return &Report{
			Caption: "Multi-server Haechi with reservation rebalancing (extension, paper §V)",
			Tables:  []*Table{t1, t2},
			Notes: []string{
				"expected: throughput scales with server count and reservations hold at every size;",
				"the skew-bound tenant misses under a static split (half its reservation is stranded on",
				"the cold shard) and converges to its total reservation with rebalancing enabled",
			},
		}
	}}, nil
}
