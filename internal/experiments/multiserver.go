package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/parallel"
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
func MultiServer(o Options) (*Report, error) {
	if _, err := o.validate(); err != nil {
		return nil, err
	}
	// 512 records per data node in tables kept at most half full: the
	// sizing testdata/golden/multiserver.txt was recorded at.
	const recordsPerServer = 512
	config := func(servers, rebalanceEvery int) cluster.Config {
		return cluster.Config{
			Observe:        o.Base.Observe,
			Servers:        servers,
			RebalanceEvery: rebalanceEvery,
			Scale:          o.Base.Scale,
			Store:          kvstore.Options{Capacity: 2 * recordsPerServer, RecordSize: rdma.DataIOSize},
			Records:        recordsPerServer * servers,
			Seed:           o.Base.Seed,
			Sanitize:       true,
		}
	}
	rep := &Report{
		ID:      "multiserver",
		Caption: "Multi-server Haechi with reservation rebalancing (extension, paper §V)",
	}

	perServer := o.capacityPerPeriod()
	perClientCap := o.localCapacityPerPeriod()

	// Panel 1: scaling. Twelve saturating tenants; each reserves its
	// share of 70% of the cluster, bounded by its own NIC (C_L).
	const tenants = 12
	t1 := &Table{
		Title:  fmt.Sprintf("cluster scaling: %d uniformly-sharded saturating tenants", tenants),
		Header: []string{"servers", "total reservation", "throughput/period", "all reservations met"},
	}
	serverCounts := []int{1, 2, 4}
	perTenant := func(servers int) int64 {
		return min(perServer*int64(servers)*7/(10*tenants), perClientCap*55/100)
	}
	scaleOuts, err := parallel.Map(o.workers(), len(serverCounts), func(si int) (*cluster.Results, error) {
		servers := serverCounts[si]
		specs := make([]cluster.ClientSpec, tenants)
		for i := range specs {
			specs[i] = cluster.ClientSpec{
				Reservation: perTenant(servers),
				Demand:      cluster.ConstantDemand(uint64(perClientCap)), // saturate the client NIC
				Keys:        &workload.UniformKeys{N: 1024},
			}
		}
		mc, err := cluster.New(config(servers, 0), specs)
		if err != nil {
			return nil, err
		}
		return mc.Run(o.WarmupPeriods, o.MeasurePeriods)
	})
	if err != nil {
		return nil, err
	}
	for si, servers := range serverCounts {
		out := scaleOuts[si]
		met := "yes"
		for _, cr := range out.Clients {
			if float64(cr.MinPeriod) < 0.97*float64(cr.Reservation) {
				met = fmt.Sprintf("MISS (min %d of %d)", cr.MinPeriod, cr.Reservation)
				break
			}
		}
		t1.AddRow(fmt.Sprintf("%d", servers),
			count(float64(perTenant(servers))*tenants, o.Base.Scale),
			count(float64(out.TotalCompleted)/float64(o.MeasurePeriods), o.Base.Scale),
			met)
	}
	rep.Tables = append(rep.Tables, t1)

	// Panel 2: skew + rebalancing on 2 servers. Pressure tenants reserve
	// the hot shard nearly fully so the pool cannot cover the skew.
	t2 := &Table{
		Title:  "skew-bound tenant (all demand on shard 0 of 2)",
		Header: []string{"rebalancing", "final split", "min/period", "meets total R"},
	}
	skewRes := perClientCap * 3 / 4
	rebalances := []int{0, 2}
	skewOuts, err := parallel.Map(o.workers(), len(rebalances), func(ri int) (*cluster.Results, error) {
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
		mc, err := cluster.New(config(2, rebalances[ri]), specs)
		if err != nil {
			return nil, err
		}
		return mc.Run(o.WarmupPeriods, o.MeasurePeriods+4)
	})
	if err != nil {
		return nil, err
	}
	for ri, rebalance := range rebalances {
		out := skewOuts[ri]
		cr := out.Clients[0]
		label := "off"
		if rebalance > 0 {
			label = fmt.Sprintf("every %d periods", rebalance)
		}
		t2.AddRow(label,
			fmt.Sprintf("%v", cr.Split),
			count(float64(cr.MinPeriod), o.Base.Scale),
			meets(cr.Periods[len(cr.Periods)-1], skewRes))
	}
	rep.Tables = append(rep.Tables, t2)
	rep.Runs = slices.Concat(scaleOuts, skewOuts)
	rep.Notes = append(rep.Notes,
		"expected: throughput scales with server count and reservations hold at every size;",
		"the skew-bound tenant misses under a static split (half its reservation is stranded on",
		"the cold shard) and converges to its total reservation with rebalancing enabled")
	return rep, nil
}
