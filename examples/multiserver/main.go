// Multiserver: Haechi extended to several data nodes (the paper's stated
// future work). Records are sharded across two servers; each server runs
// its own unmodified Haechi monitor; a client's total reservation is
// split into per-server slices. A client whose accesses concentrate on
// one shard needs pTrans-style rebalancing: its reservation follows its
// demand.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/workload"
)

// hotShardKeys sends every access to shard 0.
type hotShardKeys struct{ records int }

func (h *hotShardKeys) Next(rng *rand.Rand) uint64 {
	return uint64(rng.Intn(h.records)) * 2 // even keys live on server 0
}

func run(rebalanceEvery int) *cluster.Results {
	cfg := cluster.Config{
		Servers:        2,
		Scale:          10, // each server ~157K IOPS
		Store:          kvstore.Options{Capacity: 1024, RecordSize: rdma.DataIOSize},
		Records:        1024, // 512 per server
		RebalanceEvery: rebalanceEvery,
		Seed:           11,
		Sanitize:       true,
	}
	specs := []cluster.ClientSpec{
		// The skewed tenant: all demand on server 0.
		{Reservation: 30_000, Demand: cluster.ConstantDemand(33_000), Keys: &hotShardKeys{records: 512}},
	}
	// Pressure tenants reserve most of both servers so the global pools
	// cannot silently cover the skewed tenant's shortfall. Each tenant's
	// total reservation is bounded by its own NIC (C_L = 40K here).
	for p := 0; p < 6; p++ {
		specs = append(specs, cluster.ClientSpec{
			Reservation: 40_000, // 20K per server
			Demand:      cluster.ConstantDemand(157_000),
			Keys:        &workload.UniformKeys{N: 1024},
		})
	}
	mc, err := cluster.New(cfg, specs)
	if err != nil {
		log.Fatal(err)
	}
	out, err := mc.Run(2, 8)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func main() {
	static := run(0)
	dynamic := run(2)

	s, d := static.Clients[0], dynamic.Clients[0]
	fmt.Println("skewed tenant, total reservation 30K, all demand on server 0:")
	fmt.Printf("  static equal split %v:  min %d/period  (reservation met: %v)\n",
		s.Split, s.MinPeriod, s.MetReservation)
	fmt.Printf("  with rebalancing  %v:  last period %d  (converges to the hot shard)\n",
		d.Split, d.Periods[len(d.Periods)-1])
	fmt.Println()
	fmt.Println("with a static split, half the tenant's reservation is stranded on the")
	fmt.Println("cold server; periodic pTrans-style shifts move it to where the demand is.")
}
