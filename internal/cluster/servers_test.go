package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/workload"
)

// serversConfig is a multi-server testbed at scale 100: each data node
// 15.7K I/Os per period, a client NIC 4K, 128 records per node in tables
// kept half full.
func serversConfig(servers int) Config {
	return Config{
		Servers:  servers,
		Scale:    100,
		Store:    kvstore.Options{Capacity: 256, RecordSize: rdma.DataIOSize},
		Records:  128 * servers,
		Seed:     5,
		Sanitize: true,
	}
}

// TestOneServerIsTheDefault: Servers is a topology parameter, not a mode —
// leaving it unset and setting it to 1 are the same run, byte for byte,
// and a one-server Results carries no trace of the field.
func TestOneServerIsTheDefault(t *testing.T) {
	for _, mode := range []Mode{Haechi, Bare} {
		run := func(servers int) []byte {
			cfg := testConfig(mode)
			cfg.Seed = 9
			cfg.Servers = servers
			specs := make([]ClientSpec, 4)
			for i := range specs {
				specs[i] = ClientSpec{Reservation: 1500, Demand: ConstantDemand(2500), UpdateFraction: 0.1}
			}
			cl, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		unset, one := run(0), run(1)
		if !bytes.Equal(unset, one) {
			t.Errorf("%v: Config{} and Config{Servers: 1} produced different Results", mode)
			reportDivergence(t, unset, one)
		}
		if bytes.Contains(one, []byte(`"Split"`)) {
			t.Errorf("%v: a one-server Results marshals a Split", mode)
		}
	}
}

func TestServersValidation(t *testing.T) {
	one := []ClientSpec{{}}
	if _, err := New(Config{Servers: -1}, one); err == nil {
		t.Error("negative servers accepted")
	}
	if _, err := New(Config{Servers: 2, RebalanceEvery: -1}, one); err == nil {
		t.Error("negative rebalance interval accepted")
	}
	if _, err := New(serversConfig(2), nil); err == nil {
		t.Error("no clients accepted")
	}
	if _, err := New(serversConfig(2), []ClientSpec{{Reservation: -1}}); err == nil {
		t.Error("negative reservation accepted")
	}
	// Over-subscription fails admission at New: first the client's own NIC
	// bound on its total — 4001 is two admissible slices of a total C_L*T
	// (4000) does not allow — then a data node's aggregate bound.
	if _, err := New(serversConfig(2), []ClientSpec{{Reservation: 4001}}); err == nil {
		t.Error("a total reservation over C_L*T accepted because each slice fits")
	}
	over := make([]ClientSpec, 9)
	for i := range over {
		over[i] = ClientSpec{Reservation: 4000} // 9*2000 = 18000 > 15700 per node
	}
	if _, err := New(serversConfig(2), over); err == nil {
		t.Error("aggregate over-subscription accepted")
	}
	if _, err := New(serversConfig(2), []ClientSpec{{Reservation: 1000, Limit: 2000}}); err == nil {
		t.Error("a limit across two engines accepted")
	}
	cfg := serversConfig(2)
	cfg.Records = 2*cfg.Store.Capacity + 1
	if _, err := New(cfg, one); err == nil {
		t.Error("more records than the stores hold accepted")
	}
	// Chaos names no data node, and the rebalancer reads client-shard state.
	cfg = serversConfig(2)
	cfg.Chaos = "outage@1.25+0.5"
	if _, err := New(cfg, one); err == nil || !strings.Contains(err.Error(), "no server selector") {
		t.Errorf("Chaos with Servers: 2: err = %v, want one naming the missing server selector", err)
	}
	cfg = serversConfig(2)
	cfg.RebalanceEvery, cfg.Shards = 2, 2
	if _, err := New(cfg, one); err == nil {
		t.Error("rebalancing a sharded cluster accepted")
	}
}

func TestServersRunValidation(t *testing.T) {
	cl, err := New(serversConfig(2), []ClientSpec{{Reservation: 1000, Demand: ConstantDemand(1500)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(-1, 2); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := cl.Run(1, 0); err == nil {
		t.Error("zero measure accepted")
	}
	if _, err := cl.Run(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(1, 2); err == nil {
		t.Error("second Run accepted")
	}
}

// TestServersAccessors: the single-node accessors name data node 0, each
// store holds its residue class of the keys, and every tenant is linked to
// every node.
func TestServersAccessors(t *testing.T) {
	cl, err := New(serversConfig(3), []ClientSpec{{Reservation: 3000, Demand: ConstantDemand(3300)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Config().Servers; got != 3 {
		t.Errorf("Config().Servers = %d", got)
	}
	if cl.Server() != cl.nodes[0].node || cl.Store() != cl.nodes[0].store || cl.Monitor() != cl.nodes[0].monitor {
		t.Error("Server/Store/Monitor do not name data node 0")
	}
	for s, dn := range cl.nodes {
		if dn.store.Len() != 128 {
			t.Errorf("data node %d holds %d records, want 128", s, dn.store.Len())
		}
		for key := uint64(0); key < 12; key++ {
			if _, ok := dn.store.Get(key); ok != (key%3 == uint64(s)) {
				t.Errorf("data node %d: key %d present = %v", s, key, ok)
			}
		}
	}
	rt := cl.Clients()[0]
	if rt.links == nil || len(*rt.links) != 3 || (*rt.links)[0].kv != rt.KV || (*rt.links)[0].engine != rt.Engine {
		t.Error("links do not cover the three data nodes with link 0 as KV/Engine")
	}
}

// TestSliceSplitsEqually covers the remainder distribution.
func TestSliceSplitsEqually(t *testing.T) {
	if a, b, c := slice(10, 3, 0), slice(10, 3, 1), slice(10, 3, 2); a != 4 || b != 3 || c != 3 {
		t.Errorf("10 over 3 = %d %d %d", a, b, c)
	}
	var sum int64
	for s := 0; s < 7; s++ {
		sum += slice(1_000_003, 7, s)
	}
	if sum != 1_000_003 {
		t.Errorf("slices do not sum: %d", sum)
	}
}

// TestServersUniformKeysMeetReservations: with uniformly sharded access,
// equal splits suffice; every client meets its total reservation across
// two servers. A Bare twin shows the routing alone: about two data nodes'
// worth of I/O.
func TestServersUniformKeysMeetReservations(t *testing.T) {
	specs := make([]ClientSpec, 6)
	for i := range specs {
		specs[i] = ClientSpec{
			Reservation: 4000, // 2000 per server; 6*2000=12000 < 15700 each
			Demand:      ConstantDemand(5000),
			Keys:        &workload.UniformKeys{N: 256},
		}
	}
	cl, err := New(serversConfig(2), specs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Run(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range out.Clients {
		if len(cr.Periods) != 4 {
			t.Fatalf("client %d: %d periods", i, len(cr.Periods))
		}
		if float64(cr.MinPeriod) < 0.97*float64(cr.Reservation) {
			t.Errorf("client %d min %d < total reservation %d", i, cr.MinPeriod, cr.Reservation)
		}
		if len(cr.Split) != 2 || cr.Split[0] != 2000 || cr.Split[1] != 2000 {
			t.Errorf("client %d split = %v", i, cr.Split)
		}
	}

	cfg := serversConfig(2)
	cfg.Mode = Bare
	cl, err = New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := cl.Run(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 4000.0; bare.ThroughputPerPeriod < 0.97*want { // six client NICs, under 2*15700
		t.Errorf("bare throughput on two nodes = %.0f/period, want about %.0f", bare.ThroughputPerPeriod, want)
	}
	a, b := cl.nodes[0].node.Stats().OneSidedTargeted, cl.nodes[1].node.Stats().OneSidedTargeted
	if a == 0 || b == 0 || bare.ServerStats.OneSidedTargeted < bare.TotalCompleted || bare.ServerStats.OneSidedTargeted > a+b {
		t.Errorf("nodes served %d and %d one-sided verbs, ServerStats sums %d over the window, clients completed %d",
			a, b, bare.ServerStats.OneSidedTargeted, bare.TotalCompleted)
	}
}

// skewedKeys draws keys that land on server 0 with the given probability.
type skewedKeys struct {
	servers int
	records int
	hotProb float64
}

func (s *skewedKeys) Next(rng *rand.Rand) uint64 {
	row := uint64(rng.Intn(s.records))
	if rng.Float64() < s.hotProb {
		return row * uint64(s.servers) // shard 0
	}
	return row*uint64(s.servers) + uint64(1+rng.Intn(s.servers-1))
}

// TestServersSkewNeedsRebalancing: a client whose accesses all hit server
// 0 can only use half of an equally-split reservation; with pTrans-style
// rebalancing the reservation follows the demand and the client recovers.
// Both runs are sanitized, so reservation-split holds after every round.
func TestServersSkewNeedsRebalancing(t *testing.T) {
	build := func(rebalance int) ClientResult {
		specs := []ClientSpec{
			{ // the skewed client: everything goes to server 0, within
				// the per-server local capacity (C_L = 4000 at this scale)
				Reservation: 3000,
				Demand:      ConstantDemand(3300),
				Keys:        &skewedKeys{servers: 2, records: 100, hotProb: 1.0},
			},
		}
		// Six pressure clients, each at its NIC-bound maximum total
		// reservation (C_L = 4000 at this scale, 2000 per server),
		// reserve server 0 heavily so its pool cannot cover the skewed
		// client's shortfall.
		for p := 0; p < 6; p++ {
			specs = append(specs, ClientSpec{
				Reservation: 4000,
				Demand:      ConstantDemand(15700),
				Keys:        &workload.UniformKeys{N: 256},
			})
		}
		cfg := serversConfig(2)
		cfg.RebalanceEvery = rebalance
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cl.Run(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return out.Clients[0]
	}

	static := build(0)
	if static.Split[0] != 1500 || static.Split[1] != 1500 {
		t.Fatalf("static split changed: %v", static.Split)
	}
	// Static split: the skewed client's server-1 tokens are useless; on
	// server 0 it holds only 1500 and competes for leftovers.
	if static.MinPeriod >= 3000 {
		t.Fatalf("static split unexpectedly met the reservation: min %d", static.MinPeriod)
	}

	moved := build(2)
	if moved.Split[0] <= 2400 {
		t.Errorf("rebalancing did not shift reservation to the hot server: %v", moved.Split)
	}
	if moved.Split[0]+moved.Split[1] != 3000 {
		t.Errorf("rebalancing leaked reservation: %v", moved.Split)
	}
	// After convergence the client meets its total reservation.
	last := moved.Periods[len(moved.Periods)-1]
	if float64(last) < 0.97*3000 {
		t.Errorf("rebalanced client still missing: last period %d", last)
	}
	if moved.MinPeriod > last {
		t.Errorf("expected convergence over time: min %d, last %d", moved.MinPeriod, last)
	}
}

// fullCluster admits three data nodes to exactly their aggregate bound
// (15 700 each): tenant 0 reserves 3000 (1000 per node) and asks for
// nothing yet, eleven tenants reserve 3999 (1333 per node) and one 111
// (37 per node).
func fullCluster(t *testing.T) *Cluster {
	t.Helper()
	specs := []ClientSpec{{Reservation: 3000, Demand: ConstantDemand(0)}}
	for i := 0; i < 11; i++ {
		specs = append(specs, ClientSpec{Reservation: 3999, Demand: ConstantDemand(0)})
	}
	specs = append(specs, ClientSpec{Reservation: 111, Demand: ConstantDemand(0)})
	cl, err := New(serversConfig(3), specs)
	if err != nil {
		t.Fatal(err)
	}
	for s, dn := range cl.nodes {
		if dn.monitor.SetReservation(0, 1001) == nil {
			t.Fatalf("data node %d admitted one more token, want a full node", s)
		}
	}
	return cl
}

// TestRebalanceHandsBackWhatItTook is the regression test for the
// hand-back: with every node full and tenant 0's demand all on node 0,
// both cold slices shrink by 500, node 0 refuses any growth, and each cold
// node has room for exactly the 500 it gave up. The old hand-back offered
// the whole unplaced 1000 to each cold slice in turn, was refused by both,
// and dropped it; each slice must take back what the round took from it.
func TestRebalanceHandsBackWhatItTook(t *testing.T) {
	cl := fullCluster(t)
	rt := cl.clients[0]
	(*rt.links)[0].routed = 100
	cl.rebalance(rt, make([]int64, 3))
	var sum int64
	for s, dn := range cl.nodes {
		r := dn.monitor.Reservation(rt.Engine.ID())
		if r != 1000 {
			t.Errorf("data node %d holds slice %d after a round nothing could move in, want 1000", s, r)
		}
		sum += r
	}
	if sum != 3000 {
		t.Errorf("slices sum to %d after the round, reservation is 3000", sum)
	}
	cl.checkReservationSplit()
	if v := cl.SanitizeViolations(); len(v) != 0 {
		t.Errorf("violations after a conserving round: %v", v)
	}
	if (*rt.links)[0].routed != 0 {
		t.Error("the round did not reset the demand counts")
	}
}

// TestSanitizerCatchesLostReservation proves reservation-split is live:
// the same round with the hand-back skipped loses 1000 of tenant 0's
// reservation, and the check that follows every round reports it.
func TestSanitizerCatchesLostReservation(t *testing.T) {
	cl := fullCluster(t)
	cl.skipHandBack = true
	rt := cl.clients[0]
	(*rt.links)[0].routed = 100
	cl.rebalance(rt, make([]int64, 3))
	cl.checkReservationSplit()
	v := cl.SanitizeViolations()
	if len(v) != 1 || v[0].Check != "reservation-split" || !strings.Contains(v[0].Detail, "client 0") ||
		!strings.Contains(v[0].Detail, "sum to 2000") {
		t.Errorf("violations = %v, want one reservation-split naming client 0 and the sum 2000", v)
	}
}

// TestServersShardedObservedByteIdentical: the layers added since the
// sharded kernel — sanitizer, flight spans, metrics sampling, shard
// placement — run clean over two data nodes, and the worker count stays
// pure concurrency there too.
func TestServersShardedObservedByteIdentical(t *testing.T) {
	run := func(workers int) []byte {
		cfg := serversConfig(2)
		cfg.Shards = 3
		cfg.ShardWorkers = workers
		cfg, err := cfg.ApplyScale()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scale = 1 // already applied
		cfg.Observe = &Observe{FlightSpans: 256, MetricsInterval: DefaultMetricsInterval(cfg.Params.Period)}
		specs := make([]ClientSpec, 5)
		for i := range specs {
			specs[i] = ClientSpec{Reservation: 3000, Demand: ConstantDemand(3600), UpdateFraction: 0.05}
		}
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if v := cl.SanitizeViolations(); len(v) != 0 {
			t.Fatalf("violations: %v", v)
		}
		if res.Sharding == nil || res.Sharding.Shards != 3 || len(res.Sharding.Nodes) != 2+5 ||
			res.Sharding.Nodes[1].Name != "datanode-1" || res.Sharding.Nodes[1].Shard != 0 {
			t.Fatalf("sharding report = %+v", res.Sharding)
		}
		if len(res.Stages) == 0 || res.Metrics == nil {
			t.Fatal("observed run recorded no stages or metrics")
		}
		for i, cr := range res.Clients {
			if !cr.MetReservation {
				t.Errorf("client %d missed: min %d of %d", i, cr.MinPeriod, cr.Reservation)
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte("client-00/engine-1/pending")) || !bytes.Contains(b, []byte("monitor-1/omega")) {
			t.Error("metrics carry no gauges for the second data node's engine and monitor")
		}
		return b
	}
	one, two := run(1), run(2)
	if !bytes.Equal(one, two) {
		t.Error("ShardWorkers 2 diverged from 1 over two data nodes")
		reportDivergence(t, one, two)
	}
}
