package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/rdma"
)

// TestShardPlacementStableIDHash is the regression test for the shard
// assignment fix: placement must be a pure function of the stable client
// name (FNV-1a), not of insertion order. At 2 and 4 shards every client
// lands on 1 + fnv32(name) % (shards-1), the data node stays on shard 0,
// and at 4 shards the layout provably differs from the old
// insertion-order round-robin for at least one client.
func TestShardPlacementStableIDHash(t *testing.T) {
	build := func(shards, clients int) *ShardingReport {
		specs := make([]ClientSpec, clients)
		for i := range specs {
			specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1500)}
		}
		cfg := testConfig(Haechi)
		cfg.Seed = 11
		cfg.Shards = shards
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sharding == nil {
			t.Fatal("sharded run produced no ShardingReport")
		}
		return res.Sharding
	}
	for _, shards := range []int{2, 4} {
		sr := build(shards, 8)
		if sr.Nodes[0].Name != "datanode" || sr.Nodes[0].Shard != 0 {
			t.Errorf("shards=%d: data node on shard %d, want 0", shards, sr.Nodes[0].Shard)
		}
		roundRobin := true
		for i, na := range sr.Nodes[1:] {
			want := 1 + int(fnv32(na.Name)%uint32(shards-1))
			if na.Shard != want {
				t.Errorf("shards=%d: client %q on shard %d, want %d (stable-ID hash)",
					shards, na.Name, na.Shard, want)
			}
			if na.Shard != 1+i%(shards-1) {
				roundRobin = false
			}
		}
		if shards == 4 && roundRobin {
			t.Errorf("shards=4: placement matches insertion-order round-robin exactly; hash assignment not in effect")
		}
	}

	// Placement is insertion-order independent by construction (the hash
	// reads only the name); pin it against two different population sizes,
	// where round-robin would reshuffle the shared prefix of clients.
	a, b := build(4, 8), build(4, 5)
	for i := 1; i < 6; i++ {
		if a.Nodes[i].Name != b.Nodes[i].Name || a.Nodes[i].Shard != b.Nodes[i].Shard {
			t.Errorf("client %q moved shards when the population changed: %d vs %d",
				a.Nodes[i].Name, a.Nodes[i].Shard, b.Nodes[i].Shard)
		}
	}
}

// qpCacheRun is shardedRun with the QP-context connection cache enabled,
// sized to thrash at the test's client count so hits and misses both
// occur on every shard.
func qpCacheRun(t *testing.T, shards int, sanitize bool) []byte {
	t.Helper()
	specs := make([]ClientSpec, 6)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1500), UpdateFraction: 0.05}
	}
	cfg := testConfig(Haechi)
	cfg.Seed = 42
	cfg.Shards = shards
	cfg.Sanitize = sanitize
	cfg.Fabric.QPCacheSize = 4
	cfg.Fabric.QPCacheMissPenalty = 0.25
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sanitize {
		if v := cl.SanitizeViolations(); len(v) != 0 {
			t.Fatalf("sanitized QP-cache run reported violations: %v", v)
		}
	}
	if res.Attribution.QPCacheMisses == 0 || res.Attribution.QPCacheHits == 0 {
		t.Fatalf("QP cache inert: hits=%d misses=%d", res.Attribution.QPCacheHits, res.Attribution.QPCacheMisses)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQPCacheShardedByteIdentical runs the QP-cache model on three
// shards, with the connection cache active (hits and misses on every
// shard): a sanitized twin must match the unsanitized run byte for byte.
func TestQPCacheShardedByteIdentical(t *testing.T) {
	base := qpCacheRun(t, 3, false)
	if got := qpCacheRun(t, 3, true); !bytes.Equal(base, got) {
		t.Errorf("sanitizer perturbed the QP-cache run")
		reportDivergence(t, base, got)
	}
}

// TestQPCacheRepeatable pins seed determinism on the single-kernel path
// with the cache enabled, and that an oversized cache only ever misses
// cold: with capacity above the fleet's distinct (node, QP) context
// count, evictions are impossible, so the miss count is a setup constant
// that must not grow with simulated time.
func TestQPCacheRepeatable(t *testing.T) {
	a := qpCacheRun(t, 0, false)
	b := qpCacheRun(t, 0, false)
	if !bytes.Equal(a, b) {
		reportDivergence(t, a, b)
	}

	coldMisses := func(measure int) uint64 {
		specs := make([]ClientSpec, 4)
		for i := range specs {
			specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1500)}
		}
		cfg := testConfig(Haechi)
		cfg.Seed = 5
		cfg.Fabric.QPCacheSize = 4096
		cfg.Fabric.QPCacheMissPenalty = 0.25
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, measure)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attribution.QPCacheMisses == 0 {
			t.Error("expected cold-start misses with an oversized cache")
		}
		if res.Attribution.QPCacheHits == 0 {
			t.Error("expected warm hits with an oversized cache")
		}
		return res.Attribution.QPCacheMisses
	}
	short, long := coldMisses(2), coldMisses(5)
	if short != long {
		t.Errorf("oversized cache missed %d times over 2 periods but %d over 5 — evictions should be impossible",
			short, long)
	}
}

// fleetSpecs is the fleet regime of Set 6: a thin reserved tier of the
// first `reserved` tenants, the rest best-effort, one request per period
// each.
func fleetSpecs(clients, reserved int) []ClientSpec {
	specs := make([]ClientSpec, clients)
	for i := range specs {
		r := int64(0)
		if i < reserved {
			r = 1
		}
		specs[i] = ClientSpec{Reservation: r, Demand: ConstantDemand(1)}
	}
	return specs
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTenantResidentBytes holds what a tenant costs before it has sent
// anything — node, three QPs, dispatcher, kv client, engine, monitor row,
// generator — within 3 % of the 3 470 B it measures, so the 10^5-tenant
// fleet starts from about 0.35 GB. Haechi's own per-client state is a
// handful of token counters (paper §II-D); a tenant was 12 KB while its
// generator drew keys from a 607-word math/rand table and its five
// message routes lived in five maps, 5.8 KB while each of its QPs' twelve
// stage queues was a slice header, 5.3 KB while its generator and engine
// kept pools and queues of completion callbacks, and 4.0 KB while it
// carried state for roles it never plays: a scheduler and context-cache
// arrays on its client node, loopback and server-SEND queues on its QPs,
// fault accounting and a copy of the protocol constants in its engine,
// and probe and two-sided state in its kv client.
func TestTenantResidentBytes(t *testing.T) {
	const tenants, limit = 2000, 3_470 * 1.03
	cfg := testConfig(Haechi)
	cfg.Seed = 6
	specs := fleetSpecs(tenants, tenants/10)
	before := heapAlloc()
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(heapAlloc()-before) / tenants
	runtime.KeepAlive(cl)
	t.Logf("%.0f resident bytes per tenant after New", per)
	if per > limit {
		t.Errorf("a tenant holds %.0f B after New, want <= %.0f", per, limit)
	}
}

// TestTenantRunGrowthBytes holds what a tenant allocates over a run the
// way TestTenantResidentBytes holds what it starts from. The shape is the
// control-plane wall: 60% of C_G reserved evenly, and every tenant's
// demand — 62 a period, its reservation and some of the pool — posted at
// once and inside its send queue, over one warm-up and one measured
// period. What grows is then what one posted I/O costs the host: its verb
// record, its tag at a station, its share of a run of arrival instants on
// the link, and the rings those wait in. 10.3 KB, held to that plus 10 %;
// 11.3 KB with an 80-byte record and 256-byte histogram rows, 13.5 KB
// before that, 16.4 KB with 16-byte station entries, one 8-byte cookie
// per posted I/O and boxed period messages, 18.8 KB before that, 25.8 KB
// with a 176-byte record and 24-byte station entries, 30.8 KB while each
// layer queued a callback per I/O in slices that grew to twice what they
// held.
func TestTenantRunGrowthBytes(t *testing.T) {
	const tenants, limit = 2000, 10_282 * 11 / 10
	cfg := testConfig(Haechi)
	cfg.Seed = 6
	cfg.Scale = 10 // C_G = 157 000 a period
	cfg.Sigma = 0  // derive it from that
	specs := make([]ClientSpec, tenants)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 47, Demand: ConstantDemand(62)}
	}
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cl.Run(1, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / tenants
	t.Logf("%.0f bytes allocated per tenant over Run(1, 1)", per)
	if per > limit {
		t.Errorf("a tenant allocates %.0f B over the run, want <= %d", per, limit)
	}
}

// TestFleetSmoke drives Set 6's 10^5-client configuration end to end —
// sharded onto 2 kernels, sanitized — and checks the run completes and
// conserves per-client completions. It is the CI "Fleet smoke" target;
// locally it runs only with -run TestFleetSmoke (skipped under -short).
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet smoke is not -short")
	}
	const clients = 100_000
	cfg := testConfig(Haechi)
	cfg.Seed = 6
	cfg.Shards = 2
	cfg.Sanitize = true
	cl, err := New(cfg, fleetSpecs(clients, 9000))
	if err != nil {
		t.Fatal(err)
	}
	// The CI step runs this under -race on a 16 GB box, where the detector
	// multiplies whatever the fleet starts from: hold the live heap after
	// New (the whole process's, not a delta) under 428 MB: 335.8 MB
	// measured, with the headroom 700 MB gave the 550 MB it held before.
	heapMB := float64(heapAlloc()) / (1 << 20)
	t.Logf("HeapAlloc after New: %.1f MB for %d clients", heapMB, clients)
	if heapMB > 428 {
		t.Errorf("HeapAlloc after New = %.1f MB, want <= 428", heapMB)
	}
	res, err := cl.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := cl.SanitizeViolations(); len(v) != 0 {
		t.Fatalf("fleet smoke reported violations: %v", v)
	}
	if len(res.Clients) != clients {
		t.Fatalf("results cover %d clients, want %d", len(res.Clients), clients)
	}
	var sum uint64
	for i := range res.Clients {
		sum += res.Clients[i].Total
	}
	if sum != res.TotalCompleted {
		t.Errorf("per-client totals sum to %d, TotalCompleted = %d", sum, res.TotalCompleted)
	}
}

// TestOverheadDataReadsSaturates is the regression test for the wrapped
// OverheadReport.DataReads. At a control-plane-bound fleet point the
// report once subtracted whole-run engine counters from a windowed
// one-sided total, and the unsigned difference read ~1.8e19. Now every
// count covers one window, so the report partitions what the data node
// served exactly, and the data reads the fleet still gets are reported.
func TestOverheadDataReadsSaturates(t *testing.T) {
	const tenants = 2500
	specs := make([]ClientSpec, tenants)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 3, Demand: ConstantDemand(5)}
	}
	cfg := testConfig(Haechi)
	cfg.Seed = 42
	cfg.Fabric.QPCacheSize = 1024
	cfg.Fabric.QPCacheMissPenalty = 0.25
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Overhead
	if sum := o.DataReads + o.FAAs + o.ControlWrites; sum != res.ServerStats.OneSidedTargeted {
		t.Errorf("DataReads %d + FAAs %d + ControlWrites %d = %d, want OneSidedTargeted %d",
			o.DataReads, o.FAAs, o.ControlWrites, sum, res.ServerStats.OneSidedTargeted)
	}
	if o.DataReads == 0 || o.DataReads > res.ServerStats.OneSidedTargeted {
		t.Errorf("DataReads = %d of %d one-sided targeted, want a real count", o.DataReads, res.ServerStats.OneSidedTargeted)
	}
	if ctrl := o.FAAs + o.ControlWrites; ctrl <= o.DataReads {
		t.Errorf("fixture is not control-plane-bound: %d control verbs vs %d data", ctrl, o.DataReads)
	}
	// The window runs from warm-up's end to the end of the run: the two
	// measured periods and the three-quarter-period tail.
	f, T := cl.cfg.Fabric, cl.cfg.Params.Period
	busy := float64(o.FAAs)*rdma.AtomicWeight + float64(o.ControlWrites)*rdma.MinVerbWeight + float64(o.ControlSends)*rdma.SendRequestWeight
	if want := busy / (f.ServerOneSidedRate * (2*T + 3*T/4).Seconds()); math.Abs(o.NICFraction-want) > 1e-12 {
		t.Errorf("NICFraction = %v, want %v from the counts and the window", o.NICFraction, want)
	}
	t.Logf("DataReads %d, FAAs %d, ControlWrites %d, ControlSends %d, NICFraction %.3f, control verbs per completed I/O %.0f",
		o.DataReads, o.FAAs, o.ControlWrites, o.ControlSends, o.NICFraction,
		float64(o.FAAs+o.ControlWrites+o.ControlSends)/float64(res.TotalCompleted))
}
