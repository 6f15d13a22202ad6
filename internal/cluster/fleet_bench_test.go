package cluster

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// storeLoadNsPerRecord times what cluster.New spends on the record store
// — NewStore, Populate without a value function and the first client's
// PrimeCache (which is primeShared) — for `records` 4 KB records at the
// load factor every experiment uses (capacity = CapacityFor(records):
// 100 % for a power of two).
func storeLoadNsPerRecord(t *testing.T, records int) float64 {
	t.Helper()
	k := sim.New(1)
	f, err := rdma.NewFabric(k, rdma.NewDefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.AddServer("datanode")
	if err != nil {
		t.Fatal(err)
	}
	client, err := f.AddClient("client")
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	start := time.Now()
	store, err := kvstore.NewStore(server, nil, kvstore.Options{
		Capacity: kvstore.CapacityFor(records), RecordSize: rdma.DataIOSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Populate(records, nil); err != nil {
		t.Fatal(err)
	}
	kv, err := kvstore.Attach(client, nil, store)
	if err != nil {
		t.Fatal(err)
	}
	kv.PrimeCache(records)
	elapsed := time.Since(start)
	// A primed key's GET is one data READ, no index probe.
	if err := kv.Get(uint64(records-1), func([]byte, error) {}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if kv.OneSidedGets() != 1 || kv.ProbeReads() != 0 {
		t.Fatalf("GET of the last primed key cost %d READs and %d probes", kv.OneSidedGets(), kv.ProbeReads())
	}
	return float64(elapsed.Nanoseconds()) / float64(records)
}

// TestWriteFleetBenchJSON measures the fleet-scale hot path and writes
// BENCH_fleet.json: aggregate events per wall-second and resident bytes
// per client at 10^3/10^4/10^5 clients, with the QP-context cache model
// off and on. The committed baseline at the repo root is gated by
// scripts/bench_gate.py on four machine-independent quantities:
//
//   - events_per_client_ratio: events/sec at 10^5 clients relative to
//     10^3 (cache off). Per-event cost must stay flat as the per-client
//     working set grows 100x — the SoA-slab claim. Both sides of the
//     ratio run in the same process, so runner speed cancels out.
//   - the per-point simulated event counts, which are deterministic and
//     must match the baseline exactly (any drift is a determinism
//     regression, not noise).
//   - bytes_per_client at 10^5 clients, against an absolute 6 KiB
//     ceiling: a HeapAlloc difference, the same on any runner.
//   - store_load_ratio: ns per record of loading and priming the store
//     at 2^16 records relative to 2^12, against the committed baseline
//     (fails more than 20% above it). A loader that walks its own full
//     table's probe chains, which grow with the table, pays them per
//     record, and the ratio rises: it read 2.5-3.1 while each key's chain
//     was walked once. Placing through the next-free table walks none,
//     so per-record cost is flat and the ratio reads 0.7-1.0, the fixed
//     cost of a store spread over fewer records at 2^12. Same process,
//     interleaved, so runner speed cancels.
//
// Skips unless BENCH_FLEET_JSON names the output path, so normal `go
// test` runs are unaffected.
func TestWriteFleetBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_FLEET_JSON")
	if path == "" {
		t.Skip("set BENCH_FLEET_JSON=<path> to write the fleet bench artifact")
	}

	type point struct {
		Clients        int     `json:"clients"`
		QPCache        bool    `json:"qp_cache"`
		Events         uint64  `json:"events"`
		EventsPerSec   float64 `json:"events_per_sec"`
		BytesPerClient float64 `json:"bytes_per_client"`
	}

	run := func(clients int, cache bool) point {
		specs := fleetSpecs(clients, clients/10)
		cfg := testConfig(Haechi)
		cfg.Seed = 6
		if cache {
			cfg.Fabric.QPCacheSize = 1024
			cfg.Fabric.QPCacheMissPenalty = 0.25
		}
		before := heapAlloc()
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		after := heapAlloc()
		start := time.Now()
		res, err := cl.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return point{
			Clients:        clients,
			QPCache:        cache,
			Events:         res.EventsExecuted,
			EventsPerSec:   float64(res.EventsExecuted) / time.Since(start).Seconds(),
			BytesPerClient: float64(after-before) / float64(clients),
		}
	}

	// Warm-up pass so the first measured point doesn't also pay
	// first-run costs (the ratio's denominator is the smallest fleet).
	run(1_000, false)

	var points []point
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, cache := range []bool{false, true} {
			points = append(points, run(n, cache))
		}
	}

	// The gated ratio compares (10^5, off) against (10^3, off). A single
	// 10^5 rep swings with GC timing, so run the pair interleaved and
	// take the median ratio — the same noise scheme as the wheel/heap
	// speedup.
	const reps = 3
	ratios := []float64{points[4].EventsPerSec / points[0].EventsPerSec}
	for rep := 1; rep < reps; rep++ {
		small := run(1_000, false)
		big := run(100_000, false)
		ratios = append(ratios, big.EventsPerSec/small.EventsPerSec)
	}
	sort.Float64s(ratios)

	// The store load, small and large interleaved like the pair above. One
	// untimed load of each first: the 256 MB region's first allocation is
	// page faults, every later one reuses the span.
	const loadReps = 9
	storeLoadNsPerRecord(t, 1<<12)
	storeLoadNsPerRecord(t, 1<<16)
	var loadRatios []float64
	for rep := 0; rep < loadReps; rep++ {
		small := storeLoadNsPerRecord(t, 1<<12)
		big := storeLoadNsPerRecord(t, 1<<16)
		loadRatios = append(loadRatios, big/small)
	}
	sort.Float64s(loadRatios)

	doc := map[string]any{
		"points":                  points,
		"events_per_client_ratio": ratios[reps/2],
		"store_load_ratio":        loadRatios[loadReps/2],
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("clients=%d cache=%v: %d events, %.2fM ev/s, %.0f B/client",
			p.Clients, p.QPCache, p.Events, p.EventsPerSec/1e6, p.BytesPerClient)
	}
	t.Logf("events_per_client_ratio %.3f (median of %d interleaved reps)", ratios[reps/2], reps)
	t.Logf("store_load_ratio %.3f (median of %d interleaved reps; all %.3f)", loadRatios[loadReps/2], loadReps, loadRatios)
}
