package cluster

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestWriteFleetBenchJSON measures the fleet-scale hot path and writes
// BENCH_fleet.json: aggregate events per wall-second and resident bytes
// per client at 10^3/10^4/10^5 clients, with the QP-context cache model
// off and on. The committed baseline at the repo root is gated by
// scripts/bench_gate.py on three machine-independent quantities:
//
//   - events_per_client_ratio: events/sec at 10^5 clients relative to
//     10^3 (cache off). Per-event cost must stay flat as the per-client
//     working set grows 100x — the SoA-slab claim. Both sides of the
//     ratio run in the same process, so runner speed cancels out.
//   - the per-point simulated event counts, which are deterministic and
//     must match the baseline exactly (any drift is a determinism
//     regression, not noise).
//   - bytes_per_client at 10^5 clients, against an absolute 16 KiB
//     ceiling: a HeapAlloc difference, the same on any runner.
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
		specs := make([]ClientSpec, clients)
		for i := range specs {
			r := int64(0)
			if i < clients/10 {
				r = 1 // thin reserved tier, like Set 6's fleet regime
			}
			specs[i] = ClientSpec{Reservation: r, Demand: ConstantDemand(1)}
		}
		cfg := testConfig(Haechi)
		cfg.Seed = 6
		if cache {
			cfg.Fabric.QPCacheSize = 1024
			cfg.Fabric.QPCacheMissPenalty = 0.25
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
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
			BytesPerClient: float64(after.HeapAlloc-before.HeapAlloc) / float64(clients),
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

	doc := map[string]any{
		"points":                  points,
		"events_per_client_ratio": ratios[reps/2],
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
}
