package cluster

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/haechi-qos/haechi/internal/workload"
)

// TestWriteObserveBenchJSON augments the kernel benchmark artifact with
// the observability overhead figure: a figure-scale sharded run, blind
// vs fully observed (spans + metrics + sanitizer), interleaved reps,
// median of the per-rep events-per-wall-second ratios. CI sets
// BENCH_OBSERVE_JSON to the bench JSON the sim writer just produced;
// this hook reads it back, adds "observe_overhead", and rewrites it so
// scripts/bench_gate.py can compare the ratio against the committed
// BENCH_kernel.json baseline. Without the env var it skips, so normal
// `go test` runs are unaffected.
func TestWriteObserveBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_OBSERVE_JSON")
	if path == "" {
		t.Skip("set BENCH_OBSERVE_JSON=<kernel bench json> to add the observe-overhead figure")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading kernel bench artifact: %v (run TestWriteKernelBenchJSON first)", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	run := func(observe bool) float64 {
		specs := make([]ClientSpec, 6)
		for i := range specs {
			specs[i] = ClientSpec{
				Reservation:    1200,
				Demand:         ConstantDemand(1500),
				UpdateFraction: 0.05,
			}
		}
		specs[5].Pattern = workload.Poisson{}
		cfg := testConfig(Haechi)
		cfg.Seed = 42
		cfg.Shards = 4
		if observe {
			cfg.Sanitize = true
			cfg.Observe = &Observe{
				FlightSpans:     4096,
				MetricsInterval: DefaultMetricsInterval(cfg.Params.Period),
			}
		}
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := cl.Run(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.EventsExecuted) / time.Since(start).Seconds()
	}
	// Warm-up pass so neither side pays first-run costs in the timed reps.
	run(false)
	run(true)
	// Interleave blind and observed reps so a slow phase of a shared
	// runner hits both sides about equally, and take the median ratio —
	// the same noise-robustness scheme as the wheel/heap speedup.
	const reps = 5
	var ratios []float64
	var blind, observed float64
	for rep := 0; rep < reps; rep++ {
		b := run(false)
		o := run(true)
		if b > blind {
			blind = b
		}
		if o > observed {
			observed = o
		}
		ratios = append(ratios, o/b)
	}
	sort.Float64s(ratios)
	doc["observe_events_per_sec"] = observed
	doc["observe_overhead"] = ratios[reps/2]
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("blind %.2fM ev/s, observed %.2fM ev/s, observe_overhead %.3f (median of %d reps)",
		blind/1e6, observed/1e6, ratios[reps/2], reps)
}

// BenchmarkClusterNew times cluster.New alone, at the shapes whose setup
// differs: the paper's record store under ten clients (the store load
// dominates), the same records over four data nodes (each node loads a
// quarter and primes the whole keyspace) and a small store under a fleet
// (per-client state does). It is the way to profile setup without a run
// in the picture:
//
//	go test ./internal/cluster -run '^$' -bench ClusterNew -benchtime 20x \
//	    -cpuprofile /tmp/new.prof -o /tmp/cluster.test
//	go tool pprof -top /tmp/cluster.test /tmp/new.prof
func BenchmarkClusterNew(b *testing.B) {
	for _, shape := range []struct {
		name                      string
		records, servers, clients int
	}{
		{"records=65536/clients=10", 1 << 16, 1, 10},
		{"records=65536/servers=4", 1 << 16, 4, 10},
		{"records=4096/clients=2500", 1 << 12, 1, 2500},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cfg, specs := newShape(shape.records, shape.servers, shape.clients)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newShape is the configuration BenchmarkClusterNew and
// TestClusterNewServersLinear build: records over servers data nodes,
// each table sized by ApplyScale, and clients tenants.
func newShape(records, servers, clients int) (Config, []ClientSpec) {
	cfg := testConfig(Haechi)
	cfg.Scale = 10
	cfg.Store.Capacity = 0 // ApplyScale sizes it for Records
	cfg.Records = records
	cfg.Servers = servers
	specs := make([]ClientSpec, clients)
	for i := range specs {
		specs[i] = ClientSpec{Demand: ConstantDemand(1)}
	}
	return cfg, specs
}

// TestClusterNewServersLinear: a store is loaded and primed without
// walking its probe chains, so spreading the records over more data nodes
// costs about what one node costs. Priming used to walk the whole full
// table for every key a node does not hold — about 100 times the
// one-server build at two and four servers.
func TestClusterNewServersLinear(t *testing.T) {
	build := func(servers int) time.Duration {
		cfg, specs := newShape(1<<15, servers, 10)
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			if _, err := New(cfg, specs); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	one := build(1)
	for _, servers := range []int{2, 4} {
		if got := build(servers); got > 4*one {
			t.Errorf("cluster.New over %d servers took %v, more than 4 times the one-server %v", servers, got, one)
		}
	}
}
