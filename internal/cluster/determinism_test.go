package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"github.com/haechi-qos/haechi/internal/workload"
)

// TestDeterminismByteIdentical is the runtime twin of haechilint's
// static guarantee: two full experiment runs from the same seed must
// serialize to byte-identical results — every period count, every
// latency percentile, every overhead counter, every timeline point.
// TestGoldenDeterminism spot-checks a few fields; this test closes the
// gap by comparing the entire serialized Results, so nondeterminism
// hiding in any recorded quantity fails loudly.
func TestDeterminismByteIdentical(t *testing.T) {
	run := func() []byte {
		specs := make([]ClientSpec, 6)
		for i := range specs {
			specs[i] = ClientSpec{
				Reservation:    1200,
				Demand:         ConstantDemand(1500),
				UpdateFraction: 0.05,
			}
		}
		// One open-loop random-arrival client to exercise the RNG paths.
		specs[5].Pattern = workload.Poisson{}
		cfg := testConfig(Haechi)
		cfg.Seed = 42
		// Observability on: span recording and metrics sampling must not
		// perturb the event order, and their serialized forms (Stages,
		// Metrics) must themselves be byte-deterministic.
		cfg.Observe = &Observe{
			FlightSpans:     2048,
			MetricsInterval: DefaultMetricsInterval(cfg.Params.Period),
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
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		reportDivergence(t, a, b)
	}
}

// TestObservabilityInert proves the flight recorder, the metrics
// sampler, and the runtime invariant sanitizer observe without
// perturbing: the simulated outcome with any of them enabled is
// identical to the outcome without. (The metrics ticker does add kernel
// events, but pure samplers cannot shift any existing event's time or
// order; span recording adds no events at all; the sanitizer only reads
// state the run already computes and schedules nothing.)
func TestObservabilityInert(t *testing.T) {
	run := func(observe, sanitize bool, shards int) []byte {
		specs := make([]ClientSpec, 4)
		for i := range specs {
			specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1500)}
		}
		specs[3].Pattern = workload.Poisson{}
		cfg := testConfig(Haechi)
		cfg.Seed = 7
		cfg.Sanitize = sanitize
		cfg.Shards = shards
		if observe {
			cfg.Observe = &Observe{
				FlightSpans:     1024,
				MetricsInterval: DefaultMetricsInterval(cfg.Params.Period),
			}
		}
		cl, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sanitize {
			if v := cl.SanitizeViolations(); len(v) != 0 {
				t.Fatalf("sanitized run reported violations: %v", v)
			}
		}
		// Strip the observability payloads and the event count (the
		// metrics ticker adds sampling events); everything else — every
		// count, percentile and timeline — must match the blind run. On
		// the sharded path the per-shard tickers also shift the quantum
		// accounting, so the event-volume fields of the ShardingReport
		// are stripped too; the semantic fields (CrossMessages, node
		// assignment, Attribution) must still match exactly.
		res.Stages = nil
		res.Metrics = nil
		res.EventsExecuted = 0
		if res.Sharding != nil {
			res.Sharding.Quanta = 0
			res.Sharding.PerShardEvents = nil
			res.Sharding.IdleQuanta = nil
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	blind := run(false, false, 0)
	if observed := run(true, false, 0); !bytes.Equal(blind, observed) {
		reportDivergence(t, blind, observed)
	}
	if sanitized := run(false, true, 0); !bytes.Equal(blind, sanitized) {
		reportDivergence(t, blind, sanitized)
	}
	// Sharded output differs from unsharded by design; compare the
	// sharded run against its own observed and sanitized twins instead.
	// The observed twin exercises the per-shard recorder/registry path:
	// every instrument is single-writer on its own shard, so turning
	// observability on must leave the sharded outcome untouched too.
	shardedBlind := run(false, false, 3)
	if observed := run(true, false, 3); !bytes.Equal(shardedBlind, observed) {
		reportDivergence(t, shardedBlind, observed)
	}
	if sanitized := run(false, true, 3); !bytes.Equal(shardedBlind, sanitized) {
		reportDivergence(t, shardedBlind, sanitized)
	}
	if both := run(true, true, 3); !bytes.Equal(shardedBlind, both) {
		reportDivergence(t, shardedBlind, both)
	}
}

// reportDivergence fails the test naming the first differing field of two
// serialized Results and showing context around the first differing byte.
func reportDivergence(t *testing.T, a, b []byte) {
	t.Helper()
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := max(0, i-60), i+60
	ctx := func(s []byte) string {
		if lo >= len(s) {
			return ""
		}
		return string(s[lo:min(hi, len(s))])
	}
	t.Fatalf("observability/seed mismatch: different serialized results (lengths %d vs %d); first differing field %s, at byte %d:\n  run A: …%s…\n  run B: …%s…",
		len(a), len(b), firstDifferingField(a, b), i, ctx(a), ctx(b))
}

// firstDifferingField names the first place two JSON documents differ, as
// a path from the root ("Clients[3].Latency.P99"); "" when they are equal.
func firstDifferingField(a, b []byte) string {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return "(not JSON)"
	}
	return diffJSON("Results", va, vb)
}

func diffJSON(path string, a, b any) string {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return path
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := diffJSON(path+"."+k, x[k], y[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return path
		}
		for i := range x {
			if d := diffJSON(fmt.Sprintf("%s[%d]", path, i), x[i], y[i]); d != "" {
				return d
			}
		}
		return ""
	}
	if a != b { // string, float64, bool or nil
		return fmt.Sprintf("%s (%v vs %v)", path, a, b)
	}
	return ""
}

// TestKeysDoNotSteerTime is the licence for drawing keys from a stream no
// golden pins (DESIGN.md §6): which record a request names never decides
// when anything happens. Every record is primed into the location cache,
// the same size and one READ or WRITE away, so the same tenants under
// three key choosers as unlike as they come must produce the same Results
// to the byte — completions, latencies, timelines, verb and event counts,
// fault accounting — gated or bare, reading or half writing, on one kernel
// or three, with faults injected or not.
func TestKeysDoNotSteerTime(t *testing.T) {
	choosers := []struct {
		name string
		new  func(n uint64) workload.KeyChooser
	}{
		{"zipfian", func(n uint64) workload.KeyChooser {
			z, err := workload.NewScrambledZipfian(n)
			if err != nil {
				t.Fatal(err)
			}
			return z
		}},
		{"uniform", func(n uint64) workload.KeyChooser { return &workload.UniformKeys{N: n} }},
		{"sequential", func(n uint64) workload.KeyChooser { return &workload.SequentialKeys{N: n} }},
	}
	burst := ClientSpec{Reservation: 1200, Demand: ConstantDemand(2500)}
	paced := ClientSpec{Demand: ConstantDemand(2500), Pattern: workload.ConstantRate{}, UpdateFraction: 0.5}
	for _, tc := range []struct {
		name    string
		mode    Mode
		spec    ClientSpec
		shards  int
		chaos   string
		measure int
	}{
		{"haechi burst", Haechi, burst, 1, "", 3},
		{"haechi burst, 3 shards", Haechi, burst, 3, "", 3},
		{"bare paced half-writes", Bare, paced, 1, "", 3},
		{"bare paced half-writes, 3 shards", Bare, paced, 3, "", 3},
		{"haechi burst, 3 shards, set5 chaos, sanitized", Haechi, burst, 3, "set5", 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base []byte
			for _, ch := range choosers {
				cfg := testConfig(tc.mode)
				cfg.Seed = 42
				cfg.Shards = tc.shards
				cfg.Chaos = tc.chaos
				cfg.Sanitize = tc.chaos != ""
				specs := make([]ClientSpec, 6)
				for i := range specs {
					specs[i] = tc.spec
					specs[i].Keys = ch.new(uint64(cfg.Records)) // sequential keeps a cursor: one per tenant
				}
				cl, err := New(cfg, specs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(1, tc.measure)
				if err != nil {
					t.Fatalf("%s keys: %v", ch.name, err)
				}
				if res.TotalCompleted == 0 {
					t.Fatalf("%s keys: nothing completed", ch.name)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = b
				} else if !bytes.Equal(base, b) {
					t.Errorf("%s keys steer time (run A: %s keys, run B: %s keys)", ch.name, choosers[0].name, ch.name)
					reportDivergence(t, base, b)
				}
			}
		})
	}
}
