package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/kvstore"
)

// Options control experiment size. The defaults run each experiment at
// 1/10 capacity with short windows — fast, with the paper's shapes
// intact. cmd/haechibench exposes flags for full-scale, full-length runs.
type Options struct {
	// Scale divides all fabric rates (1 = the paper's full rates). All
	// reported numbers are multiplied back by Scale so they read in
	// paper units.
	Scale float64
	// WarmupPeriods and MeasurePeriods set the run windows (the paper
	// uses 30 + 30 displayed of 120 measured).
	WarmupPeriods  int
	MeasurePeriods int
	// Clients is the number of client nodes (the paper's testbed has 10).
	Clients int
	// Records is the KV store population (the paper loads 1M 4 KB
	// records; the default keeps memory modest — record count does not
	// influence the timing model).
	Records int
	// Seed drives all randomness.
	Seed int64
	// Parallel is the number of independent cluster runs an experiment
	// may execute concurrently (each on its own kernel). 0 or 1 runs
	// sequentially. Results are merged by sweep index, so the output is
	// identical at any worker count; see internal/parallel. When
	// Parallel > 1 and Observe is set, the OnResults hook must be safe
	// for concurrent use and its invocation order is not deterministic.
	Parallel int
	// Observe, when non-nil, enables the observability layer (per-I/O
	// flight-recorder spans, metrics sampling) on every cluster the
	// experiment constructs. Use its OnResults hook to capture each
	// run's Results — experiments that compare modes run several
	// clusters internally, and each one reports through the hook.
	Observe *cluster.Observe
	// Shards partitions every cluster the experiment builds onto
	// per-shard simulation kernels (see cluster.Config.Shards). Like
	// Scale, it is part of the experiment definition: multi-shard output
	// is deterministic but differs from one-shard output.
	Shards int
	// ShardWorkers drives the sharded kernels concurrently (see
	// cluster.Config.ShardWorkers). Pure concurrency — output is
	// identical at any value.
	ShardWorkers int
	// Sanitize enables the runtime invariant sanitizer on every cluster
	// the experiment constructs (see cluster.Config.Sanitize). The
	// checks are passive: results are byte-identical with it on or off,
	// but an invariant breach fails the run.
	Sanitize bool
	// Chaos injects a fault scenario (an internal/chaos grammar string or
	// preset name) into every cluster the experiment constructs; empty
	// disables injection. Scenario times count fractional QoS periods
	// from run start, so pick them against WarmupPeriods+MeasurePeriods.
	// Injection is deterministic: a chaos run replays byte-identically
	// like a fault-free one. Set 5 ignores this and supplies its own
	// scenarios.
	Chaos string
}

// NewDefaultOptions returns the fast defaults.
func NewDefaultOptions() Options {
	return Options{
		Scale:          10,
		WarmupPeriods:  2,
		MeasurePeriods: 5,
		Clients:        10,
		Records:        4096,
		Seed:           42,
	}
}

// PaperOptions returns the paper's dimensions: full rates, 30 warm-up
// periods and 30 displayed periods, 10 clients.
func PaperOptions() Options {
	return Options{
		Scale:          1,
		WarmupPeriods:  30,
		MeasurePeriods: 30,
		Clients:        10,
		Records:        1 << 16,
		Seed:           42,
	}
}

// validate normalizes zero values.
func (o Options) validate() (Options, error) {
	if o.Scale == 0 {
		o.Scale = 10
	}
	if o.Scale < 1 {
		return o, fmt.Errorf("experiments: Scale must be >= 1, got %v", o.Scale)
	}
	if o.WarmupPeriods == 0 {
		o.WarmupPeriods = 2
	}
	if o.MeasurePeriods == 0 {
		o.MeasurePeriods = 5
	}
	if o.Clients == 0 {
		o.Clients = 10
	}
	if o.Records == 0 {
		o.Records = 4096
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Parallel < 0 {
		return o, fmt.Errorf("experiments: Parallel must be >= 0, got %d", o.Parallel)
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("experiments: Shards must be >= 0, got %d", o.Shards)
	}
	return o, nil
}

// tagged returns a copy of the options whose Observe is cloned with
// RunTag set to run. Every experiment tags each internal cluster run
// with a deterministic sequence number, so an OnResults capturer can
// order artifacts by run index even when a parallel sweep completes
// runs out of order. No-op when Observe is nil.
func (o Options) tagged(run int) Options {
	if o.Observe == nil {
		return o
	}
	ob := *o.Observe
	ob.RunTag = run
	o.Observe = &ob
	return o
}

// workers returns the worker count for parallel.Map sweeps.
func (o Options) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

// baseConfig builds the cluster config for this option set.
func (o Options) baseConfig(mode cluster.Mode) cluster.Config {
	cfg := cluster.NewDefaultConfig()
	cfg.Mode = mode
	cfg.Scale = o.Scale
	cfg.Store = kvstore.Options{Capacity: kvstore.CapacityFor(o.Records), RecordSize: 4096}
	cfg.Records = o.Records
	cfg.Seed = o.Seed
	cfg.Observe = o.Observe
	cfg.Shards = o.Shards
	cfg.ShardWorkers = o.ShardWorkers
	cfg.Sanitize = o.Sanitize
	cfg.Chaos = o.Chaos
	return cfg
}

// capacityPerPeriod returns the scaled C_G per QoS period (the token
// budget the paper's experiments size reservations against: 1570K at
// full scale).
func (o Options) capacityPerPeriod() int64 {
	return int64(1_570_000 / o.Scale)
}

// localCapacityPerPeriod returns the scaled C_L per period (400K at full
// scale).
func (o Options) localCapacityPerPeriod() int64 {
	return int64(400_000 / o.Scale)
}
