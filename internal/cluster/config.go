// Package cluster wires the full testbed the paper evaluates: one data
// node running the KV store (and, in QoS modes, the Haechi monitor), N
// client nodes each running a workload generator (and, in QoS modes, a
// QoS engine), connected by the simulated RDMA fabric. Config.Servers
// makes the data node several — the paper's stated future work (§V) —
// with the records sharded key mod S, an unmodified monitor per node and
// each tenant's reservation split into per-node slices. It runs
// warm-up/measure windows and harvests per-period completions, latency
// histograms, throughput timelines and protocol-overhead counters — the
// raw material for every figure in the paper.
package cluster

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/workload"
)

// Mode selects the QoS system under test.
type Mode int

// Modes.
const (
	// Bare is the paper's comparison system: one-sided I/Os with no QoS.
	Bare Mode = iota + 1
	// Haechi is the full protocol.
	Haechi
	// BasicHaechi disables token conversion (Experiment 2B's strawman).
	BasicHaechi
)

func (m Mode) String() string {
	switch m {
	case Bare:
		return "bare"
	case Haechi:
		return "haechi"
	case BasicHaechi:
		return "basic-haechi"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DemandFn maps a period index (1-based) to the number of requests the
// client wants served that period.
type DemandFn func(period int) uint64

// ConstantDemand returns a DemandFn with the same target every period.
func ConstantDemand(n uint64) DemandFn { return func(int) uint64 { return n } }

// UnlimitedDemand keeps the client saturated (profiling experiments).
func UnlimitedDemand() DemandFn { return func(int) uint64 { return workload.InfiniteDemand } }

// ClientSpec describes one tenant.
type ClientSpec struct {
	// Reservation is R_i per period (QoS modes only): the tenant's total
	// across the data nodes, split equally between them at admission.
	Reservation int64
	// Limit is L_i per period; 0 = unlimited. One engine enforces it, so
	// it needs Servers == 1.
	Limit int64
	// Demand is the per-period request target; nil means unlimited.
	Demand DemandFn
	// Pattern is the temporal request pattern; nil means Burst{} (submit
	// the whole demand at period start, the paper's QoS-experiment form).
	Pattern workload.Pattern
	// Keys selects which records are read; nil means YCSB zipfian over
	// the populated keyspace.
	Keys workload.KeyChooser
	// UpdateFraction is the YCSB-style share of requests issued as
	// one-sided record WRITEs instead of READs (0 = read-only, the
	// paper's workload; 0.05 = YCSB-B).
	UpdateFraction float64
}

// Config assembles a testbed.
type Config struct {
	// Mode selects bare/Haechi/Basic-Haechi.
	Mode Mode
	// Fabric is the performance model; zero value means the
	// paper-calibrated defaults.
	Fabric rdma.Config
	// Params are the Haechi protocol constants; zero value means paper
	// defaults.
	Params core.Params
	// Scale divides all fabric rates by this factor (0 or 1 = full
	// scale) and rescales the control-plane constants to preserve the
	// paper's control:data cost ratios (see core.Params.Scaled).
	Scale float64
	// Servers is the number of data nodes (0 means 1). Data node s holds
	// the records whose key ≡ s mod Servers and runs its own monitor; a
	// tenant holds one engine per data node and a key picks which one
	// posts its request.
	Servers int
	// RebalanceEvery moves each tenant's per-node reservation slices
	// toward its observed demand split every this many periods (see
	// rebalance.go); 0 keeps the equal split. Needs Servers > 1 to do
	// anything and one shard to read the demand counts.
	RebalanceEvery int
	// Store configures each data node's KV store. A zero Capacity is the
	// smallest table that holds each node's share of Records (64Ki slots
	// when Records is 0 too); a zero RecordSize is 4 KB.
	Store kvstore.Options
	// Records is the number of records populated across the data nodes
	// (and the keyspace of the default chooser); 0 fills every store to
	// half its capacity.
	Records int
	// TwoSided switches the data path to two-sided RPC GETs (the
	// comparison curves of Figs. 6-7): bare mode, one shard only.
	TwoSided bool
	// Sigma is the profiled capacity's standard deviation; 0 derives 1%
	// of the profiled capacity.
	Sigma float64
	// Seed drives all randomness; 0 means 1.
	Seed int64
	// Observe enables the observability layer (flight-recorder spans
	// and metrics sampling); nil disables it. See Observe.
	Observe *Observe
	// Chaos is a fault-scenario spec (a chaos.Parse grammar string or a
	// preset name such as "set5"); empty disables fault injection. The
	// scenario compiles to virtual-time injections pre-scheduled on the
	// owning components' kernels at setup, so a chaos run is exactly as
	// deterministic as a fault-free one. Results.Faults reports the
	// injection and recovery accounting. Chaos turns Sanitize on, so the
	// failure-aware invariants (internal/sanitize's package doc) are
	// enforced throughout. A scenario that crashes a client also turns on the
	// monitor's failure detection with the shortest grace that tolerates
	// one missed end-of-period report (2 periods): without it the crashed
	// reservation would stay stranded. The grammar has no server
	// selector, so Chaos needs Servers == 1.
	Chaos string
	// Sanitize enables the runtime invariant sanitizer; its package doc
	// (internal/sanitize) lists the invariants. The checks are passive
	// reads — a sanitized run is byte-identical to an unsanitized one
	// (TestObservabilityInert) — and violations surface as an error from
	// Run. Off (false), the hooks are nil and the hot path pays one
	// pointer comparison.
	Sanitize bool

	// Shards partitions the cluster onto per-shard simulation kernels
	// that advance in lockstep under the conservative quantum protocol
	// (internal/sim/shard): the data node (with the monitor, store and
	// background jobs) on shard 0, clients hashed by name across the
	// rest. 0 means 1: everything on one kernel, the same run loop with
	// nothing to coordinate. Like the profiling shard count, Shards is
	// part of the experiment definition: a multi-shard run is
	// deterministic and replayable but NOT byte-identical to the
	// one-shard run (cross-shard completions interleave by wire arrival
	// instead of a shared kernel's global tie order, and flow-control
	// credits return one propagation later — see DESIGN.md §9). Clamped
	// to the number of clients + 1.
	Shards int
	// ShardWorkers is kept only because the benchmark harness (bench/)
	// sets it; 0 and 1 are accepted and mean nothing, since every
	// quantum runs on the calling goroutine. ApplyScale refuses larger
	// values. It goes when the harness stops naming it, ahead of the
	// shard kernel's own deletion (ROADMAP item 1).
	ShardWorkers int
}

// NewDefaultConfig returns a full-scale Haechi testbed configuration
// with the paper-calibrated fabric and protocol constants filled in.
func NewDefaultConfig() Config {
	return Config{
		Mode:   Haechi,
		Fabric: rdma.NewDefaultConfig(),
		Params: core.NewDefaultParams(),
		Scale:  1,
		Seed:   1,
	}
}

// The two run sizes the repo uses, as presets over NewDefaultConfig.
// Laptop keeps every shape of the paper's figures at a tenth of its rates
// and runs LaptopWarmup + LaptopMeasure periods; Paper is the paper's own
// size (§III): full rates, PaperWarmup + PaperMeasure periods.
const (
	LaptopWarmup, LaptopMeasure = 2, 5
	PaperWarmup, PaperMeasure   = 30, 30
)

// Laptop returns the laptop preset: scale 10 over 4096 records.
func Laptop() Config {
	c := NewDefaultConfig()
	c.Scale, c.Records = 10, 4096
	return c
}

// Paper returns the paper preset: full rates over 1<<16 records.
func Paper() Config {
	c := NewDefaultConfig()
	c.Records = 1 << 16
	return c
}

// recordsPerNode is each data node's share of Records, rounded up; 0
// with no records.
func (c Config) recordsPerNode() int {
	if c.Records <= 0 {
		return 0
	}
	return (c.Records-1)/c.Servers + 1
}

// ApplyScale normalizes the config. It is the one place a zero field
// becomes a value: the defaults named on each field, the store capacity
// derived from Records, and Sanitize under Chaos. When Scale > 1 it also
// divides the fabric rates by Scale and rescales the control-plane
// constants to match (rdma.Config.Scaled, core.Params.Scaled), so it
// applies once, to a config that has not been through it.
func (c Config) ApplyScale() (Config, error) {
	if c.Mode == 0 {
		c.Mode = Haechi
	}
	if c.Fabric == (rdma.Config{}) {
		c.Fabric = rdma.NewDefaultConfig()
	}
	if c.Params == (core.Params{}) {
		c.Params = core.NewDefaultParams()
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale < 1 {
		return c, fmt.Errorf("cluster: Scale must be >= 1, got %v", c.Scale)
	}
	if c.Scale > 1 {
		c.Fabric = c.Fabric.Scaled(c.Scale)
		c.Params = c.Params.Scaled(c.Scale)
	}
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.Servers < 0 || c.RebalanceEvery < 0 {
		return c, fmt.Errorf("cluster: Servers and RebalanceEvery must be >= 0, got %d and %d", c.Servers, c.RebalanceEvery)
	}
	if c.Store.RecordSize == 0 {
		c.Store.RecordSize = rdma.DataIOSize
	}
	switch {
	case c.Store.Capacity != 0:
	case c.Records > 0:
		perNode := c.recordsPerNode()
		if int64(perNode) > kvstore.MaxCapacity {
			return c, fmt.Errorf("cluster: %d records on %d data node(s) is %d a node, past the %d slots a store holds",
				c.Records, c.Servers, perNode, int64(kvstore.MaxCapacity))
		}
		c.Store.Capacity = kvstore.CapacityFor(perNode)
	default:
		c.Store.Capacity = 1 << 16
	}
	if c.Records == 0 {
		c.Records = c.Store.Capacity / 2 * c.Servers
	}
	if c.Chaos != "" {
		c.Sanitize = true
	}
	if c.Records < 0 || c.recordsPerNode() > c.Store.Capacity {
		return c, fmt.Errorf("cluster: %d records outside %d store(s) of capacity %d", c.Records, c.Servers, c.Store.Capacity)
	}
	if c.Sigma == 0 {
		c.Sigma = 0.01 * float64(c.ProfiledCapacityPerPeriod())
	}
	if c.TwoSided && c.Mode != Bare {
		return c, fmt.Errorf("cluster: QoS modes require one-sided I/O (Haechi's premise); TwoSided is bare-only")
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("cluster: Shards must be >= 0, got %d", c.Shards)
	}
	if c.ShardWorkers > 1 {
		return c, fmt.Errorf("cluster: every shard runs on the calling goroutine; ShardWorkers must be 0 or 1, got %d", c.ShardWorkers)
	}
	if c.Chaos != "" && c.Servers > 1 {
		return c, fmt.Errorf("cluster: the chaos grammar has no server selector (an outage or a data-node NIC fault names no data node); Chaos needs Servers == 1, got %d", c.Servers)
	}
	if c.TwoSided && c.Shards > 1 {
		return c, fmt.Errorf("cluster: a two-sided GET's client reads the record from the data node's region on its own kernel; TwoSided needs Shards <= 1, got %d", c.Shards)
	}
	if c.RebalanceEvery > 0 && c.Shards > 1 {
		return c, fmt.Errorf("cluster: the rebalancer reads every tenant's routed counts from the data nodes' kernel; RebalanceEvery needs Shards <= 1, got %d", c.Shards)
	}
	if err := c.Fabric.Validate(); err != nil {
		return c, err
	}
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// LocalCapacityPerPeriod returns C_L*T for the config's fabric.
func (c Config) LocalCapacityPerPeriod() int64 {
	return int64(c.Fabric.ClientOneSidedRate * c.Params.Period.Seconds())
}

// ProfiledCapacityPerPeriod returns Omega_prof, one data node's C_G*T for
// the config's fabric: what its capacity estimator starts from and its
// admission controller bounds the admitted reservations by.
func (c Config) ProfiledCapacityPerPeriod() int64 {
	return int64(c.Fabric.ServerOneSidedRate * c.Params.Period.Seconds())
}
