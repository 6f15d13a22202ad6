package bench

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/workload"
)

// Workload is one named benchmark input. Names are normative: later
// issues cite "metric M on workload W".
type Workload struct {
	Name string
	// Why is the one-line rationale (mirrored in BENCHMARK.json).
	Why string
	// Loop states the simulated arrival discipline. On the host side
	// every workload is one closed, single-threaded event loop.
	Loop string
}

// Plan is everything one repetition of a workload needs. Only Config.Seed
// carries the workload seed into the program; nothing in it names the
// workload.
type Plan struct {
	Config cluster.Config
	Specs  []cluster.ClientSpec
	// Floors is each client's per-period obligation floor in completed
	// I/Os (0 = the client carries no obligation): R_i in QoS modes,
	// 0.9 x demand for the unreserved open-loop clients of bare_mixed_rw.
	Floors []uint64
	// Warmup and Measure are the run windows in QoS periods.
	Warmup, Measure int
}

// Workloads lists the benchmark's workloads in reporting order.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "qos_backlogged",
			Why:  "Fig. 9(b) shape: Haechi, 10 backlogged readers, Zipf reservations over 90% of C_G; nearly all host time is data path (sim stations, rdma QP pipeline, kvstore GET), core is a thin token gate",
			Loop: "burst: each client posts R_i+pool at every period start (backlogged)",
		},
		{
			Name: "bare_mixed_rw",
			Why:  "Bare mode bypasses core entirely: paced and Poisson arrivals at 70% of C_G, half one-sided WRITEs, shallow queues; a read-path or burst-path gain that costs writes or paced arrivals shows here",
			Loop: "open: even clients constant-rate, odd clients Poisson, 70% of C_G in aggregate",
		},
		{
			Name: "fleet_control",
			Why:  "Set 6 shape at 2500 tenants over a 1024-entry QP cache: host time is engine ticks, monitor scans, reports and FAAs over per-client state; data I/O is starved at the control-plane wall",
			Loop: "burst: each client posts R_i+share (at least 1) at every period start",
		},
		{
			Name: "chaos_sharded_observed",
			Why:  "every layer added since the sharded kernel switched on at once: 3 shards, Set 5 fault scenario, sanitizer, flight spans and metrics sampling; the only workload where those layers run",
			Loop: "burst: each client posts R_i+pool at every period start (backlogged), through crash, outage and NIC degradation",
		},
	}
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// set5Shifted is the Set 5 acceptance scenario (chaos preset "set5")
// shifted by the one warm-up period, so its clocks start at the measure
// window the way experiments.Set5 runs it.
const set5Shifted = "crash@3.25:c=0;restart@6.5:c=0;outage@8.25+1.25;degrade@11.25+1.5:factor=4"

// capacityPerPeriod is C_G per QoS period at the given scale (1570K
// I/Os at full scale), the budget reservations are sized against.
func capacityPerPeriod(scale float64) uint64 {
	full := rdma.NewDefaultConfig().ServerOneSidedRate * core.NewDefaultParams().Period.Seconds()
	return uint64(full / scale)
}

// baseConfig is the cluster configuration every workload starts from:
// paper-calibrated fabric and protocol constants at the given scale, a
// store just large enough for the records, single-worker execution.
func baseConfig(mode cluster.Mode, scale float64, records int, seed int64) cluster.Config {
	cfg := cluster.NewDefaultConfig()
	cfg.Mode = mode
	cfg.Scale = scale
	storeCap := 1
	for storeCap < records {
		storeCap <<= 1
	}
	cfg.Store = kvstore.Options{Capacity: storeCap, RecordSize: rdma.DataIOSize}
	cfg.Records = records
	cfg.Seed = seed
	cfg.ShardWorkers = 1
	return cfg
}

// qosSpecs builds burst-pattern tenants with reservation res[i] and a
// constant per-period demand.
func qosSpecs(res []uint64, demand func(i int) uint64) ([]cluster.ClientSpec, []uint64) {
	specs := make([]cluster.ClientSpec, len(res))
	for i := range specs {
		specs[i] = cluster.ClientSpec{
			Reservation: int64(res[i]),
			Demand:      cluster.ConstantDemand(demand(i)),
			Pattern:     workload.Burst{},
		}
	}
	return specs, res
}

// backlogged is the Experiment 2A demand model: every tenant asks for
// its reservation plus the whole initial global pool.
func backlogged(res []uint64, capacity uint64) ([]cluster.ClientSpec, []uint64) {
	pool := capacity - workload.Sum(res)
	return qosSpecs(res, func(i int) uint64 { return res[i] + pool })
}

// Plan builds the workload for one repetition. quick selects the
// tier-1 smoke size: the same shape at scale 400 with short windows, a
// 200-tenant fleet and 1024 records.
func (w Workload) Plan(seed int64, quick bool) (Plan, error) {
	const clients = 10
	scale, records := 10.0, 1<<16
	if quick {
		scale, records = 400, 1024
	}
	switch w.Name {
	case "qos_backlogged":
		capacity := capacityPerPeriod(scale)
		res, err := workload.ZipfGroupSplit(uint64(0.9*float64(capacity)), clients, 5, 0.6)
		if err != nil {
			return Plan{}, err
		}
		specs, floors := backlogged(res, capacity)
		p := Plan{Config: baseConfig(cluster.Haechi, scale, records, seed), Specs: specs, Floors: floors, Warmup: 1, Measure: 5}
		if quick {
			p.Measure = 1
		}
		return p, nil

	case "bare_mixed_rw":
		demand := workload.UniformSplit(uint64(0.7*float64(capacityPerPeriod(scale))), clients)
		specs := make([]cluster.ClientSpec, clients)
		floors := make([]uint64, clients)
		for i := range specs {
			specs[i] = cluster.ClientSpec{
				Demand:         cluster.ConstantDemand(demand[i]),
				Pattern:        workload.ConstantRate{},
				UpdateFraction: 0.5,
			}
			if i%2 == 1 {
				specs[i].Pattern = workload.Poisson{}
			}
			floors[i] = demand[i] * 9 / 10
		}
		p := Plan{Config: baseConfig(cluster.Bare, scale, records, seed), Specs: specs, Floors: floors, Warmup: 1, Measure: 5}
		if quick {
			p.Measure = 1
		}
		return p, nil

	case "fleet_control":
		tenants := 2500
		if quick {
			tenants = 200
		} else {
			records = 4096
		}
		specs, floors := fleetTenants(tenants, scale)
		cfg := baseConfig(cluster.Haechi, scale, records, seed)
		cfg.Fabric.QPCacheSize = 1024
		cfg.Fabric.QPCacheMissPenalty = 0.25
		if quick {
			// Keep the fleet larger than the QP-context cache.
			cfg.Fabric.QPCacheSize = 64
		}
		p := Plan{Config: cfg, Specs: specs, Floors: floors, Warmup: 1, Measure: 2}
		if quick {
			p.Measure = 1
		}
		return p, nil

	case "chaos_sharded_observed":
		// The scenario needs its full 13-period window, so this workload
		// buys its repetitions with scale instead of a shorter window;
		// host cost per event is scale-independent.
		if !quick {
			scale = 40
		}
		capacity := capacityPerPeriod(scale)
		specs, floors := backlogged(workload.UniformSplit(uint64(0.8*float64(capacity)), clients), capacity)
		cfg := baseConfig(cluster.Haechi, scale, records, seed)
		cfg.Chaos = set5Shifted
		cfg.Sanitize = true
		cfg.Shards = 3
		cfg.Observe = &cluster.Observe{
			FlightSpans:     4096,
			MetricsInterval: cluster.DefaultMetricsInterval(cfg.Params.Period),
		}
		p := Plan{Config: cfg, Specs: specs, Floors: floors, Warmup: 1, Measure: 13}
		if quick {
			// Half the window, with the ladder's compressed scenario.
			p.Config.Chaos, p.Measure = ladderChaos, ladderMeasure
		}
		return p, nil
	}
	return Plan{}, fmt.Errorf("bench: unknown workload %q", w.Name)
}

// Ladder load: the same saturating closed loop on every rung.
const (
	ladderClients = 10
	ladderWindow  = 64
	ladderRecords = 4096
	ladderWarmup  = 1
	ladderMeasure = 6
	// ladderChaos is the Set 5 acceptance scenario compressed into the
	// ladder's 7-period run: the same crash-to-restart gap (3.25 periods,
	// enough for suspicion and reclamation), then degradation and outage.
	// The outage comes last: at the seed a sub-period outage followed by
	// another measured period trips the reservation-floor-survivor check.
	ladderChaos = "crash@1.25:c=0;restart@4.5:c=0;degrade@5.25+0.5:factor=4;outage@6.25+0.5"
)

// ladderIOs is the number of I/Os the harness-driven rungs issue: what
// the cluster rungs complete at capacity over the same window.
func ladderIOs(quick bool) uint64 {
	return (ladderWarmup + ladderMeasure) * capacityPerPeriod(ladderScale(quick))
}

func ladderScale(quick bool) float64 {
	if quick {
		return 400
	}
	return 40
}

// ClusterRungs are the ladder rungs assembled by cluster.New, bottom to
// top; each adds one layer to the rung below it.
var ClusterRungs = []string{"workload", "core", "sanitize", "observe", "shard", "chaos"}

// LadderPlan builds the cluster for one of ClusterRungs.
func LadderPlan(rung string, seed int64, quick bool) (Plan, error) {
	level := -1
	for i, r := range ClusterRungs {
		if r == rung {
			level = i
		}
	}
	if level < 0 {
		return Plan{}, fmt.Errorf("bench: unknown cluster rung %q", rung)
	}
	scale := ladderScale(quick)
	mode := cluster.Bare
	if level >= 1 {
		mode = cluster.Haechi
	}
	cfg := baseConfig(mode, scale, ladderRecords, seed)
	specs := make([]cluster.ClientSpec, ladderClients)
	for i := range specs {
		specs[i] = cluster.ClientSpec{Pattern: workload.Burst{Window: ladderWindow}}
	}
	if level >= 1 {
		res := workload.UniformSplit(uint64(0.9*float64(capacityPerPeriod(scale))), ladderClients)
		for i := range specs {
			specs[i].Reservation = int64(res[i])
		}
	}
	cfg.Sanitize = level >= 2
	if level >= 3 {
		cfg.Observe = &cluster.Observe{
			FlightSpans:     4096,
			MetricsInterval: cluster.DefaultMetricsInterval(cfg.Params.Period),
		}
	}
	if level >= 4 {
		cfg.Shards = 3
	}
	if level >= 5 {
		cfg.Chaos = ladderChaos
	}
	return Plan{Config: cfg, Specs: specs, Warmup: ladderWarmup, Measure: ladderMeasure}, nil
}

// fleetTenants is Set 6's tenant shape: 60% of C_G reserved by an even
// split, demand R_i plus an even share of the pool. Every tenant wants
// at least one I/O per period, so once the split degenerates into a
// reserved and a best-effort tier the latter competes for the pool
// instead of idling.
func fleetTenants(tenants int, scale float64) ([]cluster.ClientSpec, []uint64) {
	capacity := capacityPerPeriod(scale)
	res := workload.UniformSplit(6*capacity/10, tenants)
	share := (capacity - workload.Sum(res)) / uint64(tenants)
	return qosSpecs(res, func(i int) uint64 {
		if d := res[i] + share; d > 0 {
			return d
		}
		return 1
	})
}

// FleetRungPlan builds one side of the fleet rung pair: the
// fleet_control tenant shape at 10 000 clients in the given mode, one
// warm-up and one measured period.
func FleetRungPlan(mode cluster.Mode, seed int64, quick bool) Plan {
	tenants, scale := 10_000, 10.0
	if quick {
		tenants, scale = 100, 400
	}
	specs, _ := fleetTenants(tenants, scale)
	if mode == cluster.Bare {
		for i := range specs {
			specs[i].Reservation = 0
		}
	}
	cfg := baseConfig(mode, scale, ladderRecords, seed)
	cfg.Fabric.QPCacheSize = 1024
	cfg.Fabric.QPCacheMissPenalty = 0.25
	return Plan{Config: cfg, Specs: specs, Warmup: 1, Measure: 1}
}
