// Package haechi is a reproduction of "Haechi: A Token-based QoS
// Mechanism for One-sided I/Os in RDMA based Storage System" (Liu &
// Varman, ICDCS 2021): a work-conserving, token-based QoS layer that
// guarantees per-tenant throughput reservations and limits for silent
// one-sided RDMA I/O against a memory-resident key-value store.
//
// The package wires the full system of the paper over a deterministic
// simulated RDMA fabric (see DESIGN.md for the substitution rationale):
//
//   - a data node hosting the KV store and the Haechi QoS monitor
//     (per-period token generation, reservation pushes, global-pool
//     monitoring, token conversion, adaptive capacity estimation), and
//   - one node per tenant running a workload generator behind a Haechi
//     QoS engine (token-gated admission, batched global-token claims via
//     one-sided FETCH_ADD, silent usage reports).
//
// Quick start:
//
//	sys, err := haechi.New(haechi.Config{}, []haechi.Tenant{
//	    {Name: "gold", Reservation: 400_000, DemandPerPeriod: 500_000},
//	    {Name: "silver", Reservation: 200_000, DemandPerPeriod: 500_000},
//	})
//	...
//	report, err := sys.Run()
//	fmt.Println(report)
//
// All I/O counts are per QoS period (1 s by default), expressed at the
// configured Scale (Scale 10 divides the fabric's rates by 10; reported
// numbers stay in the scaled units).
package haechi

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// Mode selects the QoS system variant.
type Mode string

// Modes.
const (
	// ModeHaechi is the full protocol (default).
	ModeHaechi Mode = "haechi"
	// ModeBasic disables token conversion (the paper's Basic Haechi).
	ModeBasic Mode = "basic"
	// ModeBare disables QoS entirely (the paper's comparison system).
	ModeBare Mode = "bare"
)

// Pattern names a temporal request pattern.
type Pattern string

// Patterns.
const (
	// PatternBurst submits each period's whole demand at the period start
	// (the paper's QoS-experiment burst).
	PatternBurst Pattern = "burst"
	// PatternBurst64 is the closed-loop saturation pattern (64
	// outstanding requests).
	PatternBurst64 Pattern = "burst64"
	// PatternConstantRate spaces the demand evenly over the period.
	PatternConstantRate Pattern = "constant-rate"
)

// Tenant describes one client of the storage service.
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// Reservation is R_i: the minimum I/Os guaranteed per QoS period
	// (ignored in ModeBare).
	Reservation int64
	// Limit is L_i: the maximum I/Os admitted per period (0 = none).
	Limit int64
	// DemandPerPeriod is how many requests the tenant issues each period;
	// 0 means saturating demand (forces PatternBurst64).
	DemandPerPeriod uint64
	// Pattern is the request pattern; empty selects PatternBurst (or
	// PatternBurst64 for saturating demand).
	Pattern Pattern
	// KeyDistribution selects which records are read: "zipfian"
	// (default), "uniform", "latest" or "sequential".
	KeyDistribution string
	// UpdateFraction is the share of requests issued as one-sided record
	// writes instead of reads, in [0,1] (0 = read-only, the paper's
	// workload; 0.05 ≈ YCSB-B, 0.5 ≈ YCSB-A). Updates flow through the
	// same token path.
	UpdateFraction float64
}

// Config assembles a Haechi system. It is a view of the laptop preset
// (scale 10, 2 + 5 periods, 4096 records, seed 1): each field left zero
// keeps the preset's value.
type Config struct {
	// Mode selects haechi/basic/bare; empty means ModeHaechi.
	Mode Mode
	// Scale divides the paper-calibrated fabric rates (1 = full scale).
	Scale float64
	// WarmupPeriods and MeasurePeriods set the run windows.
	WarmupPeriods  int
	MeasurePeriods int
	// Records is the KV store population.
	Records int
	// Seed drives all randomness.
	Seed int64
	// FlightSpans, when positive, records a pipeline span for every
	// I/O and, in the QoS modes, every protocol event (token pushes,
	// claims, yields, pool caps, reports, capacity updates) into one
	// ring. The last N entries are retained for DumpTrace and
	// WriteChromeTrace; the per-stage breakdown and TraceSummary's
	// per-kind totals cover all of them. Works in every mode.
	FlightSpans int
	// MetricsInterval, when positive, samples a metrics registry
	// (kernel, NIC, engine, KV gauges) every interval of virtual time;
	// export after Run with WriteMetricsCSV.
	MetricsInterval time.Duration
	// Chaos injects a deterministic fault scenario: a preset name (such
	// as "set5") or a grammar string like
	// "crash@2.25:c=0;restart@5.5:c=0;outage@7.25+1.25". Event times
	// count fractional QoS periods from run start (warm-up included);
	// clients are indexed in tenant order. Empty disables injection.
	// The run stays fully deterministic, Report.FaultSummary describes
	// what was injected and recovered, and the failure-aware invariants
	// are enforced throughout (a violation fails Run).
	Chaos string
}

// System is an assembled cluster ready to run.
type System struct {
	cfg     Config
	names   []string
	cluster *cluster.Cluster
	results *cluster.Results
	ran     bool
}

// New builds a system: one data node plus one node per tenant. In QoS
// modes each tenant passes admission control (aggregate and local
// capacity constraints); a violation fails construction.
func New(cfg Config, tenants []Tenant) (*System, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("haechi: at least one tenant required")
	}
	ccfg := cluster.Laptop()
	switch cfg.Mode {
	case "", ModeHaechi:
		cfg.Mode = ModeHaechi
	case ModeBasic:
		ccfg.Mode = cluster.BasicHaechi
	case ModeBare:
		ccfg.Mode = cluster.Bare
	default:
		return nil, fmt.Errorf("haechi: unknown mode %q", cfg.Mode)
	}
	ccfg.Scale = cmp.Or(cfg.Scale, ccfg.Scale)
	ccfg.Records = cmp.Or(cfg.Records, ccfg.Records)
	ccfg.Seed = cmp.Or(cfg.Seed, ccfg.Seed)
	ccfg.Chaos = cfg.Chaos
	cfg.WarmupPeriods = cmp.Or(cfg.WarmupPeriods, cluster.LaptopWarmup)
	cfg.MeasurePeriods = cmp.Or(cfg.MeasurePeriods, cluster.LaptopMeasure)
	if cfg.FlightSpans > 0 || cfg.MetricsInterval > 0 {
		ccfg.Observe = &cluster.Observe{
			FlightSpans:     cfg.FlightSpans,
			MetricsInterval: sim.Time(cfg.MetricsInterval),
		}
	}

	var names []string
	var specs []cluster.ClientSpec
	for i, t := range tenants {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%d", i+1)
		}
		names = append(names, name)
		spec, err := tenantSpec(t, ccfg.Records)
		if err != nil {
			return nil, fmt.Errorf("haechi: tenant %q: %w", name, err)
		}
		specs = append(specs, spec)
	}
	cl, err := cluster.New(ccfg, specs)
	if err != nil {
		return nil, fmt.Errorf("haechi: %w", err)
	}
	return &System{cfg: cfg, names: names, cluster: cl}, nil
}

// flight returns the run's merged flight recorder, nil before Run or
// when FlightSpans is off.
func (s *System) flight() *trace.FlightRecorder {
	if s.results == nil {
		return nil
	}
	return s.results.Flight
}

// TraceSummary returns exact per-kind counts of the protocol events
// recorded over the whole run ("trace: empty" when FlightSpans is off,
// in Bare mode, or before Run).
func (s *System) TraceSummary() string {
	return s.flight().Summary()
}

// DumpTrace writes the retained timeline — I/O spans and protocol
// events together, oldest first — to w, one per line. A no-op when
// FlightSpans is off or before Run.
func (s *System) DumpTrace(w io.Writer) error {
	return s.flight().Dump(w)
}

func tenantSpec(t Tenant, records int) (cluster.ClientSpec, error) {
	spec := cluster.ClientSpec{
		Reservation:    t.Reservation,
		Limit:          t.Limit,
		UpdateFraction: t.UpdateFraction,
	}
	if t.Reservation < 0 || t.Limit < 0 {
		return spec, fmt.Errorf("negative reservation or limit")
	}
	if t.UpdateFraction < 0 || t.UpdateFraction > 1 {
		return spec, fmt.Errorf("update fraction %v outside [0,1]", t.UpdateFraction)
	}
	if t.DemandPerPeriod == 0 {
		spec.Demand = cluster.UnlimitedDemand()
	} else {
		spec.Demand = cluster.ConstantDemand(t.DemandPerPeriod)
	}
	pattern := t.Pattern
	if pattern == "" {
		if t.DemandPerPeriod == 0 {
			pattern = PatternBurst64
		} else {
			pattern = PatternBurst
		}
	}
	switch pattern {
	case PatternBurst:
		if t.DemandPerPeriod == 0 {
			return spec, fmt.Errorf("saturating demand requires %q", PatternBurst64)
		}
		spec.Pattern = workload.Burst{}
	case PatternBurst64:
		spec.Pattern = workload.Burst{Window: 64}
	case PatternConstantRate:
		if t.DemandPerPeriod == 0 {
			return spec, fmt.Errorf("constant-rate requires a finite demand")
		}
		spec.Pattern = workload.ConstantRate{}
	default:
		return spec, fmt.Errorf("unknown pattern %q", pattern)
	}
	if t.KeyDistribution != "" {
		keys, err := workload.NewChooser(t.KeyDistribution, uint64(records))
		if err != nil {
			return spec, err
		}
		spec.Keys = keys
	}
	return spec, nil
}

// Run executes the configured warm-up and measure windows and returns the
// report. Run consumes the system.
func (s *System) Run() (*Report, error) {
	if s.ran {
		return nil, fmt.Errorf("haechi: system already ran")
	}
	s.ran = true
	res, err := s.cluster.Run(s.cfg.WarmupPeriods, s.cfg.MeasurePeriods)
	if err != nil {
		return nil, err
	}
	s.results = res
	return buildReport(s, res), nil
}

// WriteChromeTrace writes the recorded I/O spans and protocol events as
// Chrome trace_event JSON — open the file in Perfetto (ui.perfetto.dev)
// or chrome://tracing. Requires FlightSpans and a completed Run.
func (s *System) WriteChromeTrace(w io.Writer) error {
	fr := s.flight()
	if fr == nil {
		return fmt.Errorf("haechi: no spans recorded (set Config.FlightSpans and call Run first)")
	}
	return trace.WriteChromeTrace(w, fr)
}

// WriteMetricsCSV writes the sampled metrics registry as CSV. Requires
// MetricsInterval and a completed Run.
func (s *System) WriteMetricsCSV(w io.Writer) error {
	if s.results == nil || s.results.Metrics == nil {
		return fmt.Errorf("haechi: no metrics sampled (set Config.MetricsInterval and call Run first)")
	}
	return s.results.Metrics.WriteCSV(w)
}

// StageBreakdown renders the per-tenant per-stage latency table from
// the recorded spans, or "" when FlightSpans is off or Run has not
// completed.
func (s *System) StageBreakdown() string {
	if s.results == nil {
		return ""
	}
	return s.results.StageBreakdown()
}

// Latency summarizes request latency (submission to completion, including
// any token-wait queueing at the engine).
type Latency struct {
	Mean time.Duration
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	Max  time.Duration
}

// TenantResult is one tenant's measured outcome.
type TenantResult struct {
	Name        string
	Reservation int64
	// PerPeriod lists completed I/Os in each measured period.
	PerPeriod []uint64
	// Total, MinPeriod and MeanPeriod summarize PerPeriod.
	Total      uint64
	MinPeriod  uint64
	MeanPeriod float64
	// MetReservation reports whether every measured period reached the
	// reservation.
	MetReservation bool
	// Latency is the tenant's request-latency summary.
	Latency Latency
}

// Report is a run's outcome.
type Report struct {
	Mode            Mode
	MeasuredPeriods int
	Tenants         []TenantResult
	// TotalCompleted and ThroughputPerPeriod aggregate all tenants.
	TotalCompleted      uint64
	ThroughputPerPeriod float64
	// QoSOverheadFraction is the share of data-node NIC capacity spent
	// serving token-management verbs (QoS modes only).
	QoSOverheadFraction float64
	// EstimatedCapacity is the monitor's final per-period capacity
	// estimate (QoS modes only).
	EstimatedCapacity int64
	// FaultSummary describes the injected fault scenario and its
	// recovery accounting ("" unless Config.Chaos was set).
	FaultSummary string
}

func buildReport(s *System, res *cluster.Results) *Report {
	rep := &Report{
		Mode:                s.cfg.Mode,
		MeasuredPeriods:     res.MeasuredPeriods,
		TotalCompleted:      res.TotalCompleted,
		ThroughputPerPeriod: res.ThroughputPerPeriod,
		QoSOverheadFraction: res.Overhead.NICFraction,
	}
	if mon := s.cluster.Monitor(); mon != nil {
		rep.EstimatedCapacity = mon.Estimator().Current()
	}
	if fr := res.Faults; fr != nil {
		rep.FaultSummary = fmt.Sprintf("scenario %q", fr.Scenario)
		if fr.MonitorOutages > 0 {
			rep.FaultSummary += fmt.Sprintf("; %d monitor outage(s) totaling %v",
				fr.MonitorOutages, fr.MonitorOutageTime)
		}
		if fr.Suspicions > 0 {
			rep.FaultSummary += fmt.Sprintf("; %d crash suspicion(s), %d reinstatement(s)",
				fr.Suspicions, fr.Recoveries)
		}
		for _, cf := range fr.Clients {
			if cf.Crashes > 0 {
				rep.FaultSummary += fmt.Sprintf("; %s crashed %dx", s.names[cf.Index], cf.Crashes)
				if cf.RejoinPeriod > 0 {
					rep.FaultSummary += fmt.Sprintf(" (rejoined period %d)", cf.RejoinPeriod)
				}
			}
		}
	}
	for i, cr := range res.Clients {
		rep.Tenants = append(rep.Tenants, TenantResult{
			Name:           s.names[i],
			Reservation:    cr.Reservation,
			PerPeriod:      cr.Periods,
			Total:          cr.Total,
			MinPeriod:      cr.MinPeriod,
			MeanPeriod:     cr.MeanPeriod,
			MetReservation: cr.MetReservation,
			Latency: Latency{
				Mean: toDuration(cr.Latency.Mean),
				P50:  toDuration(cr.Latency.P50),
				P99:  toDuration(cr.Latency.P99),
				P999: toDuration(cr.Latency.P999),
				Max:  toDuration(cr.Latency.Max),
			},
		})
	}
	return rep
}

func toDuration(t sim.Time) time.Duration { return time.Duration(int64(t)) }

// String renders the report as a table.
func (r *Report) String() string {
	out := fmt.Sprintf("mode=%s periods=%d throughput=%.0f/period", r.Mode, r.MeasuredPeriods, r.ThroughputPerPeriod)
	if r.EstimatedCapacity > 0 {
		out += fmt.Sprintf(" capacity≈%d", r.EstimatedCapacity)
	}
	out += "\n"
	for _, t := range r.Tenants {
		flag := ""
		if t.Reservation > 0 {
			if t.MetReservation {
				flag = "  [reservation met]"
			} else {
				flag = "  [RESERVATION MISSED]"
			}
		}
		out += fmt.Sprintf("  %-12s R=%-9d min=%-9d mean=%-11.0f p99=%v%s\n",
			t.Name, t.Reservation, t.MinPeriod, t.MeanPeriod, t.Latency.P99, flag)
	}
	if r.QoSOverheadFraction > 0 {
		out += fmt.Sprintf("  qos overhead: %.3f%% of data-node NIC time\n", 100*r.QoSOverheadFraction)
	}
	if r.FaultSummary != "" {
		out += fmt.Sprintf("  faults: %s\n", r.FaultSummary)
	}
	return out
}

// Capacity describes the simulated testbed's calibrated limits at a given
// scale, in I/Os per second.
type Capacity struct {
	// PerClientOneSided is C_L.
	PerClientOneSided float64
	// AggregateOneSided is C_G.
	AggregateOneSided float64
	// AggregateTwoSided is the server-CPU-bound RPC rate.
	AggregateTwoSided float64
}

// DefaultCapacity returns the paper-calibrated fabric's capacities
// divided by scale, for sizing reservations.
func DefaultCapacity(scale float64) Capacity {
	if scale <= 0 {
		scale = cluster.Laptop().Scale
	}
	f := cluster.NewDefaultConfig().Fabric.Scaled(scale)
	return Capacity{
		PerClientOneSided: f.ClientOneSidedRate,
		AggregateOneSided: f.ServerOneSidedRate,
		AggregateTwoSided: f.ServerTwoSidedRate,
	}
}
