package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/trace"
)

// Metric kinds. Host numbers are wall time and memory: noisy, compared
// with bounds. Sim numbers are simulated statistics and event counts:
// they must repeat exactly for one seed, so a host-only optimisation
// that moves one has changed the model.
const (
	Host = "host"
	Sim  = "sim"
)

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// Metrics is an ordered metric list.
type Metrics []Metric

func (m *Metrics) add(name, unit, kind string, v float64) {
	*m = append(*m, Metric{Name: name, Unit: unit, Kind: kind, Value: v})
}

// Get returns the named metric's value.
func (m Metrics) Get(name string) (float64, bool) {
	for _, x := range m {
		if x.Name == name {
			return x.Value, true
		}
	}
	return 0, false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Check verifies every metric is well named, finite and unique.
func (m Metrics) Check() error {
	seen := make(map[string]bool, len(m))
	for _, x := range m {
		switch {
		case !nameRE.MatchString(x.Name):
			return fmt.Errorf("bench: bad metric name %q", x.Name)
		case !unitRE.MatchString(x.Unit):
			return fmt.Errorf("bench: metric %s: bad unit %q", x.Name, x.Unit)
		case math.IsNaN(x.Value) || math.IsInf(x.Value, 0):
			return fmt.Errorf("bench: metric %s is not finite (%v)", x.Name, x.Value)
		case seen[x.Name]:
			return fmt.Errorf("bench: metric %s reported twice", x.Name)
		}
		seen[x.Name] = true
	}
	return nil
}

// Digest is the SHA-256 of the run's Results as JSON, with the
// observability artifacts (sampled registry, span ring, stage rows)
// dropped: the identity every repetition of one (workload, seed) must
// share, the sanitized and the observed repetitions included.
func Digest(res *cluster.Results) (string, error) {
	r := *res
	r.Metrics = nil
	r.Flight = nil
	r.Stages = nil
	b, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("bench: marshalling results: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Obligations counts the run's (client, measured period) pairs that
// carry a floor and how many of them completed fewer I/Os than it. The
// count is raw: chaos excuses are not applied, and a period a crashed
// client never harvested counts as zero completions. delivered and
// owed sum min(completions, floor) and floor over the same pairs.
func Obligations(res *cluster.Results, floors []uint64) (total, missed, delivered, owed uint64) {
	for i, cr := range res.Clients {
		if i >= len(floors) || floors[i] == 0 {
			continue
		}
		for p := 0; p < res.MeasuredPeriods; p++ {
			var done uint64
			if p < len(cr.Periods) {
				done = cr.Periods[p]
			}
			total++
			owed += floors[i]
			if done < floors[i] {
				missed++
				delivered += done
			} else {
				delivered += floors[i]
			}
		}
	}
	return total, missed, delivered, owed
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// SimOutcome derives the simulated QoS outcome of one run: what a user
// of the modelled storage system would see. Every value is
// deterministic for one (workload, seed).
func SimOutcome(res *cluster.Results, plan Plan) Metrics {
	var m Metrics
	scale := res.Scale
	if scale <= 0 {
		scale = 1
	}
	total, missed, delivered, owed := Obligations(res, plan.Floors)
	m.add("sim_kiops", "KIOPS", Sim, res.ThroughputPerPeriod*scale/plan.Config.Params.Period.Seconds()/1e3)
	m.add("sim_lat_p50_us", "sim_us", Sim, res.AggregateLatency.P50.Microseconds()/scale)
	m.add("sim_lat_p999_us", "sim_us", Sim, res.AggregateLatency.P999.Microseconds()/scale)
	m.add("res_attainment", "ratio", Sim, ratio(float64(delivered), float64(owed)))
	m.add("res_miss_rate", "ratio", Sim, ratio(float64(missed), float64(total)))
	m.add("qos_nic_fraction", "ratio", Sim, res.Overhead.NICFraction)
	return m
}

// Counters harvests the deterministic work counters each module already
// exposes, named by module. cl is the cluster res came from.
func Counters(cl *cluster.Cluster, res *cluster.Results, plan Plan) Metrics {
	var m Metrics
	count := func(name string, v uint64) { m.add(name, "count", Sim, float64(v)) }

	var issued, completed, gets, puts, probes uint64
	var faa, reports, throttled uint64
	var yielded, returned, global, reserved int64
	for _, c := range cl.Clients() {
		issued += c.Gen.Issued()
		completed += c.Gen.Completed()
		gets += c.KV.OneSidedGets()
		puts += c.KV.OneSidedPuts()
		probes += c.KV.ProbeReads()
		if c.Engine != nil {
			st := c.Engine.Stats()
			faa += st.FAAIssued
			reports += st.ReportsSent
			throttled += st.LimitThrottled
			yielded += st.TokensYielded
			returned += st.TokensReturned
			global += st.GlobalConsumed
			reserved += st.ReservationUsed
		}
	}

	count("sim.events", res.EventsExecuted)
	m.add("sim.events_per_io", "ratio", Sim, ratio(float64(res.EventsExecuted), float64(completed)))

	a := res.Attribution
	count("rdma.reads", a.Reads)
	count("rdma.writes", a.Writes)
	count("rdma.fetch_adds", a.FetchAdds)
	count("rdma.cas", a.CompareSwaps)
	count("rdma.sends", a.Sends)
	count("rdma.credit_grants", a.CreditGrants)
	count("rdma.sched_dispatches", a.SchedDispatches)
	count("rdma.deliveries", a.Deliveries)
	count("rdma.mailbox_posts", a.MailboxPosts)
	m.add("rdma.qpcache_hit_rate", "ratio", Sim, ratio(float64(a.QPCacheHits), float64(a.QPCacheHits+a.QPCacheMisses)))

	count("kvstore.gets", gets)
	count("kvstore.updates", puts)
	count("kvstore.probe_reads", probes)
	m.add("kvstore.probe_ratio", "ratio", Sim, ratio(float64(probes), float64(gets)))

	count("core.faa_issued", faa)
	count("core.reports_sent", reports)
	m.add("core.tokens_yielded", "count", Sim, float64(yielded))
	m.add("core.tokens_returned", "count", Sim, float64(returned))
	m.add("core.global_consumed", "count", Sim, float64(global))
	m.add("core.reservation_used", "count", Sim, float64(reserved))
	count("core.limit_throttled", throttled)
	var conversions uint64
	if mon := cl.Monitor(); mon != nil {
		conversions = mon.ConversionCount
	}
	count("core.conversions", conversions)
	// Control verbs per completed data I/O, Set 6's definition. (The
	// OverheadReport's own DataReads is a subtraction of whole-run engine
	// totals from a measure-window counter and wraps on fleet runs.)
	o := res.Overhead
	m.add("core.ctrl_verbs_per_io", "ratio", Sim, ratio(float64(o.FAAs+o.ControlWrites+o.ControlSends), float64(res.TotalCompleted)))
	var omega float64
	if n := len(res.OmegaTimeline.Points); n > 0 {
		omega = res.OmegaTimeline.Points[n-1].V
	}
	m.add("core.omega_final", "count", Sim, omega)
	outcome := SimOutcome(res, plan)
	miss, _ := outcome.Get("res_miss_rate")
	nic, _ := outcome.Get("qos_nic_fraction")
	m.add("core.res_miss_rate", "ratio", Sim, miss)
	m.add("core.qos_nic_fraction", "ratio", Sim, nic)

	count("workload.requested", issued)
	count("workload.completed", completed)
	m.add("workload.completion_ratio", "ratio", Sim, ratio(float64(completed), float64(issued)))
	count("workload.lat_samples", res.AggregateLatency.Count)

	var quanta, cross, idle uint64
	shards := 0
	if sr := res.Sharding; sr != nil {
		quanta, cross, shards = sr.Quanta, sr.CrossMessages, sr.Shards
		for _, q := range sr.IdleQuanta {
			idle += q
		}
	}
	count("shard.quanta", quanta)
	count("shard.cross_messages", cross)
	m.add("shard.events_per_quantum", "ratio", Sim, ratio(float64(res.EventsExecuted), float64(quanta)))
	m.add("shard.idle_quanta_frac", "ratio", Sim, ratio(float64(idle), float64(quanta)*float64(shards)))

	var injected int
	var suspicions, recoveries uint64
	if fr := res.Faults; fr != nil {
		c := fr.Injected
		injected = c.Crashes + c.Restarts + c.Outages + c.Degrades + c.Storms + c.Bursts
		suspicions, recoveries = fr.Suspicions, fr.Recoveries
	}
	count("chaos.injected", uint64(injected))
	count("chaos.suspicions", suspicions)
	count("chaos.recoveries", recoveries)
	count("sanitize.violations", uint64(len(cl.SanitizeViolations())))
	return m
}

// ObserveCounters reports what the observability layer recorded in an
// observed run: finished flight spans and registry samples.
func ObserveCounters(res *cluster.Results) Metrics {
	var m Metrics
	m.add("trace.spans_finished", "count", Sim, float64(res.Flight.Finished()))
	samples := 0
	if res.Metrics != nil {
		samples = res.Metrics.Samples()
	}
	m.add("metrics.samples", "count", Sim, float64(samples))
	return m
}

// stageNames are the pipeline stages reported per layer: the flight
// recorder's stages without its "total" column.
var stageNames = trace.StageNames[:len(trace.StageNames)-1]

// StageBreakdown reports simulated time per rdma pipeline stage (mean
// and p99, full-scale-equivalent microseconds) from an observed run's
// flight recorder, merged exactly over tenants. All zero when res was
// not observed.
func StageBreakdown(res *cluster.Results) Metrics {
	scale := res.Scale
	if scale <= 0 {
		scale = 1
	}
	agg := make([]metrics.Histogram, len(stageNames))
	if res.Flight != nil {
		for _, st := range res.Flight.Stages() {
			hs := st.Histograms()
			for i := range agg {
				agg[i].Merge(hs[i])
			}
		}
	}
	var m Metrics
	for i, name := range stageNames {
		m.add("rdma.stage_mean_us."+name, "sim_us", Sim, agg[i].Mean().Microseconds()/scale)
	}
	for i, name := range stageNames {
		m.add("rdma.stage_p99_us."+name, "sim_us", Sim, agg[i].Percentile(99).Microseconds()/scale)
	}
	return m
}
