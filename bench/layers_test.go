package bench

import (
	"fmt"
	"time"

	"github.com/haechi-qos/haechi/internal/cluster"
)

// ladderReps is how many interleaved passes the ladder's medians are
// taken over in a traced run.
const ladderReps = 3

// tracedPass produces the per-layer metric set for one workload. It is
// a separate pass from the timed repetitions and never feeds an
// end-to-end number: the sanitized repetition 0 for the deterministic
// counters, one blind repetition for the allocator and per-event host
// costs, one observed rerun for the rdma stage breakdown (the
// blind-vs-observed difference is the tracing overhead), then the cost
// ladder. tr records a harness-side span around every call into a layer.
func tracedPass(tr *tracer, w Workload, seed int64, quick bool) (WorkloadReport, error) {
	root := tr.begin(w.Name, 0)
	defer tr.end(root)

	sp := tr.begin("rep 0 (sanitized)", root)
	rep0, plan0, digest, err := verifyRep(tr, sp, w, seed, quick)
	tr.end(sp)
	if err != nil {
		return WorkloadReport{}, err
	}
	out := newReport(w, seed, digest, rep0, plan0)
	layers := Counters(rep0.cl, rep0.res, plan0)
	if v, _ := layers.Get("sanitize.violations"); v != 0 {
		return out, fmt.Errorf("%s: sanitize.violations = %v, want 0", w.Name, v)
	}
	rep0 = rep{}

	// Blind repetition: host cost per event and the allocator's view.
	plan, err := w.Plan(seed, quick)
	if err != nil {
		return out, err
	}
	sp = tr.begin("blind rep", root)
	blind, err := runRep(tr, sp, plan)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: blind repetition: %w", w.Name, err)
	}
	sp = tr.begin("Results marshal+digest", root)
	t0 := time.Now()
	d, err := Digest(blind.res)
	resultsS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if d != digest {
		return out, fmt.Errorf("%s: blind repetition digest %.12s differs from the sanitized repetition's %.12s", w.Name, d, digest)
	}
	events := float64(blind.res.EventsExecuted)
	layers.add("sim.ns_per_event", "ns", Host, blind.wallS*1e9/events)
	layers.add("cluster.mallocs_per_kevent", "ratio", Host, float64(blind.mallocs)*1e3/events)
	layers.add("cluster.alloc_bytes_per_event", "B", Host, float64(blind.allocBytes)/events)
	layers.add("cluster.heap_bytes_per_client", "B", Host, float64(blind.heapBytes)/float64(len(plan.Specs)))
	layers.add("cluster.gc_cycles", "count", Host, float64(blind.gcCycles))
	layers.add("cluster.gc_pause_ms", "ms", Host, float64(blind.gcPauseNs)/1e6)
	layers.add("cluster.results_s", "s", Host, resultsS)
	blindWall := blind.wallS
	blind = rep{}

	// Observed rerun: the same plan with spans and metrics sampling on.
	if plan, err = w.Plan(seed, quick); err != nil {
		return out, err
	}
	if plan.Config.Observe == nil {
		plan.Config.Observe = &cluster.Observe{
			FlightSpans:     4096,
			MetricsInterval: cluster.DefaultMetricsInterval(plan.Config.Params.Period),
		}
	}
	sp = tr.begin("observed rep", root)
	observed, err := runRep(tr, sp, plan)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: observed repetition: %w", w.Name, err)
	}
	// Sampling the registry adds kernel ticker events, so the event count
	// (and with it the digest) legitimately moves; the simulated outcome
	// must not.
	for i, x := range SimOutcome(observed.res, plan) {
		if x != out.Sim[i] {
			return out, fmt.Errorf("%s: observed repetition reads %s = %v, blind %v: observation is not inert", w.Name, x.Name, x.Value, out.Sim[i].Value)
		}
	}
	layers = append(layers, ObserveCounters(observed.res)...)
	layers = append(layers, StageBreakdown(observed.res)...)
	layers.add("trace.overhead_ratio", "ratio", Host, observed.wallS/blindWall)
	observed = rep{}

	reps := ladderReps
	if quick {
		reps = 1
	}
	ladder, err := runLadder(tr, root, seed, quick, reps)
	if err != nil {
		return out, err
	}
	out.Layers = append(layers, ladder...)
	return out, nil
}
