package bench

// The timed half of the benchmark. It lives in test files because the
// determinism lint gate bans the wall clock everywhere else; run.sh
// reaches it through TestMain (see main_test.go).

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/haechi-qos/haechi/internal/cluster"
)

const mb = 1 << 20

// rep is one build-and-run of a plan, measured from outside.
type rep struct {
	setupS, wallS float64
	// heapBytes is the live heap cluster.New added (HeapAlloc across
	// GC'd snapshots); the rest are deltas across Cluster.Run.
	heapBytes  uint64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	cl         *cluster.Cluster
	res        *cluster.Results
}

// runRep times cluster.New and Cluster.Run for plan. A sanitizer
// violation or chaos invariant breach is an error from Run.
func runRep(tr *tracer, parent int, plan Plan) (rep, error) {
	var r rep
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	sp := tr.begin("cluster.New", parent)
	t0 := time.Now()
	cl, err := cluster.New(plan.Config, plan.Specs)
	r.setupS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return r, err
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	sp = tr.begin("Cluster.Run", parent)
	t1 := time.Now()
	res, err := cl.Run(plan.Warmup, plan.Measure)
	r.wallS = time.Since(t1).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&m2)
	if err != nil {
		return r, err
	}

	if m1.HeapAlloc > m0.HeapAlloc {
		r.heapBytes = m1.HeapAlloc - m0.HeapAlloc
	}
	r.allocBytes = m2.TotalAlloc - m1.TotalAlloc
	r.mallocs = m2.Mallocs - m1.Mallocs
	r.gcCycles = m2.NumGC - m1.NumGC
	r.gcPauseNs = m2.PauseTotalNs - m1.PauseTotalNs
	r.cl, r.res = cl, res
	return r, nil
}

// verifyRep runs the untimed repetition 0: the workload with the
// sanitizer forced on. It warms the process and fixes the digest every
// timed repetition must reproduce.
func verifyRep(tr *tracer, parent int, w Workload, seed int64, quick bool) (rep, Plan, string, error) {
	plan, err := w.Plan(seed, quick)
	if err != nil {
		return rep{}, plan, "", err
	}
	plan.Config.Sanitize = true
	r, err := runRep(tr, parent, plan)
	if err != nil {
		return r, plan, "", fmt.Errorf("%s: sanitized repetition: %w", w.Name, err)
	}
	if v := r.cl.SanitizeViolations(); len(v) != 0 {
		return r, plan, "", fmt.Errorf("%s: %d sanitizer violations, first: %v", w.Name, len(v), v[0])
	}
	digest, err := Digest(r.res)
	return r, plan, digest, err
}

// newReport starts a workload's report from its verification repetition:
// the deterministic half, shared by every later repetition.
func newReport(w Workload, seed int64, digest string, rep0 rep, plan Plan) WorkloadReport {
	total, missed, _, _ := Obligations(rep0.res, plan.Floors)
	return WorkloadReport{
		Name:        w.Name,
		Seed:        seed,
		Digest:      digest,
		Obligations: total,
		Missed:      missed,
		Events:      rep0.res.EventsExecuted,
		Completed:   rep0.res.TotalCompleted,
		Sim:         SimOutcome(rep0.res, plan),
	}
}

// minReps is the fewest timed repetitions a median is taken over.
const minReps = 3

// blindPass measures one workload with tracing off: repetition 0
// untimed and sanitized, then timed blind repetitions until seconds of
// measured time have passed. Host metrics are per-repetition samples
// (times reported as the minimum, memory as the median; see
// Sample.Stat); the simulated outcome must be identical on every
// repetition or the workload fails.
func blindPass(log io.Writer, w Workload, seed int64, seconds float64, quick bool) (WorkloadReport, error) {
	rep0, plan0, digest, err := verifyRep(nil, 0, w, seed, quick)
	if err != nil {
		return WorkloadReport{}, err
	}
	out := newReport(w, seed, digest, rep0, plan0)
	rep0 = rep{} // release the verification cluster before timing

	host := []Sample{
		{Name: "wall_s", Unit: "s", Stat: "min"},
		{Name: "setup_s", Unit: "s", Stat: "min"},
		{Name: "heap_mb", Unit: "MB", Stat: "median"},
		{Name: "run_alloc_mb", Unit: "MB", Stat: "median"},
	}
	start := time.Now()
	for n := 0; n < minReps || time.Since(start).Seconds() < seconds; n++ {
		plan, err := w.Plan(seed, quick)
		if err != nil {
			return out, err
		}
		r, err := runRep(nil, 0, plan)
		if err != nil {
			return out, fmt.Errorf("%s: repetition %d: %w", w.Name, n+1, err)
		}
		d, err := Digest(r.res)
		if err != nil {
			return out, err
		}
		if d != digest {
			return out, fmt.Errorf("%s: repetition %d digest %.12s differs from the sanitized repetition's %.12s: the run is not deterministic",
				w.Name, n+1, d, digest)
		}
		for i, v := range []float64{r.wallS, r.setupS, float64(r.heapBytes) / mb, float64(r.allocBytes) / mb} {
			host[i].Values = append(host[i].Values, v)
		}
		fmt.Fprintf(log, "  rep %d: setup %.3fs  run %.3fs  heap %.1fMB  alloc %.1fMB\n",
			n+1, r.setupS, r.wallS, float64(r.heapBytes)/mb, float64(r.allocBytes)/mb)
	}
	out.Host = host
	return out, nil
}

// endToEnd flattens a blind report into the metric set printed by name:
// host statistics first, then the simulated outcome.
func endToEnd(w WorkloadReport) Metrics {
	var m Metrics
	for _, s := range w.Host {
		m.add(s.Name, s.Unit, Host, s.Value())
	}
	return append(m, w.Sim...)
}

// printBlind renders one workload's end-to-end metrics by name and unit,
// with quartiles and the repetition count for the host ones.
func printBlind(out io.Writer, w WorkloadReport) {
	fmt.Fprintf(out, "%s  seed=%d  events=%d  ops_attempted=%d ops_failed=%d  digest=%.12s\n",
		w.Name, w.Seed, w.Events, w.Obligations, w.Missed, w.Digest)
	for _, s := range w.Host {
		q1, med, q3 := Quartiles(s.Values)
		fmt.Fprintf(out, "  %-18s %-7s [host] %.6g  (%s of %d reps; median %.6g, quartiles [%.6g, %.6g])\n",
			s.Name, s.Unit, s.Value(), s.Stat, len(s.Values), med, q1, q3)
	}
	for _, x := range w.Sim {
		fmt.Fprintf(out, "  %-18s %-7s [sim]  %.10g\n", x.Name, x.Unit, x.Value)
	}
}
