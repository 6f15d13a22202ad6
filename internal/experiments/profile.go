package experiments

import (
	"fmt"
	"math"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
)

// Profile reproduces the paper's capacity-profiling procedure (Section
// II-E): independent one-period runs, one per measured period, of
// o.Clients saturating clients issuing back-to-back one-sided 4 KB reads
// against a bare data node. Run s is seeded Base.Seed+s. The per-run
// totals give Omega_prof and sigma, from which Algorithm 1 takes its
// lower bound Omega_prof - 3*sigma.
func Profile(o Options) (*Plan, error) {
	cfg, err := o.Base.ApplyScale()
	if err != nil {
		return nil, err
	}
	specs := make([]cluster.ClientSpec, o.Clients)
	for i := range specs {
		specs[i] = cluster.ClientSpec{Demand: cluster.UnlimitedDemand()}
	}
	runs := make([]RunSpec, o.MeasurePeriods)
	for s := range runs {
		rc := o.config(cluster.Bare)
		rc.Seed += int64(s)
		runs[s] = RunSpec{Name: fmt.Sprintf("seed %d", rc.Seed), Config: rc, Specs: specs, Warmup: 1, Measure: 1}
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		omega, sigma := profileStats(outs)
		lower := "n/a"
		if est, err := core.NewCapacityEstimator(cfg.Params, int64(omega), sigma); err == nil {
			lower = fmt.Sprintf("%d (Omega_prof - 3*sigma)", est.LowerBound())
		}
		t := &Table{
			Title:  fmt.Sprintf("%d saturating clients, %d one-period runs, bare data node", o.Clients, len(outs)),
			Header: []string{"quantity", "value"},
		}
		t.AddRow("Omega_prof", fmt.Sprintf("%.1f I/Os per period (full-scale %s)", omega, count(omega, o.Base.Scale)))
		t.AddRow("sigma", fmt.Sprintf("%.4f (%.4f%% of Omega_prof)", sigma, 100*sigma/omega))
		t.AddRow("lower bound", lower)
		t.AddRow("configured Omega_prof / sigma", fmt.Sprintf("%d / %.1f", cfg.ProfiledCapacityPerPeriod(), cfg.Sigma))
		return &Report{
			Caption: "Capacity profiling: Omega_prof and sigma (Section II-E)",
			Tables:  []*Table{t},
			Notes:   []string{"QoS runs start Algorithm 1 from the configured row (sigma defaults to 1% of Omega_prof), not from this profile"},
		}
	}}, nil
}

// profileStats returns the mean and population standard deviation of
// the runs' completed I/Os per measured period.
func profileStats(outs []*cluster.Results) (mean, sigma float64) {
	for _, out := range outs {
		mean += out.ThroughputPerPeriod
	}
	mean /= float64(len(outs))
	for _, out := range outs {
		sigma += (out.ThroughputPerPeriod - mean) * (out.ThroughputPerPeriod - mean)
	}
	return mean, math.Sqrt(sigma / float64(len(outs)))
}
