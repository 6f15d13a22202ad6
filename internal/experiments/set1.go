package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/workload"
)

// TableI reports the simulated testbed configuration, standing in for the
// paper's Table I (Chameleon hardware). It makes no runs.
func TableI(o Options) (*Plan, error) {
	cfg, err := o.Base.ApplyScale()
	if err != nil {
		return nil, err
	}
	return &Plan{Render: func([]*cluster.Results) *Report {
		t := &Table{
			Title:  "Simulated testbed configuration (substitutes Table I)",
			Header: []string{"parameter", "value"},
		}
		f := cfg.Fabric
		t.AddRow("paper testbed", "11x Chameleon servers, Xeon E5-2670v3, ConnectX-3, InfiniBand")
		t.AddRow("substitute", "discrete-event simulated fabric (internal/rdma)")
		t.AddRow("scale divisor", fmt.Sprintf("%.0f", o.Base.Scale))
		t.AddRow("client 1-sided rate (C_L)", fmt.Sprintf("%.0f IOPS (full-scale %.0fK)", f.ClientOneSidedRate, f.ClientOneSidedRate*o.Base.Scale/1000))
		t.AddRow("client 2-sided rate", fmt.Sprintf("%.0f IOPS (full-scale %.0fK)", f.ClientTwoSidedRate, f.ClientTwoSidedRate*o.Base.Scale/1000))
		t.AddRow("server 1-sided rate (C_G)", fmt.Sprintf("%.0f IOPS (full-scale %.0fK)", f.ServerOneSidedRate, f.ServerOneSidedRate*o.Base.Scale/1000))
		t.AddRow("server 2-sided rate", fmt.Sprintf("%.0f IOPS (full-scale %.0fK)", f.ServerTwoSidedRate, f.ServerTwoSidedRate*o.Base.Scale/1000))
		t.AddRow("propagation delay", f.PropagationDelay.String())
		t.AddRow("service jitter", fmt.Sprintf("%.1f%%", 100*f.Jitter))
		t.AddRow("record size", "4096 B")
		t.AddRow("records populated", fmt.Sprintf("%d", cfg.Records))
		t.AddRow("QoS period T", cfg.Params.Period.String())
		t.AddRow("tick / check / report", fmt.Sprintf("%v / %v / %v", cfg.Params.Tick, cfg.Params.CheckInterval, cfg.Params.ReportInterval))
		t.AddRow("FAA batch B", fmt.Sprintf("%d", cfg.Params.Batch))
		return &Report{
			Caption: "Testbed configuration (Table I substitute)",
			Tables:  []*Table{t},
		}
	}}, nil
}

// Fig6 reproduces Experiment 1A: the saturation throughput of each client
// run one at a time, one-sided vs two-sided.
func Fig6(o Options) (*Plan, error) {
	var runs []RunSpec
	for c := 1; c <= o.Clients; c++ {
		seed := o.Base.Seed + int64(c-1)
		runs = append(runs,
			o.saturationRun(fmt.Sprintf("C%d 1-sided", c), 1, false, seed),
			o.saturationRun(fmt.Sprintf("C%d 2-sided", c), 1, true, seed))
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		t := &Table{
			Title:  "Per-client saturation throughput (burst-64, one client at a time)",
			Header: []string{"client", "1-sided", "2-sided", "2-sided/1-sided"},
		}
		var sum1, sum2 float64
		for c := 0; c < o.Clients; c++ {
			one, two := outs[2*c].ThroughputPerPeriod, outs[2*c+1].ThroughputPerPeriod
			sum1 += one
			sum2 += two
			t.AddRow(fmt.Sprintf("C%d", c+1), kiops(one, o.Base.Scale), kiops(two, o.Base.Scale),
				fmt.Sprintf("%.2f", two/one))
		}
		return &Report{
			Caption: "Throughput of clients run separately with 1-sided and 2-sided I/Os (Fig. 6)",
			Tables:  []*Table{t},
			Notes: []string{
				fmt.Sprintf("mean 1-sided %s, mean 2-sided %s (paper: ~400K and ~327K, 2-sided ~20%% lower)",
					kiops(sum1/float64(o.Clients), o.Base.Scale), kiops(sum2/float64(o.Clients), o.Base.Scale)),
			},
		}
	}}, nil
}

// Fig7 reproduces Experiment 1B: system throughput versus the number of
// concurrently active clients.
func Fig7(o Options) (*Plan, error) {
	var runs []RunSpec
	for n := 1; n <= o.Clients; n++ {
		runs = append(runs,
			o.saturationRun(fmt.Sprintf("%d clients 1-sided", n), n, false, o.Base.Seed),
			o.saturationRun(fmt.Sprintf("%d clients 2-sided", n), n, true, o.Base.Seed))
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		t := &Table{
			Title:  "Data node throughput vs number of active clients (burst-64)",
			Header: []string{"clients", "1-sided", "2-sided"},
		}
		for n := 1; n <= o.Clients; n++ {
			t.AddRow(fmt.Sprintf("%d", n), kiops(outs[2*n-2].ThroughputPerPeriod, o.Base.Scale), kiops(outs[2*n-1].ThroughputPerPeriod, o.Base.Scale))
		}
		return &Report{
			Caption: "Data node throughput versus number of active clients (Fig. 7)",
			Tables:  []*Table{t},
			Notes: []string{
				"expected shape: 1-sided grows ~linearly to 4 clients then saturates ~1570K;",
				"2-sided flattens almost immediately at ~430K (server CPU bound)",
			},
		}
	}}, nil
}

// saturationRun is the bare system with n saturating burst-64 clients;
// Figs. 6 and 7 read its ThroughputPerPeriod.
func (o Options) saturationRun(name string, n int, twoSided bool, seed int64) RunSpec {
	cfg := o.config(cluster.Bare)
	cfg.TwoSided = twoSided
	cfg.Seed = seed
	specs := make([]cluster.ClientSpec, n)
	for i := range specs {
		specs[i] = cluster.ClientSpec{Pattern: workload.Burst{Window: 64}}
	}
	return o.run(name, cfg, specs)
}

// Fig8 reproduces Experiment 1C: bare-system I/O completions under three
// demand-distribution x request-pattern combinations.
func Fig8(o Options) (*Plan, error) {
	total := uint64(1_580_000 / o.Base.Scale) // the paper's 1580K total demand
	uniform := workload.UniformSplit(total, o.Clients)
	high := o.Clients * 3 / 10
	spikeHigh := uint64(340_000 / o.Base.Scale)
	spikeLow := uint64(80_000 / o.Base.Scale)
	spike, err := workload.SpikeSplit(o.Clients, high, spikeHigh, spikeLow)
	if err != nil {
		return nil, err
	}

	cases := []struct {
		name    string
		demands []uint64
		pattern workload.Pattern
	}{
		{"(a) uniform demand, burst", uniform, workload.Burst{Window: 64}},
		{"(b) spike demand, burst", spike, workload.Burst{Window: 64}},
		{"(c) spike demand, constant-rate", spike, workload.ConstantRate{}},
	}
	var runs []RunSpec
	for _, tc := range cases {
		specs := make([]cluster.ClientSpec, o.Clients)
		for i := range specs {
			specs[i] = cluster.ClientSpec{
				Demand:  cluster.ConstantDemand(tc.demands[i]),
				Pattern: tc.pattern,
			}
		}
		runs = append(runs, o.run(tc.name, o.config(cluster.Bare), specs))
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		rep := &Report{
			Caption: "I/O completions with different demand distributions and request patterns (Fig. 8)",
		}
		for ci, tc := range cases {
			res := outs[ci]
			t := &Table{
				Title:  tc.name,
				Header: []string{"client", "demand/period", "completed/period", "attainment"},
			}
			for i, cr := range res.Clients {
				t.AddRow(fmt.Sprintf("C%d", i+1),
					count(float64(tc.demands[i]), o.Base.Scale),
					count(cr.MeanPeriod, o.Base.Scale),
					fmt.Sprintf("%.0f%%", 100*cr.MeanPeriod/float64(tc.demands[i])))
			}
			t.AddRow("total", count(float64(total), o.Base.Scale), count(res.ThroughputPerPeriod, o.Base.Scale),
				fmt.Sprintf("%.0f%%", 100*res.ThroughputPerPeriod/float64(total)))
			rep.Tables = append(rep.Tables, t)
		}
		rep.Notes = append(rep.Notes,
			"expected: (a) everyone meets ~158K, total ~1570K; (b) C1-C3 miss 340K (~278K), total drops ~1380K;",
			"(c) C1-C3 near 340K again, total recovers ~1564K (local capacity C_L is the mechanism)")
		return rep
	}}, nil
}
