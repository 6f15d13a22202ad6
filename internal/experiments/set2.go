package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/workload"
)

// reservations builds the paper's two reservation distributions over a
// reserved fraction of the capacity.
func (o Options) reservations(dist string, reservedFraction float64) ([]int64, error) {
	total := uint64(reservedFraction * float64(o.capacityPerPeriod()))
	switch dist {
	case "uniform":
		parts := workload.UniformSplit(total, o.Clients)
		return toInt64(parts), nil
	case "zipf":
		groups := 5
		if o.Clients%groups != 0 {
			groups = o.Clients
		}
		parts, err := workload.ZipfGroupSplit(total, o.Clients, groups, 0.6)
		if err != nil {
			return nil, err
		}
		return toInt64(parts), nil
	default:
		return nil, fmt.Errorf("experiments: unknown reservation distribution %q", dist)
	}
}

func toInt64(parts []uint64) []int64 {
	out := make([]int64, len(parts))
	for i, p := range parts {
		out[i] = int64(p)
	}
	return out
}

// qosSpecs builds client specs for a QoS run: reservation R_i and demand
// R_i + pool (the paper's Experiment 2A demand model), posted at period
// start.
func (o Options) qosSpecs(res []int64, demandFor func(i int) uint64) []cluster.ClientSpec {
	specs := make([]cluster.ClientSpec, len(res))
	for i := range specs {
		specs[i] = cluster.ClientSpec{
			Reservation: res[i],
			Demand:      cluster.ConstantDemand(demandFor(i)),
			Pattern:     workload.Burst{},
		}
	}
	return specs
}

// demandRPlusPool is the Experiment 2A demand: reservation plus the whole
// initial global pool.
func (o Options) demandRPlusPool(res []int64) func(i int) uint64 {
	pool := o.capacityPerPeriod() - sumInt64(res)
	if pool < 0 {
		pool = 0
	}
	return func(i int) uint64 { return uint64(res[i] + pool) }
}

// demandRPlusShare gives each client its reservation plus an equal share
// of the initial pool, so aggregate demand equals the capacity — the
// sizing Sets 2C and 3 rely on (clients idle once their demand is done,
// exposing the local-capacity effects of Figs. 12-14).
func (o Options) demandRPlusShare(res []int64) func(i int) uint64 {
	pool := o.capacityPerPeriod() - sumInt64(res)
	if pool < 0 {
		pool = 0
	}
	share := pool / int64(len(res))
	return func(i int) uint64 { return uint64(res[i] + share) }
}

func sumInt64(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// Fig9 reproduces Experiment 2A: Haechi vs the bare system with all
// clients sufficiently backlogged, under Uniform and Zipf reservations.
func Fig9(o Options) (*Plan, error) {
	dists := []string{"uniform", "zipf"}
	var runs []RunSpec
	var reserved [][]int64
	for _, dist := range dists {
		res, err := o.reservations(dist, 0.9)
		if err != nil {
			return nil, err
		}
		reserved = append(reserved, res)
		demand := o.demandRPlusPool(res)
		runs = append(runs,
			o.run(dist+" haechi", o.config(cluster.Haechi), o.qosSpecs(res, demand)),
			o.run(dist+" bare", o.config(cluster.Bare), unreserved(o.qosSpecs(res, demand))))
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		rep := &Report{
			Caption: "Completed I/Os with sufficient demand: reservation vs Haechi vs bare (Fig. 9)",
		}
		for di, dist := range dists {
			res, qos, bare := reserved[di], outs[2*di], outs[2*di+1]
			t := &Table{
				Title:  fmt.Sprintf("(%s reservation distribution, 90%% reserved)", dist),
				Header: []string{"client", "reservation", "haechi", "bare", "haechi meets R"},
			}
			for i := range res {
				t.AddRow(fmt.Sprintf("C%d", i+1),
					count(float64(res[i]), o.Base.Scale),
					count(qos.Clients[i].MeanPeriod, o.Base.Scale),
					count(bare.Clients[i].MeanPeriod, o.Base.Scale),
					meets(qos.Clients[i].MinPeriod, res[i]))
			}
			t.AddRow("total", count(float64(sumInt64(res)), o.Base.Scale),
				count(qos.ThroughputPerPeriod, o.Base.Scale),
				count(bare.ThroughputPerPeriod, o.Base.Scale),
				fmt.Sprintf("loss %.2f%%", 100*(1-qos.ThroughputPerPeriod/bare.ThroughputPerPeriod)))
			rep.Tables = append(rep.Tables, t)
		}
		rep.Notes = append(rep.Notes,
			"expected: bare splits capacity equally regardless of reservation (Zipf high-R clients miss);",
			"Haechi meets the uniform reservations in full; under Zipf the top group reaches ~90% of R",
			"(the 90%-reserved burst point sits at the local-capacity feasibility edge: the late-period",
			"catch-up rate needed exceeds C_L — the same physics the paper uses to explain Figs. 8b/13;",
			"see EXPERIMENTS.md) while remaining far above the bare system's fair share")
		return rep
	}}, nil
}

// unreserved zeroes the specs' reservations, for the bare comparison
// runs.
func unreserved(specs []cluster.ClientSpec) []cluster.ClientSpec {
	for i := range specs {
		specs[i].Reservation = 0
	}
	return specs
}

// meets renders a reservation-attainment flag: "yes" when every measured
// period reached the reservation, otherwise the attainment percentage.
func meets(minPeriod uint64, reservation int64) string {
	if reservation <= 0 || int64(minPeriod) >= reservation {
		return "yes"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(minPeriod)/float64(reservation))
}

// Fig10and11 reproduces Experiment 2B: clients C1 and C2 have demand below
// their reservation; token conversion (Haechi) vs Basic Haechi vs bare.
func Fig10and11(o Options) (*Plan, error) {
	dists := []string{"uniform", "zipf"}
	var runs []RunSpec
	var reserved [][]int64
	for _, dist := range dists {
		res, err := o.reservations(dist, 0.9)
		if err != nil {
			return nil, err
		}
		reserved = append(reserved, res)
		full := o.demandRPlusPool(res)
		demand := func(i int) uint64 {
			if i < 2 {
				return uint64(res[i]) / 2 // C1, C2 stop early
			}
			return full(i)
		}
		runs = append(runs,
			o.run(dist+" haechi", o.config(cluster.Haechi), o.qosSpecs(res, demand)),
			o.run(dist+" basic", o.config(cluster.BasicHaechi), o.qosSpecs(res, demand)),
			o.run(dist+" bare", o.config(cluster.Bare), unreserved(o.qosSpecs(res, demand))))
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		rep := &Report{
			Caption: "Completed I/Os when C1, C2 demand < reservation: token conversion (Figs. 10, 11)",
		}
		for di, dist := range dists {
			res, haechi, basic, bare := reserved[di], outs[3*di], outs[3*di+1], outs[3*di+2]
			t := &Table{
				Title:  fmt.Sprintf("(%s reservation distribution; C1, C2 at 50%% demand)", dist),
				Header: []string{"client", "reservation", "basic haechi", "haechi", "gain"},
			}
			for i := range res {
				gain := haechi.Clients[i].MeanPeriod - basic.Clients[i].MeanPeriod
				t.AddRow(fmt.Sprintf("C%d", i+1),
					count(float64(res[i]), o.Base.Scale),
					count(basic.Clients[i].MeanPeriod, o.Base.Scale),
					count(haechi.Clients[i].MeanPeriod, o.Base.Scale),
					count(gain, o.Base.Scale))
			}
			rep.Tables = append(rep.Tables, t)

			t11 := &Table{
				Title:  fmt.Sprintf("Fig. 11 — total throughput (%s)", dist),
				Header: []string{"system", "throughput/period"},
			}
			t11.AddRow("basic haechi", count(basic.ThroughputPerPeriod, o.Base.Scale))
			t11.AddRow("haechi", count(haechi.ThroughputPerPeriod, o.Base.Scale))
			t11.AddRow("bare", count(bare.ThroughputPerPeriod, o.Base.Scale))
			rep.Tables = append(rep.Tables, t11)
		}
		rep.Notes = append(rep.Notes,
			"expected: Basic Haechi wastes C1/C2's unused tokens; Haechi converts them so C3-C10 exceed",
			"their reservations and total throughput approaches the bare system (work conservation)")
		return rep
	}}, nil
}

// Fig12 reproduces Experiment 2C: throughput as the reserved fraction of
// capacity sweeps 50-90% under Uniform and Zipf reservations.
func Fig12(o Options) (*Plan, error) {
	fracs := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	dists := []string{"uniform", "zipf"}
	// One grid point per (fraction, distribution) pair, row-major.
	var runs []RunSpec
	for _, frac := range fracs {
		for _, dist := range dists {
			res, err := o.reservations(dist, frac)
			if err != nil {
				return nil, err
			}
			runs = append(runs, o.run(fmt.Sprintf("%s %.0f%%", dist, 100*frac),
				o.config(cluster.Haechi), o.qosSpecs(res, o.demandRPlusShare(res))))
		}
	}
	return &Plan{Runs: runs, Render: func(outs []*cluster.Results) *Report {
		t := &Table{
			Title:  "Haechi throughput vs reserved capacity fraction",
			Header: []string{"reserved %", "uniform", "zipf"},
		}
		for fi, frac := range fracs {
			row := []string{fmt.Sprintf("%.0f%%", 100*frac)}
			for _, out := range outs[fi*len(dists) : (fi+1)*len(dists)] {
				row = append(row, count(out.ThroughputPerPeriod, o.Base.Scale))
			}
			t.AddRow(row...)
		}
		return &Report{
			Caption: "Throughput with varying reserved capacity and reservation distributions (Fig. 12)",
			Tables:  []*Table{t},
			Notes: []string{
				"expected: uniform stays near C_G across the sweep; zipf approaches uniform at low reserved",
				"fractions and drops as reserved % grows (global pool exhausts; low-R clients idle; the tail",
				"is limited by C_L with <4 active clients)",
			},
		}
	}}, nil
}
