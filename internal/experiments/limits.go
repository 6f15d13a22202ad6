package experiments

import (
	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/parallel"
)

// Limits exercises the L_i mechanism the paper describes but does not
// evaluate (Section II-B: "It may also have a specified limit L_i equal
// to the maximum number of I/Os it should receive in the period"): a
// runaway tenant is swept through limit values while a victim tenant's
// attainment is recorded. This is an extension experiment.
func Limits(o Options) (*Report, error) {
	if _, err := o.validate(); err != nil {
		return nil, err
	}
	capacity := o.capacityPerPeriod()
	runawayRes := capacity / 10
	victimRes := capacity * 4 / 10
	if victimRes > o.localCapacityPerPeriod()*9/10 {
		victimRes = o.localCapacityPerPeriod() * 9 / 10
	}

	t := &Table{
		Title: "runaway tenant limit sweep (reservation 10% of C_G, demand 3x capacity)",
		Header: []string{"limit", "runaway/period", "victim/period", "victim meets R",
			"best-effort/period", "total"},
	}
	limitFracs := []float64{0, 0.5, 0.25, 0.125}
	outs, err := parallel.Map(o.workers(), len(limitFracs), func(i int) (*cluster.Results, error) {
		limit := int64(float64(capacity) * limitFracs[i])
		specs := []cluster.ClientSpec{
			{ // the runaway: huge demand, optionally capped
				Reservation: runawayRes,
				Limit:       limit,
				Demand:      cluster.ConstantDemand(uint64(capacity) * 3),
			},
			{ // the victim: a large reservation with matching demand
				Reservation: victimRes,
				Demand:      cluster.ConstantDemand(uint64(victimRes) + uint64(victimRes)/10),
			},
			{ // a best-effort tenant that absorbs what the limit frees
				Demand: cluster.ConstantDemand(uint64(capacity)),
			},
		}
		return o.runQoS(cluster.Haechi, specs, nil)
	})
	if err != nil {
		return nil, err
	}
	for i, limitFrac := range limitFracs {
		limit := int64(float64(capacity) * limitFrac)
		out := outs[i]
		label := "none"
		if limit > 0 {
			label = count(float64(limit), o.Base.Scale)
		}
		t.AddRow(label,
			count(out.Clients[0].MeanPeriod, o.Base.Scale),
			count(out.Clients[1].MeanPeriod, o.Base.Scale),
			meets(out.Clients[1].MinPeriod, victimRes),
			count(out.Clients[2].MeanPeriod, o.Base.Scale),
			count(out.ThroughputPerPeriod, o.Base.Scale))
	}
	return &Report{
		ID:      "limits",
		Caption: "Limit enforcement (extension; the paper describes but does not evaluate L_i)",
		Tables:  []*Table{t},
		Notes: []string{
			"expected: the victim's reservation holds at every limit setting (limits and",
			"reservations are independent); with only three clients each is bounded by its own",
			"NIC (C_L), so the tightest limit leaves capacity idle — the paper's note that 'the",
			"system will idle if all clients having requests have reached their limits'",
		},
		Runs: outs,
	}, nil
}
