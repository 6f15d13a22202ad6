// Congestion: background traffic outside Haechi's control appears
// mid-run and silently consumes data-node capacity. The adaptive capacity
// estimator (Algorithm 1) detects the reduced completion totals and
// shrinks the per-period token budget so reservations stay protected —
// the paper's Experiment Set 4.
package main

import (
	"fmt"
	"log"

	haechi "github.com/haechi-qos/haechi"
)

func main() {
	const scale = 10
	const periods = 24

	tenants := make([]haechi.Tenant, 10)
	for i := range tenants {
		// 70% of capacity reserved, uniformly.
		tenants[i] = haechi.Tenant{
			Name:            fmt.Sprintf("tenant-%02d", i+1),
			Reservation:     11_000,
			DemandPerPeriod: 31_000,
		}
	}
	// Record into the flight recorder so the run is not blind: the
	// summary line at the end counts every capacity update and token
	// push of the run, not only those the 4096-entry ring still holds.
	sys, err := haechi.New(haechi.Config{Scale: scale, MeasurePeriods: periods, FlightSpans: 4096}, tenants)
	if err != nil {
		log.Fatal(err)
	}
	// Three uncontrolled background streams start at period 8 and stop at
	// period 16.
	if err := sys.ScheduleCongestion(8, 16, 3, 64); err != nil {
		log.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("period   total I/Os   phase")
	totals := make([]float64, periods)
	for _, t := range rep.Tenants {
		for p, n := range t.PerPeriod {
			if p < periods {
				totals[p] += float64(n)
			}
		}
	}
	for p, v := range totals {
		phase := "clean"
		if p >= 7 && p < 15 {
			phase = "congested"
		}
		fmt.Printf("%4d   %10.0f   %s\n", p+1, v, phase)
	}
	fmt.Printf("\nfinal capacity estimate: %d I/Os per period\n", rep.EstimatedCapacity)
	fmt.Println(sys.TraceSummary())
	fmt.Println("throughput dips while the background jobs run, then recovers as the")
	fmt.Println("estimator climbs back (+eta per period) — the paper's Figs. 16-19.")
}
