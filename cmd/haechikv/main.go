// Command haechikv is an interactive demo of the Haechi-protected KV
// store: it assembles a data node plus a set of tenants described on the
// command line, runs the configured windows, and prints each tenant's QoS
// attainment.
//
// Tenants are described as name:reservation[:limit[:demand]], e.g.
//
//	haechikv -scale 10 -tenants gold:40000:0:60000,silver:20000,probe:0:0:30000
//
// Reservations and demands are I/Os per QoS period at the chosen scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	haechi "github.com/haechi-qos/haechi"
	"github.com/haechi-qos/haechi/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	laptop := cluster.Laptop()
	fs := flag.NewFlagSet("haechikv", flag.ContinueOnError)
	var (
		tenantsFlag = fs.String("tenants", "gold:30000:0:45000,silver:15000:0:30000,bronze:8000:0:20000",
			"comma-separated tenants: name:reservation[:limit[:demand]]")
		mode      = fs.String("mode", "haechi", "haechi | basic | bare")
		scale     = fs.Float64("scale", laptop.Scale, "fabric scale divisor (1 = full scale)")
		warmup    = fs.Int("warmup", cluster.LaptopWarmup, "warm-up periods")
		periods   = fs.Int("periods", cluster.LaptopMeasure, "measured periods")
		records   = fs.Int("records", laptop.Records, "records populated")
		seed      = fs.Int64("seed", laptop.Seed, "random seed")
		chaosSpec = fs.String("chaos", "", "inject a deterministic fault scenario (a preset such as set5, or e.g. 'crash@2.25:c=0;restart@5.5:c=0'; times in periods from run start, clients in tenant order)")
		traceCap  = fs.Int("trace", 0, "record I/O spans and protocol events, print exact per-kind event totals, and dump the last N spans and events")
		traceDump = fs.String("trace-dump", "", "record I/O spans and protocol events and write them as Chrome trace_event JSON to this file (open in Perfetto); keeps the last -trace entries, or 10000")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haechikv: %v\n", err)
		return 2
	}
	cfg := haechi.Config{
		Mode:           haechi.Mode(*mode),
		Scale:          *scale,
		WarmupPeriods:  *warmup,
		MeasurePeriods: *periods,
		Records:        *records,
		Seed:           *seed,
		FlightSpans:    *traceCap,
		Chaos:          *chaosSpec,
	}
	if *traceDump != "" && cfg.FlightSpans == 0 {
		cfg.FlightSpans = 10000
	}
	sys, err := haechi.New(cfg, tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haechikv: %v\n", err)
		return 1
	}
	cap := haechi.DefaultCapacity(*scale)
	fmt.Fprintf(out, "capacity at scale %.0f: C_G=%.0f IOPS one-sided, C_L=%.0f per client\n\n",
		*scale, cap.AggregateOneSided, cap.PerClientOneSided)
	rep, err := sys.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "haechikv: %v\n", err)
		return 1
	}
	fmt.Fprint(out, rep.String())
	if *traceCap > 0 {
		fmt.Fprintln(out)
		fmt.Fprintln(out, sys.TraceSummary())
		if err := sys.DumpTrace(out); err != nil {
			fmt.Fprintf(os.Stderr, "haechikv: dumping trace: %v"+"\n", err)
			return 1
		}
	}
	if *traceDump != "" {
		if tbl := sys.StageBreakdown(); tbl != "" {
			fmt.Fprintln(out)
			fmt.Fprint(out, tbl)
		}
		f, err := os.Create(*traceDump)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haechikv: %v\n", err)
			return 1
		}
		err = sys.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "haechikv: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "trace written to %s (open in ui.perfetto.dev)\n", *traceDump)
	}
	return 0
}

func parseTenants(s string) ([]haechi.Tenant, error) {
	var tenants []haechi.Tenant
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("tenant %q: want name:reservation[:limit[:demand]]", item)
		}
		t := haechi.Tenant{Name: parts[0]}
		vals := make([]int64, 0, 3)
		for _, p := range parts[1:] {
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad number %q", item, p)
			}
			vals = append(vals, v)
		}
		t.Reservation = vals[0]
		if len(vals) > 1 {
			t.Limit = vals[1]
		}
		if len(vals) > 2 {
			if vals[2] < 0 {
				return nil, fmt.Errorf("tenant %q: bad number %q", item, parts[3])
			}
			t.DemandPerPeriod = uint64(vals[2])
		} else {
			// Default demand: 120% of the reservation (finite, so the
			// burst pattern applies); pure best-effort tenants saturate.
			if t.Reservation > 0 {
				t.DemandPerPeriod = uint64(t.Reservation + t.Reservation/5)
			}
		}
		tenants = append(tenants, t)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("no tenants given")
	}
	return tenants, nil
}
