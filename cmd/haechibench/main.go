// Command haechibench regenerates the paper's evaluation tables and
// figures (Section III) on the simulated testbed.
//
// Usage:
//
//	haechibench -experiment fig9           # one experiment (see -list)
//	haechibench -all                       # every experiment in order
//	haechibench -all -paper                # full-scale, paper-length runs
//	haechibench -experiment fig12 -scale 5 -periods 10
//
// Experiment ids accept both figure names (fig6..fig18) and the paper's
// experiment numbering (1a, 1b, 1c, 2a, 2b, 2c, 3, 4over, 4under).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/experiments"
	"github.com/haechi-qos/haechi/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The sizing flags write straight into opts and show the laptop
	// preset's values as their defaults. -paper swaps in the paper preset
	// after parsing, and a second parse lays the flags given explicitly
	// back over it.
	opts := experiments.NewDefaultOptions()
	fs := flag.NewFlagSet("haechibench", flag.ContinueOnError)
	fs.Float64Var(&opts.Base.Scale, "scale", opts.Base.Scale, "fabric scale divisor (1 = full scale)")
	fs.IntVar(&opts.WarmupPeriods, "warmup", opts.WarmupPeriods, "warm-up periods")
	fs.IntVar(&opts.MeasurePeriods, "periods", opts.MeasurePeriods, "measured periods")
	fs.IntVar(&opts.Clients, "clients", opts.Clients, "client nodes")
	fs.IntVar(&opts.Base.Records, "records", opts.Base.Records, "records populated in the KV store")
	fs.Int64Var(&opts.Base.Seed, "seed", opts.Base.Seed, "random seed")
	fs.IntVar(&opts.Parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent cluster runs per experiment sweep (output is identical at any value)")
	fs.IntVar(&opts.Base.Shards, "shards", 0, "partition each cluster onto this many shard kernels (0/1 = single kernel; changes output like -scale does)")
	fs.BoolVar(&opts.Base.Sanitize, "sanitize", false, "enable runtime invariant checks (token conservation, pool floor, event order; output is identical, violations fail the run)")
	fs.StringVar(&opts.Base.Chaos, "chaos", "", "inject a fault scenario into every cluster run (a preset such as set5, or a grammar string like 'crash@2.25:c=0;restart@5.5:c=0'; deterministic, and sanitized)")
	var (
		experiment = fs.String("experiment", "", "experiment id to run (see -list)")
		all        = fs.Bool("all", false, "run every experiment")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		paper      = fs.Bool("paper", false, "start from the paper preset: full scale, 30+30 periods, 65536 records (slow); other flags given override it")
		csvDir     = fs.String("csv", "", "also write each table as CSV into this directory")
		traceOut   = fs.String("trace", "", "write per-I/O spans as Chrome trace_event JSON (open in Perfetto); multi-run experiments get -NN suffixes")
		traceSpans = fs.Int("trace-spans", 10000, "span ring capacity for -trace (histograms always cover every span)")
		metricsOut = fs.String("metrics", "", "write sampled metrics as CSV; multi-run experiments get -NN suffixes")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (after GC) to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *paper {
		parallel := opts.Parallel
		opts = experiments.PaperOptions()
		opts.Parallel = parallel
		_ = fs.Parse(args) // parsed once already
	}
	if *traceOut != "" && *traceSpans < 1 {
		fmt.Fprintf(os.Stderr, "haechibench: -trace needs -trace-spans >= 1, got %d\n", *traceSpans)
		return 2
	}
	if *list {
		fmt.Println("experiments:", strings.Join(experiments.Known(), " "))
		fmt.Println("aliases:", strings.Join(experiments.Aliases(), " "))
		return 0
	}
	// Wall-clock profiling of the simulator itself. Orthogonal to the
	// virtual-time attribution profile in Results: pprof says where host
	// CPU goes, Attribution says which simulated work the kernel executed.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haechibench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "haechibench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile: %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeFile(*memProfile, func(f *os.File) error {
				runtime.GC() // materialize the retained-heap picture
				return pprof.WriteHeapProfile(f)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "haechibench: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "heap profile: %s\n", *memProfile)
		}()
	}

	exp := &exporter{traceOut: *traceOut, metricsOut: *metricsOut}
	if *traceOut != "" || *metricsOut != "" {
		// Artifact export works at any -parallel value: experiments
		// return their runs in sweep order, so the knob does not change
		// the bytes written.
		ob := &cluster.Observe{}
		if *traceOut != "" {
			ob.FlightSpans = *traceSpans
		}
		if *metricsOut != "" {
			ob.MetricsInterval = cluster.DefaultMetricsInterval(core.NewDefaultParams().Period)
		}
		opts.Base.Observe = ob
	}

	switch {
	case *all:
		for _, id := range experiments.Order {
			if err := runOne(id, opts, *csvDir, exp); err != nil {
				fmt.Fprintf(os.Stderr, "haechibench: %s: %v\n", id, err)
				return 1
			}
		}
		return 0
	case *experiment != "":
		if err := runOne(*experiment, opts, *csvDir, exp); err != nil {
			fmt.Fprintf(os.Stderr, "haechibench: %v\n", err)
			return 1
		}
		return 0
	default:
		fmt.Fprintln(os.Stderr, "haechibench: need -experiment <id>, -all or -list")
		fs.Usage()
		return 2
	}
}

func runOne(id string, opts experiments.Options, csvDir string, exp *exporter) error {
	start := time.Now()
	cpuStart, cpuOK := cpuSeconds()
	rep, err := experiments.Run(id, opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if csvDir != "" {
		paths, err := rep.WriteCSV(csvDir)
		if err != nil {
			return fmt.Errorf("writing CSV: %w", err)
		}
		fmt.Printf("csv: %v"+"\n", paths)
	}
	if err := exp.write(rep.Runs); err != nil {
		return err
	}
	elapsed := time.Since(start)
	cpuEnd, _ := cpuSeconds()
	cpu := cpuEnd - cpuStart
	status := fmt.Sprintf("[%s completed in %v", rep.ID, elapsed.Round(time.Millisecond))
	// Process CPU time beside wall time: on a shared machine wall time
	// moves with the neighbours, CPU time much less.
	if cpuOK {
		status += fmt.Sprintf(" (%.3f CPU-s)", cpu)
	}
	status += fmt.Sprintf(" at scale %.0f, %d+%d periods", opts.Base.Scale, opts.WarmupPeriods, opts.MeasurePeriods)
	// Events per second: the runs' deterministic kernel event counts
	// over the experiment's wall and CPU time.
	var ev uint64
	for _, r := range rep.Runs {
		ev += r.Results.EventsExecuted
	}
	if ev > 0 {
		status += fmt.Sprintf("; %d kernel events, %.1fM events/wall-sec", ev, float64(ev)/elapsed.Seconds()/1e6)
		if cpuOK && cpu > 0 {
			status += fmt.Sprintf(", %.1fM events/CPU-sec", float64(ev)/cpu/1e6)
		}
	}
	fmt.Printf("%s]\n\n", status)
	return nil
}

// exporter writes the observability artifacts of each experiment's
// cluster runs. Experiments that compare modes run several clusters;
// in plan order, the first run gets the exact -trace/-metrics
// filename, later ones a -NN suffix.
type exporter struct {
	traceOut   string
	metricsOut string
	written    int
}

// suffixed numbers artifact paths past the first: out.json, out-02.json…
func suffixed(path string, n int) string {
	if n == 0 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-%02d%s", strings.TrimSuffix(path, ext), n+1, ext)
}

func (e *exporter) write(runs []experiments.RunResult) error {
	if e.traceOut == "" && e.metricsOut == "" {
		return nil
	}
	for _, r := range runs {
		res := r.Results
		if e.traceOut != "" && res.Flight != nil {
			path := suffixed(e.traceOut, e.written)
			if err := writeFile(path, func(f *os.File) error {
				return trace.WriteChromeTrace(f, res.Flight)
			}); err != nil {
				return err
			}
			fmt.Printf("trace: %s (%d spans, mode=%s)\n", path, res.Flight.Finished(), res.Mode)
		}
		if e.metricsOut != "" && res.Metrics != nil {
			path := suffixed(e.metricsOut, e.written)
			if err := writeFile(path, func(f *os.File) error {
				return res.Metrics.WriteCSV(f)
			}); err != nil {
				return err
			}
			fmt.Printf("metrics: %s (%d samples, mode=%s)\n", path, res.Metrics.Samples(), res.Mode)
		}
		if tbl := res.StageBreakdown(); tbl != "" {
			fmt.Printf("mode=%s %s", res.Mode, tbl)
		}
		// The deterministic executed-work profile: what the kernel ran,
		// by verb kind and pipeline stage, independent of observability
		// itself.
		fmt.Printf("mode=%s attribution: %+v\n", res.Mode, res.Attribution)
		e.written++
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
