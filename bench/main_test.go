package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"testing"
)

// Flags of the benchmark binary. run.sh passes its arguments through;
// the driver's contract is
// --workload W --seed N --seconds S --trace 0|1.
var (
	flagWorkload = flag.String("workload", "", "workload to run (default: all four, in order)")
	flagSeed     = flag.Int64("seed", 42, "workload seed; the program sees it only as cluster.Config.Seed")
	flagSeconds  = flag.Float64("seconds", 0, "measured seconds of timed repetitions per workload (default: run_seconds of BENCHMARK.json)")
	flagTrace    = flag.Int("trace", 0, "0: blind timed repetitions, end-to-end metrics; 1: traced pass, per-layer metrics")
	flagLayers   = flag.Bool("layers", false, "same as -trace 1")
	flagTraceOut = flag.String("trace-out", "", "write the traced pass's harness spans here as Chrome trace_event JSON")
	flagOut      = flag.String("out", "", "merge this invocation's report into this JSON file (the input of -compare)")
	flagCompare  = flag.Bool("compare", false, "compare two -out reports given as arguments: A.json (parent) B.json (change)")
	flagQuick    = flag.Bool("quick", false, "smoke size: same shapes, short windows, scale 400")
	flagContract = flag.String("benchmark-json", "BENCHMARK.json", "path of the benchmark contract")
)

// TestMain runs the benchmark when invoked through run.sh
// (HAECHI_BENCH=1) and the smoke tests otherwise, so tier-1
// `go test ./...` never pays for a timed run.
func TestMain(m *testing.M) {
	if os.Getenv("HAECHI_BENCH") == "" {
		os.Exit(m.Run())
	}
	flag.Parse()
	if err := benchMain(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchMain(stdout, stderr io.Writer) error {
	bf, err := LoadBenchmarkFile(*flagContract)
	if err != nil {
		return err
	}
	if *flagCompare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two report files: A.json B.json")
		}
		a, err := LoadReport(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := LoadReport(flag.Arg(1))
		if err != nil {
			return err
		}
		worse, err := Compare(stdout, bf, a, b)
		if err != nil {
			return err
		}
		if worse > 0 {
			return fmt.Errorf("%d (workload, metric) pairs are worse", worse)
		}
		return nil
	}

	o := options{
		seed:     *flagSeed,
		seconds:  *flagSeconds,
		traced:   *flagTrace == 1 || *flagLayers,
		traceOut: *flagTraceOut,
		out:      *flagOut,
		quick:    *flagQuick,
	}
	if *flagTrace != 0 && *flagTrace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *flagTrace)
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	workloads := Workloads()
	if *flagWorkload != "" {
		w, err := WorkloadByName(*flagWorkload)
		if err != nil {
			return err
		}
		workloads = []Workload{w}
	}
	return run(stdout, stderr, bf, workloads, o)
}

type options struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	out      string
	quick    bool
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures each workload and prints, per workload, a readable
// block followed by the one-line JSON result. Any failed check returns
// an error before a result line is printed.
func run(stdout, stderr io.Writer, bf *BenchmarkFile, workloads []Workload, o options) error {
	// One process, at most two Ps: the simulation is single-threaded
	// and the second P only keeps the collector off its back.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	report := &Report{}
	if o.out != "" {
		switch prev, err := LoadReport(o.out); {
		case err == nil:
			report = prev
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}
	report.Meta = Meta{
		Commit:     os.Getenv("HAECHI_BENCH_COMMIT"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		Quick:      o.quick,
	}
	fmt.Fprintf(stdout, "haechi bench: commit=%s %s nproc=%d gomaxprocs=%d seed=%d\n",
		report.Meta.Commit, report.Meta.GoVersion, report.Meta.NumCPU, procs, o.seed)

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%s: simulated loop: %s\n", w.Name, w.Loop)
		var wr WorkloadReport
		var err error
		var printed Metrics
		var declared []MetricDecl
		if o.traced {
			wr, err = tracedPass(tr, w, o.seed, o.quick)
			printed, declared = wr.Layers, bf.PerLayer
		} else {
			wr, err = blindPass(stderr, w, o.seed, o.seconds, o.quick)
			printed, declared = endToEnd(wr), bf.EndToEnd
		}
		if err != nil {
			return err
		}
		if err := printed.Check(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if o.traced {
			fmt.Fprintf(stdout, "%s  seed=%d  per-layer metrics (traced pass)\n", w.Name, o.seed)
			for _, x := range printed {
				fmt.Fprintf(stdout, "  %-40s %-7s [%s] %.10g\n", x.Name, x.Unit, x.Kind, x.Value)
			}
		} else {
			printBlind(stdout, wr)
		}
		line := resultLine{Correct: true, Metrics: make(map[string]metricValue, len(declared))}
		// Operations are the simulated data I/Os the run completed in its
		// measure window; a run that loses or corrupts one fails a digest,
		// sanitizer or value check above and never reaches this line.
		if wr.Completed == 0 {
			return fmt.Errorf("%s: the run completed no data I/O", w.Name)
		}
		line.Attempted = wr.Completed
		for _, d := range declared {
			v, ok := printed.Get(d.Name)
			if !ok {
				return fmt.Errorf("%s: BENCHMARK.json declares %s but the harness did not measure it", w.Name, d.Name)
			}
			line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
		report.Merge(wr)
	}
	if tr != nil && o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return err
		}
	}
	if o.out != "" {
		return report.Write(o.out)
	}
	return nil
}
