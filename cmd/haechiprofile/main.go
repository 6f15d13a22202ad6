// Command haechiprofile runs the paper's capacity-profiling procedure
// (Section II-E): saturating one-sided 4 KB reads from N clients against a
// bare data node, sampled per QoS period, yielding the profiled capacity
// Omega_prof, its standard deviation sigma, and the capacity lower bound
// Omega_prof - k*sigma used by the adaptive capacity estimator.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/haechi-qos/haechi/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	laptop := cluster.Laptop()
	fs := flag.NewFlagSet("haechiprofile", flag.ContinueOnError)
	var (
		clients = fs.Int("clients", 10, "saturating clients (the paper uses 10)")
		periods = fs.Int("periods", 50, "profiled QoS periods (the paper uses 1000 one-period runs)")
		scale   = fs.Float64("scale", laptop.Scale, "fabric scale divisor (1 = full scale)")
		sigmaK  = fs.Float64("k", 3, "lower-bound multiplier on sigma")
		seed    = fs.Int64("seed", laptop.Seed, "random seed")
		shards  = fs.Int("shards", 1, "independent profiling runs splitting the periods (seeds seed..seed+shards-1; part of the result)")
		par     = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent kernels for sharded profiling (never changes the result)")
		clShard = fs.Int("cluster-shards", 0, "shard kernels inside each profiled cluster (0/1 = single kernel; part of the result, unlike -shard-workers)")
		clWork  = fs.Int("shard-workers", 0, "worker pool driving the cluster shard kernels (0 or 1 = inline, no goroutines; never changes the result)")
		san     = fs.Bool("sanitize", false, "enable runtime invariant checks (never changes the result; violations fail the run)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the profiling run to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile (after GC) to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haechiprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "haechiprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile: %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "haechiprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "haechiprofile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "heap profile: %s\n", *memProf)
		}()
	}
	cfg := cluster.NewDefaultConfig()
	cfg.Mode = cluster.Bare
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Store.Capacity = 1 << 12
	cfg.Records = 1 << 11
	cfg.Shards = *clShard
	cfg.ShardWorkers = *clWork
	cfg.Sanitize = *san

	prof, err := cluster.ProfileCapacitySharded(cfg, *clients, *periods, *shards, *par)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haechiprofile: %v\n", err)
		return 1
	}
	fmt.Printf("profiling: %d clients, %d periods, %d shard(s), scale %.0f\n", *clients, *periods, *shards, *scale)
	fmt.Printf("Omega_prof     = %.0f I/Os per period (full-scale equivalent %.0fK IOPS)\n",
		prof.MeanPerPeriod, prof.MeanPerPeriod**scale/1000)
	fmt.Printf("sigma          = %.1f (%.3f%% of Omega_prof)\n",
		prof.Sigma, 100*prof.Sigma/prof.MeanPerPeriod)
	fmt.Printf("lower bound    = %d (Omega_prof - %.0f*sigma)\n", prof.LowerBound(*sigmaK), *sigmaK)
	return 0
}
