package experiments

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/cluster"
)

// Options are an experiment's sweep shape over a base cluster config.
// Start from NewDefaultOptions (the laptop preset: 1/10 capacity, short
// windows, the paper's shapes intact) or PaperOptions; cmd/haechibench
// exposes flags over both.
type Options struct {
	// Base is the cluster config every run starts from, taken from a
	// preset: sweeps set single Params and Fabric fields. Reported numbers
	// are multiplied back by Base.Scale to read in paper units. Base.Chaos
	// times count periods from run start (Set 5 supplies its own
	// scenarios).
	Base cluster.Config
	// WarmupPeriods and MeasurePeriods set the run windows (the paper
	// uses 30 + 30 displayed of 120 measured).
	WarmupPeriods  int
	MeasurePeriods int
	// Clients is the number of client nodes (the paper's testbed has 10).
	Clients int
	// Parallel is the number of independent cluster runs an experiment
	// may execute concurrently (each on its own kernel). 0 or 1 runs
	// sequentially. Results are merged by plan index, so the output is
	// identical at any worker count, Report.Runs included; see
	// internal/parallel.
	Parallel int
}

// NewDefaultOptions returns the laptop preset with the experiments' seed.
func NewDefaultOptions() Options {
	return preset(cluster.Laptop(), cluster.LaptopWarmup, cluster.LaptopMeasure)
}

// PaperOptions returns the paper's dimensions: full rates, 30 warm-up
// periods and 30 displayed periods, 10 clients.
func PaperOptions() Options {
	return preset(cluster.Paper(), cluster.PaperWarmup, cluster.PaperMeasure)
}

func preset(base cluster.Config, warmup, measure int) Options {
	base.Seed = 42
	return Options{Base: base, WarmupPeriods: warmup, MeasurePeriods: measure, Clients: 10}
}

// validate refuses options no sweep can run, Base among them as
// cluster.Config.ApplyScale resolves it. It fills nothing in: the sweeps
// read Base.Scale as given, so it must be set.
func (o Options) validate() error {
	if _, err := o.Base.ApplyScale(); err != nil {
		return err
	}
	if o.Base.Scale == 0 || o.Clients < 1 || o.WarmupPeriods < 0 || o.MeasurePeriods < 1 || o.Parallel < 0 {
		return fmt.Errorf("experiments: need Base.Scale, Clients and MeasurePeriods set and nothing negative, got scale %v, %d clients, %d+%d periods, parallel %d",
			o.Base.Scale, o.Clients, o.WarmupPeriods, o.MeasurePeriods, o.Parallel)
	}
	return nil
}

// workers returns the worker count for the runner's parallel.Map.
func (o Options) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

// config returns the base config in the given mode.
func (o Options) config(mode cluster.Mode) cluster.Config {
	cfg := o.Base
	cfg.Mode = mode
	return cfg
}

// run describes one cluster run over the options' warm-up and measure
// windows.
func (o Options) run(name string, cfg cluster.Config, specs []cluster.ClientSpec) RunSpec {
	return RunSpec{Name: name, Config: cfg, Specs: specs, Warmup: o.WarmupPeriods, Measure: o.MeasurePeriods}
}

// capacityPerPeriod returns the scaled C_G per QoS period (the token
// budget the paper's experiments size reservations against: 1570K at
// full scale), from Base's fabric and period as the cluster runs them.
func (o Options) capacityPerPeriod() int64 {
	return o.scaled().ProfiledCapacityPerPeriod()
}

// localCapacityPerPeriod returns the scaled C_L per period (400K at full
// scale), likewise.
func (o Options) localCapacityPerPeriod() int64 {
	return o.scaled().LocalCapacityPerPeriod()
}

// scaled returns Base normalized by cluster.Config.ApplyScale; Run has
// already refused a Base it rejects.
func (o Options) scaled() cluster.Config {
	cfg, _ := o.Base.ApplyScale()
	return cfg
}
