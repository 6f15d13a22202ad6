package haechi

import (
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/experiments"
)

// fastConfig keeps public-API tests quick: 1/100 capacity.
func fastConfig(mode Mode) Config {
	return Config{
		Mode:           mode,
		Scale:          100,
		WarmupPeriods:  1,
		MeasurePeriods: 3,
		Records:        256,
		Seed:           3,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(fastConfig(ModeHaechi), nil); err == nil {
		t.Error("no tenants accepted")
	}
	if _, err := New(Config{Mode: "bogus"}, []Tenant{{Reservation: 1}}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{Reservation: -1}}); err == nil {
		t.Error("negative reservation accepted")
	}
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{Reservation: 1 << 40}}); err == nil {
		t.Error("admission violation not surfaced")
	}
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{Pattern: "warp"}}); err == nil {
		t.Error("unknown pattern accepted")
	}
	_, err := New(fastConfig(ModeHaechi), []Tenant{{Pattern: PatternBurst}})
	if err == nil {
		t.Fatal("saturating demand with post-all burst accepted")
	}
	// The refusal's advice works: every pattern it says the demand
	// requires takes the same saturating tenant.
	_, requires, _ := strings.Cut(err.Error(), "requires ")
	advice := strings.Split(requires, `"`)
	if len(advice) < 3 {
		t.Errorf("refusal %q names no pattern", err)
	}
	for i := 1; i < len(advice); i += 2 {
		if _, err := New(fastConfig(ModeHaechi), []Tenant{{Pattern: Pattern(advice[i])}}); err != nil {
			t.Errorf("following the advice %q: %v", advice[i], err)
		}
	}
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{Pattern: PatternConstantRate}}); err == nil {
		t.Error("saturating demand with constant-rate accepted")
	}
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{DemandPerPeriod: 10, KeyDistribution: "bogus"}}); err == nil {
		t.Error("unknown key distribution accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	cap := DefaultCapacity(100)
	gold := int64(0.2 * cap.AggregateOneSided) // within C_L (= 25.5% of C_G)
	silver := int64(0.1 * cap.AggregateOneSided)
	sys, err := New(fastConfig(ModeHaechi), []Tenant{
		{Name: "gold", Reservation: gold, DemandPerPeriod: uint64(gold) + 2000},
		{Name: "silver", Reservation: silver, DemandPerPeriod: uint64(silver) + 2000},
		{Reservation: 0, DemandPerPeriod: 3000}, // best-effort tenant, auto-named
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 3 {
		t.Fatalf("tenants = %d", len(rep.Tenants))
	}
	if rep.Tenants[0].Name != "gold" || rep.Tenants[2].Name != "tenant-3" {
		t.Errorf("names = %v, %v", rep.Tenants[0].Name, rep.Tenants[2].Name)
	}
	for _, tn := range rep.Tenants[:2] {
		if !tn.MetReservation {
			t.Errorf("%s missed reservation: min %d < %d", tn.Name, tn.MinPeriod, tn.Reservation)
		}
		if tn.Latency.P99 <= 0 {
			t.Errorf("%s: no latency recorded", tn.Name)
		}
	}
	if rep.EstimatedCapacity <= 0 {
		t.Error("no capacity estimate in QoS mode")
	}
	if rep.QoSOverheadFraction <= 0 || rep.QoSOverheadFraction > 0.05 {
		t.Errorf("overhead fraction = %v", rep.QoSOverheadFraction)
	}
	s := rep.String()
	if !strings.Contains(s, "gold") || !strings.Contains(s, "reservation met") {
		t.Errorf("report rendering: %q", s)
	}
	// Run consumes the system.
	if _, err := sys.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestBareModeNoQoS(t *testing.T) {
	sys, err := New(fastConfig(ModeBare), []Tenant{
		{Name: "a"}, {Name: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EstimatedCapacity != 0 {
		t.Error("bare mode has a capacity estimate")
	}
	// Two saturating tenants split ~C_G at this scale.
	if rep.ThroughputPerPeriod < 7000 {
		t.Errorf("bare throughput %.0f too low", rep.ThroughputPerPeriod)
	}
}

func TestBasicModeWastesTokens(t *testing.T) {
	build := func(mode Mode) float64 {
		res := int64(1413)
		tenants := make([]Tenant, 10)
		for i := range tenants {
			d := uint64(res) + 1570
			if i < 2 {
				d = uint64(res) / 2
			}
			tenants[i] = Tenant{Reservation: res, DemandPerPeriod: d}
		}
		sys, err := New(fastConfig(mode), tenants)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputPerPeriod
	}
	full := build(ModeHaechi)
	basic := build(ModeBasic)
	if full <= basic*1.02 {
		t.Errorf("conversion gain missing: haechi %.0f vs basic %.0f", full, basic)
	}
}

func TestLimitsInPublicAPI(t *testing.T) {
	sys, err := New(fastConfig(ModeHaechi), []Tenant{
		{Name: "capped", Reservation: 1000, Limit: 1500, DemandPerPeriod: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range rep.Tenants[0].PerPeriod {
		if n > 1500+64 {
			t.Errorf("period %d: %d exceeds limit", p, n)
		}
	}
}

// TestChaosBurstCongestion: background load injected through the public
// Config.Chaos — a burst from the fourth measured period to past the
// run's end — dents throughput.
func TestChaosBurstCongestion(t *testing.T) {
	cfg := fastConfig(ModeHaechi)
	cfg.MeasurePeriods = 8
	cfg.Chaos = "burst@4+6:jobs=3,window=64"
	tenants := make([]Tenant, 10)
	for i := range tenants {
		tenants[i] = Tenant{Reservation: 1100, DemandPerPeriod: 2700}
	}
	sys, err := New(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for _, tn := range rep.Tenants {
		for p := 0; p < 3; p++ {
			before += float64(tn.PerPeriod[p])
		}
		for p := 5; p < 8; p++ {
			after += float64(tn.PerPeriod[p])
		}
	}
	if after >= before {
		t.Errorf("congestion had no effect: before=%.0f after=%.0f", before, after)
	}
}

func TestPatternsAndKeyDistributions(t *testing.T) {
	for _, p := range []Pattern{PatternBurst, PatternBurst64, PatternConstantRate} {
		for _, kd := range []string{"", "uniform", "zipfian", "latest", "sequential"} {
			sys, err := New(fastConfig(ModeHaechi), []Tenant{
				{Reservation: 2000, DemandPerPeriod: 2500, Pattern: p, KeyDistribution: kd},
			})
			if err != nil {
				t.Fatalf("pattern %q keys %q: %v", p, kd, err)
			}
			rep, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tenants[0].Total == 0 {
				t.Errorf("pattern %q keys %q: no completions", p, kd)
			}
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := DefaultCapacity(1)
	if c.AggregateOneSided != 1570e3 || c.PerClientOneSided != 400e3 || c.AggregateTwoSided != 430e3 {
		t.Errorf("full-scale capacities wrong: %+v", c)
	}
	d := DefaultCapacity(0) // defaults to 10
	if d.AggregateOneSided != 157e3 {
		t.Errorf("default-scale capacity wrong: %+v", d)
	}
}

// TestConfigDefaults pins what cluster.Config.ApplyScale, the one place
// a zero becomes a value, resolves for the bare config, each preset and
// the public API's zero Config.
func TestConfigDefaults(t *testing.T) {
	apply := func(cfg cluster.Config) cluster.Config {
		cfg, err := cfg.ApplyScale()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// New builds the cluster from Config.cluster, which cluster.New
	// resolves through ApplyScale.
	public := func(cfg Config) cluster.Config {
		sys, err := New(cfg, []Tenant{{Reservation: 1000, DemandPerPeriod: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		if sys.cfg.WarmupPeriods != cluster.LaptopWarmup || sys.cfg.MeasurePeriods != cluster.LaptopMeasure {
			t.Errorf("public windows %d+%d", sys.cfg.WarmupPeriods, sys.cfg.MeasurePeriods)
		}
		ccfg, err := cfg.cluster()
		if err != nil {
			t.Fatal(err)
		}
		return apply(ccfg)
	}
	for _, tc := range []struct {
		name     string
		got      cluster.Config
		scale    float64
		seed     int64
		records  int
		capacity int
		sanitize bool
	}{
		{"Config{}", apply(cluster.Config{}), 1, 1, 1 << 15, 1 << 16, false},
		{"Config{Chaos}", apply(cluster.Config{Chaos: "set5"}), 1, 1, 1 << 15, 1 << 16, true},
		{"Config{Records, Servers}", apply(cluster.Config{Records: 1000, Servers: 3}), 1, 1, 1000, 512, false},
		{"Laptop", apply(cluster.Laptop()), 10, 1, 4096, 4096, false},
		{"Paper", apply(cluster.Paper()), 1, 1, 1 << 16, 1 << 16, false},
		{"experiments.NewDefaultOptions", apply(experiments.NewDefaultOptions().Base), 10, 42, 4096, 4096, false},
		{"experiments.PaperOptions", apply(experiments.PaperOptions().Base), 1, 42, 1 << 16, 1 << 16, false},
		{"haechi.Config{}", public(Config{}), 10, 1, 4096, 4096, false},
		{"haechi.Config{Chaos}", public(Config{Chaos: "set5"}), 10, 1, 4096, 4096, true},
	} {
		if got := tc.got; got.Scale != tc.scale || got.Seed != tc.seed || got.Records != tc.records ||
			got.Store.Capacity != tc.capacity || got.Sanitize != tc.sanitize {
			t.Errorf("%s resolved to scale %v, seed %d, %d records in %d slots, sanitize %v; want %v, %d, %d, %d, %v",
				tc.name, got.Scale, got.Seed, got.Records, got.Store.Capacity, got.Sanitize,
				tc.scale, tc.seed, tc.records, tc.capacity, tc.sanitize)
		}
	}
}

func TestPublicTracing(t *testing.T) {
	cfg := fastConfig(ModeHaechi)
	cfg.FlightSpans = 2048
	sys, err := New(cfg, []Tenant{
		{Name: "a", Reservation: 2000, DemandPerPeriod: 4000},
		{Name: "b", Reservation: 2000, DemandPerPeriod: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.TraceSummary() != "trace: empty" {
		t.Errorf("pre-run summary = %q", sys.TraceSummary())
	}
	if err := sys.DumpTrace(nil); err != nil {
		t.Errorf("pre-run DumpTrace is not a no-op: %v", err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sum := sys.TraceSummary()
	for _, want := range []string{"period-start", "token-push", "claim", "yield"} {
		if !strings.Contains(sum, want) {
			t.Errorf("trace summary missing %q: %s", want, sum)
		}
	}
	var b strings.Builder
	if err := sys.DumpTrace(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.String()) == 0 {
		t.Error("empty trace dump")
	}
}

func TestUpdateFractionValidation(t *testing.T) {
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{DemandPerPeriod: 10, UpdateFraction: 1.5}}); err == nil {
		t.Error("update fraction > 1 accepted")
	}
	if _, err := New(fastConfig(ModeHaechi), []Tenant{{DemandPerPeriod: 10, UpdateFraction: -0.1}}); err == nil {
		t.Error("negative update fraction accepted")
	}
	sys, err := New(fastConfig(ModeHaechi), []Tenant{
		{Reservation: 2000, DemandPerPeriod: 2500, UpdateFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tenants[0].MetReservation {
		t.Error("reservation missed with update mix")
	}
}
