package haechi

// One benchmark per table and figure of the paper's evaluation (Section
// III). Each bench regenerates its artifact through the experiments
// harness at a reduced scale and reports the headline quantity as a
// custom metric in full-scale-equivalent units, so `go test -bench=.`
// doubles as a quick reproduction sweep. cmd/haechibench prints the full
// rows; EXPERIMENTS.md records paper-vs-measured values.

import (
	"strconv"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/experiments"
)

// benchOptions are sized so each figure regenerates in roughly a second.
func benchOptions(b *testing.B) experiments.Options {
	b.Helper()
	o := experiments.NewDefaultOptions()
	o.Base.Scale, o.Base.Records, o.Base.Seed = 50, 1024, 42
	o.WarmupPeriods, o.MeasurePeriods, o.Clients = 1, 3, 10
	return o
}

// cell parses a report cell like "1.57M", "400K", "93%" or "830".
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1e3, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "%"):
		s = strings.TrimSuffix(s, "%")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("unparseable cell %q", s)
	}
	return v * mult
}

func runExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	rep, err := experiments.Run(id, benchOptions(b))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTableI_Config regenerates the testbed-configuration table.
func BenchmarkTableI_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = runExperiment(b, "config")
	}
}

// BenchmarkFig6_ClientSaturation measures per-client saturation
// throughput, 1- vs 2-sided (Experiment 1A).
func BenchmarkFig6_ClientSaturation(b *testing.B) {
	var one, two float64
	for i := 0; i < b.N; i++ {
		o := benchOptions(b)
		o.Clients = 2 // two single-client runs suffice for the metric
		rep, err := experiments.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		one = cell(b, rep.Tables[0].Rows[0][1])
		two = cell(b, rep.Tables[0].Rows[0][2])
	}
	b.ReportMetric(one/1000, "oneSidedKIOPS")
	b.ReportMetric(two/1000, "twoSidedKIOPS")
}

// BenchmarkFig7_SystemScaling measures data-node throughput vs client
// count (Experiment 1B).
func BenchmarkFig7_SystemScaling(b *testing.B) {
	var sat float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig7")
		rows := rep.Tables[0].Rows
		sat = cell(b, rows[len(rows)-1][1])
	}
	b.ReportMetric(sat/1000, "saturatedKIOPS")
}

// BenchmarkFig8_DemandPatterns regenerates the three demand/pattern
// panels (Experiment 1C) and reports the spike-burst throughput drop.
func BenchmarkFig8_DemandPatterns(b *testing.B) {
	var uniform, spikeBurst float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig8")
		uniform = cell(b, rep.Tables[0].Rows[len(rep.Tables[0].Rows)-1][2])
		spikeBurst = cell(b, rep.Tables[1].Rows[len(rep.Tables[1].Rows)-1][2])
	}
	b.ReportMetric(100*(1-spikeBurst/uniform), "spikeBurstDropPct")
}

// BenchmarkFig9_HaechiQoS regenerates Haechi-vs-bare under both
// reservation distributions (Experiment 2A).
func BenchmarkFig9_HaechiQoS(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig9")
		// The uniform table's total row carries the throughput loss.
		last := rep.Tables[0].Rows[len(rep.Tables[0].Rows)-1]
		loss = cell(b, strings.TrimSuffix(strings.TrimPrefix(last[4], "loss "), "%"))
	}
	b.ReportMetric(loss, "qosLossPct")
}

// BenchmarkFig10_TokenConversion regenerates the insufficient-demand
// comparison (Experiment 2B) and reports the conversion gain.
func BenchmarkFig10_TokenConversion(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig10")
		basic := cell(b, rep.Tables[1].Rows[0][1])
		haechi := cell(b, rep.Tables[1].Rows[1][1])
		gain = 100 * (haechi/basic - 1)
	}
	b.ReportMetric(gain, "conversionGainPct")
}

// BenchmarkFig11_Throughput reports the three-system totals of Fig. 11.
func BenchmarkFig11_Throughput(b *testing.B) {
	var haechi, bare float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig10")
		haechi = cell(b, rep.Tables[1].Rows[1][1])
		bare = cell(b, rep.Tables[1].Rows[2][1])
	}
	b.ReportMetric(haechi/1000, "haechiKIOPS")
	b.ReportMetric(bare/1000, "bareKIOPS")
}

// BenchmarkFig12_ReservedSweep sweeps the reserved fraction (Experiment
// 2C) and reports the zipf 90%-reserved dip.
func BenchmarkFig12_ReservedSweep(b *testing.B) {
	var z50, z90 float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig12")
		rows := rep.Tables[0].Rows
		z50 = cell(b, rows[0][2])
		z90 = cell(b, rows[len(rows)-1][2])
	}
	b.ReportMetric(100*(1-z90/z50), "zipfDipPct")
}

// BenchmarkFig13to15_RequestPatterns regenerates Set 3 (Figs. 13-15) and
// reports the burst-vs-constant-rate throughput drop.
func BenchmarkFig13to15_RequestPatterns(b *testing.B) {
	var burst, constRate float64
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig13")
		burst = cell(b, rep.Tables[1].Rows[0][1])
		constRate = cell(b, rep.Tables[1].Rows[1][1])
	}
	b.ReportMetric(burst/1000, "burstKIOPS")
	b.ReportMetric(constRate/1000, "constantRateKIOPS")
}

// BenchmarkFig16_17_Overestimate regenerates the congestion-onset
// adaptation timelines (Figs. 16-17).
func BenchmarkFig16_17_Overestimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = runExperiment(b, "fig16")
	}
}

// BenchmarkFig18_19_Underestimate regenerates the congestion-stop
// adaptation timelines (Figs. 18-19).
func BenchmarkFig18_19_Underestimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = runExperiment(b, "fig18")
	}
}

// BenchmarkSimulatorEventRate measures the discrete-event kernel's raw
// throughput driving the full stack (diagnostic, not a paper artifact).
func BenchmarkSimulatorEventRate(b *testing.B) {
	var completed uint64
	for i := 0; i < b.N; i++ {
		sys, err := New(Config{Scale: 50, WarmupPeriods: 1, MeasurePeriods: 2, Records: 256, Seed: 9},
			[]Tenant{
				{Name: "t1", Reservation: 8000, DemandPerPeriod: 12000},
				{Name: "t2", Reservation: 8000, DemandPerPeriod: 12000},
			})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		completed += rep.TotalCompleted
	}
	b.ReportMetric(float64(completed)/float64(b.N), "IOsPerRun")
}
