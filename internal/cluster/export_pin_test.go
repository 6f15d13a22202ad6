package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// observedRun runs a small observed Haechi run. The ring holds 64
// entries, so every shard's ring wraps and the merge reads both of its
// live segments.
func observedRun(t *testing.T, shards int) (*Cluster, *Results) {
	t.Helper()
	specs := make([]ClientSpec, 4)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1500), UpdateFraction: 0.05}
	}
	specs[3].Pattern = workload.Poisson{}
	cfg := testConfig(Haechi)
	cfg.Seed = 42
	cfg.Shards = shards
	cfg.Observe = &Observe{FlightSpans: 64, MetricsInterval: DefaultMetricsInterval(cfg.Params.Period)}
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return cl, res
}

// exportDigests hashes the three exports of observedRun: the Chrome
// trace JSON, the metrics CSV and the per-stage breakdown table.
func exportDigests(t *testing.T, shards int) (chrome, csv, stages string) {
	t.Helper()
	cl, res := observedRun(t, shards)
	for s, fr := range cl.flights {
		if fr.Dropped() == 0 {
			t.Fatalf("shards=%d: shard %d's ring never wrapped", shards, s)
		}
	}
	var tb, cb bytes.Buffer
	if err := trace.WriteChromeTrace(&tb, res.Flight); err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	return sum(tb.Bytes()), sum(cb.Bytes()), sum([]byte(res.StageBreakdown()))
}

// TestObservedExportsPinned pins the exported bytes of an observed run
// at one and three shards. The determinism tests compare two runs of
// the same code, and the benchmark digest leaves the observe payloads
// out, so only this test notices a change to how spans are stored and
// merged, how stage histograms are folded, or how the CSV is written.
func TestObservedExportsPinned(t *testing.T) {
	want := map[int][3]string{
		1: {
			"fcbc2bf9ba9c5b5a13bfede25d9294c2ab15608094b7dc7785d3b8588a0322d5",
			"fb9e34653aa6efade97d412d0c1ac20ac309a3b33beae8d7562a080ed090e6aa",
			"bfaa9db7cb19da5ecabad1aed28158e6c1d74f2db020999b09051d4bb5641477",
		},
		3: {
			"806d92f7ca72268107a65324beeaf115390a118fe6e14ee08b5e1524395dba18",
			"ad03fd537e206c6bf8f464b57da1d6fe5631b9cac98a17fd9fa3298ba861ef02",
			"1a4a45cd46fde8aeb6abb83423cc0ff5ebaa844fd2ad0102e0fbf49e9149a284",
		},
	}
	for _, shards := range []int{1, 3} {
		chrome, csv, stages := exportDigests(t, shards)
		got := [3]string{chrome, csv, stages}
		for i, name := range []string{"Chrome trace", "metrics CSV", "stage breakdown"} {
			if got[i] != want[shards][i] {
				t.Errorf("shards=%d: %s sha256 = %s, want %s", shards, name, got[i], want[shards][i])
			}
		}
	}
}

// TestRunReservesEverySample pins the sample count Run reserves in each
// shard's registry to the count its ticker takes. One short would make
// the last Sample regrow every column by doubling.
func TestRunReservesEverySample(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cl, res := observedRun(t, shards)
		if cl.sampleSlots != res.Metrics.Samples() {
			t.Errorf("shards=%d: Run reserved %d samples, took %d", shards, cl.sampleSlots, res.Metrics.Samples())
		}
		for s, reg := range cl.registries {
			if reg.Samples() != cl.sampleSlots {
				t.Errorf("shards=%d: shard %d took %d samples, want %d", shards, s, reg.Samples(), cl.sampleSlots)
			}
		}
	}
}
