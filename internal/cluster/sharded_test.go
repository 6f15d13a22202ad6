package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// shardedRun executes a figure-scale Haechi experiment sharded onto
// per-node kernels and returns the fully serialized Results.
func shardedRun(t *testing.T, mode Mode, shards int) []byte {
	t.Helper()
	specs := make([]ClientSpec, 6)
	for i := range specs {
		specs[i] = ClientSpec{
			Reservation:    1200,
			Demand:         ConstantDemand(1500),
			UpdateFraction: 0.05,
		}
	}
	// One open-loop random-arrival client to exercise the RNG paths.
	specs[5].Pattern = workload.Poisson{}
	cfg := testConfig(mode)
	if mode == Bare {
		for i := range specs {
			specs[i].Reservation = 0
		}
	}
	cfg.Seed = 42
	cfg.Shards = shards
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedKernelByteIdentical extends TestShardedRunRepeatable along
// the shard axis: at two shards and at the clamp (clients + 1), a
// figure-scale run serializes to byte-identical Results on a rerun —
// every period count, latency percentile, timeline point, overhead
// counter, and the ShardingReport itself.
func TestShardedKernelByteIdentical(t *testing.T) {
	for _, shards := range []int{2, 7} {
		a, b := shardedRun(t, Haechi, shards), shardedRun(t, Haechi, shards)
		if !bytes.Equal(a, b) {
			t.Errorf("shards=%d: rerun diverged", shards)
			reportDivergence(t, a, b)
		}
	}
}

// TestShardedKernelByteIdenticalBare covers the bare path, whose period
// boundaries are driven by per-shard tickers instead of QoS engines.
func TestShardedKernelByteIdenticalBare(t *testing.T) {
	a, b := shardedRun(t, Bare, 3), shardedRun(t, Bare, 3)
	if !bytes.Equal(a, b) {
		reportDivergence(t, a, b)
	}
}

// TestShardedRunRepeatable pins the sharded path's seed determinism:
// two identical sharded runs serialize byte-identically, exactly like
// TestDeterminismByteIdentical does for the single-kernel path.
func TestShardedRunRepeatable(t *testing.T) {
	a := shardedRun(t, Haechi, 3)
	b := shardedRun(t, Haechi, 3)
	if !bytes.Equal(a, b) {
		reportDivergence(t, a, b)
	}
}

// TestShardedReportShape sanity-checks the ShardingReport: shard count
// clamped to clients+1, the data node and "bg/" initiators on shard 0,
// clients round-robin across the rest, and events conserved (the
// per-shard counts sum to EventsExecuted).
func TestShardedReportShape(t *testing.T) {
	specs := make([]ClientSpec, 4)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 1200, Demand: ConstantDemand(1500)}
	}
	cfg := testConfig(Haechi)
	cfg.Seed = 9
	cfg.Shards = 64 // clamps to 5
	cfg.Chaos = "burst@1.5+0.5:jobs=1,window=8"
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Sharding
	if sr == nil {
		t.Fatal("sharded run produced no ShardingReport")
	}
	if sr.Shards != len(specs)+1 {
		t.Errorf("Shards = %d, want %d (clamped)", sr.Shards, len(specs)+1)
	}
	if sr.Quanta == 0 || sr.CrossMessages == 0 {
		t.Errorf("expected nonzero quanta (%d) and cross messages (%d)", sr.Quanta, sr.CrossMessages)
	}
	if len(sr.PerShardEvents) != sr.Shards || len(sr.IdleQuanta) != sr.Shards {
		t.Fatalf("per-shard slices sized %d/%d, want %d",
			len(sr.PerShardEvents), len(sr.IdleQuanta), sr.Shards)
	}
	var sum uint64
	for _, n := range sr.PerShardEvents {
		sum += n
	}
	if sum != res.EventsExecuted {
		t.Errorf("per-shard events sum %d != EventsExecuted %d", sum, res.EventsExecuted)
	}
	if sr.Nodes[0].Name != "datanode" || sr.Nodes[0].Shard != 0 {
		t.Errorf("data node assignment = %+v, want shard 0", sr.Nodes[0])
	}
	for i, na := range sr.Nodes[1:] {
		want := 1 + int(fnv32(na.Name)%uint32(sr.Shards-1))
		if na.Shard != want {
			t.Errorf("client %d on shard %d, want %d (stable-ID hash)", i, na.Shard, want)
		}
	}
	// Attribution: one profile per shard, summing to Results.Attribution,
	// with the work the run must have done actually counted.
	if len(sr.Attribution) != sr.Shards {
		t.Fatalf("Attribution has %d profiles, want %d", len(sr.Attribution), sr.Shards)
	}
	var prof rdma.ExecProfile
	for i := range sr.Attribution {
		prof.Add(&sr.Attribution[i])
	}
	if prof != res.Attribution {
		t.Errorf("per-shard attribution sums to %+v, Results.Attribution = %+v", prof, res.Attribution)
	}
	if res.Attribution.Reads == 0 || res.Attribution.FetchAdds == 0 ||
		res.Attribution.SchedDispatches == 0 || res.Attribution.Deliveries == 0 {
		t.Errorf("attribution missing expected work: %+v", res.Attribution)
	}
}

// observedShardedRun executes a figure-scale observed+sanitized sharded
// run and returns the serialized Results, the exported Chrome trace
// bytes, the exported metrics CSV bytes, and the per-shard flight
// recorders.
func observedShardedRun(t *testing.T, shards int) (resJSON, traceB, csvB []byte, frs []*trace.FlightRecorder) {
	t.Helper()
	specs := make([]ClientSpec, 6)
	for i := range specs {
		specs[i] = ClientSpec{
			Reservation:    1200,
			Demand:         ConstantDemand(1500),
			UpdateFraction: 0.05,
		}
	}
	specs[5].Pattern = workload.Poisson{}
	cfg := testConfig(Haechi)
	cfg.Seed = 42
	cfg.Shards = shards
	cfg.Sanitize = true
	cfg.Observe = &Observe{
		FlightSpans:     2048,
		MetricsInterval: DefaultMetricsInterval(cfg.Params.Period),
	}
	cl, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := trace.WriteChromeTrace(&tb, res.Flight); err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := res.Metrics.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return resJSON, tb.Bytes(), cb.Bytes(), cl.flights
}

// TestObservedShardedByteIdentical is TestDeterminismByteIdentical for
// sharded observability: an observed, sanitized, sharded run must
// reproduce its Results, Chrome trace, and metrics CSV byte for byte on
// a rerun. Per-shard recorders merge in shard order after the run, so
// the exports carry the shard layout (a process track and metrics
// columns per shard) but nothing that could vary between runs.
func TestObservedShardedByteIdentical(t *testing.T) {
	baseRes, baseTrace, baseCSV, frs := observedShardedRun(t, 4)
	if !bytes.Contains(baseTrace, []byte("shard-1")) {
		t.Error("sharded Chrome trace has no shard-1 process track")
	}
	// Protocol events land in the ring of the shard that marked them: the
	// monitor's on shard 0 with the data node, the engines' on their
	// clients' shards.
	eventShards := map[int]bool{}
	for s, fr := range frs {
		if fr.Summary() != "trace: empty" {
			eventShards[s] = true
		}
	}
	if !eventShards[0] || len(eventShards) < 2 {
		t.Errorf("protocol events recorded on shards %v, want shard 0 and a client shard", eventShards)
	}
	if !bytes.Contains(baseTrace, []byte(`"cat":"protocol"`)) {
		t.Error("sharded Chrome trace has no protocol instants")
	}
	if !bytes.Contains(baseCSV, []byte("shard1/sim/pending-events")) {
		t.Error("merged metrics CSV has no per-shard sim/ column")
	}
	if !bytes.Contains(baseCSV, []byte(",trace/spans-dropped")) {
		t.Error("merged metrics CSV has no trace/spans-dropped column")
	}
	res, traceB, csvB, _ := observedShardedRun(t, 4)
	if !bytes.Equal(baseRes, res) {
		t.Error("Results diverged on a rerun")
		reportDivergence(t, baseRes, res)
	}
	if !bytes.Equal(baseTrace, traceB) {
		t.Error("Chrome trace diverged on a rerun")
		reportDivergence(t, baseTrace, traceB)
	}
	if !bytes.Equal(baseCSV, csvB) {
		t.Error("metrics CSV diverged on a rerun")
		reportDivergence(t, baseCSV, csvB)
	}
}

// TestRunOneShot pins the cluster's lifetime contract at both shard
// counts: Run consumes the cluster, and a second call is an error, not
// a re-armed run on spent state.
func TestRunOneShot(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(Haechi)
			cfg.Shards = shards
			cl, err := New(cfg, []ClientSpec{{Reservation: 1000}, {Reservation: 1000}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(1, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(1, 1); err == nil {
				t.Fatal("second Run on a consumed cluster succeeded")
			}
		})
	}
}
