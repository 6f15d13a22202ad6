package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// shardedRun executes a figure-scale Haechi experiment sharded onto
// per-node kernels and returns the fully serialized Results.
func shardedRun(t *testing.T, mode Mode, shards, workers int) []byte {
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
	cfg.ShardWorkers = workers
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

// TestShardedKernelByteIdentical is the sharded kernel's core
// acceptance property: the worker count is pure concurrency. A
// figure-scale run sharded across 3 kernels must serialize to
// byte-identical Results whether the quanta execute inline (1 worker)
// or on a pool wider than the shard count (8 workers) — every period
// count, latency percentile, timeline point, overhead counter, and the
// ShardingReport itself.
func TestShardedKernelByteIdentical(t *testing.T) {
	base := shardedRun(t, Haechi, 3, 1)
	for _, workers := range []int{2, 8} {
		got := shardedRun(t, Haechi, 3, workers)
		if !bytes.Equal(base, got) {
			t.Errorf("workers=%d diverged from workers=1", workers)
			reportDivergence(t, base, got)
		}
	}
}

// TestShardedKernelByteIdenticalBare covers the bare path, whose period
// boundaries are driven by per-shard tickers instead of QoS engines.
func TestShardedKernelByteIdenticalBare(t *testing.T) {
	base := shardedRun(t, Bare, 3, 1)
	got := shardedRun(t, Bare, 3, 4)
	if !bytes.Equal(base, got) {
		reportDivergence(t, base, got)
	}
}

// TestShardedRunRepeatable pins the sharded path's seed determinism:
// two identical sharded runs serialize byte-identically, exactly like
// TestDeterminismByteIdentical does for the single-kernel path.
func TestShardedRunRepeatable(t *testing.T) {
	a := shardedRun(t, Haechi, 3, 2)
	b := shardedRun(t, Haechi, 3, 2)
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
// bytes, the exported metrics CSV bytes, and the merged flight recorder.
func observedShardedRun(t *testing.T, shards, workers int) (resJSON, traceB, csvB []byte, fr *trace.FlightRecorder) {
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
	cfg.ShardWorkers = workers
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
	return resJSON, tb.Bytes(), cb.Bytes(), res.Flight
}

// TestObservedShardedByteIdentical is the tentpole property of
// shard-parallel observability (and the former clamp's replacement,
// TestShardedObserveForcesSequential): an observed, sanitized, sharded
// run must produce byte-identical Results, Chrome trace, and metrics
// CSV at any worker count. Per-shard recorders are single-writer by
// construction and merge in shard order after the run, so the exports —
// not just the Results — carry no trace of how many workers drove the
// quanta.
func TestObservedShardedByteIdentical(t *testing.T) {
	baseRes, baseTrace, baseCSV, fr := observedShardedRun(t, 4, 1)
	if !bytes.Contains(baseTrace, []byte("shard-1")) {
		t.Error("sharded Chrome trace has no shard-1 process track")
	}
	// Protocol events land in the ring of the shard that marked them: the
	// monitor's on shard 0 with the data node, the engines' on their
	// clients' shards.
	eventShards := map[int]bool{}
	for _, ev := range fr.Events() {
		eventShards[ev.Shard()] = true
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
	for _, workers := range []int{2, 8} {
		res, traceB, csvB, _ := observedShardedRun(t, 4, workers)
		if !bytes.Equal(baseRes, res) {
			t.Errorf("workers=%d: Results diverged from workers=1", workers)
			reportDivergence(t, baseRes, res)
		}
		if !bytes.Equal(baseTrace, traceB) {
			t.Errorf("workers=%d: Chrome trace diverged from workers=1", workers)
			reportDivergence(t, baseTrace, traceB)
		}
		if !bytes.Equal(baseCSV, csvB) {
			t.Errorf("workers=%d: metrics CSV diverged from workers=1", workers)
			reportDivergence(t, baseCSV, csvB)
		}
	}
}

// TestRunOneShot pins the cluster's lifetime contract at both shard
// counts: a cluster New rejects leaves no pool worker behind, and Run
// consumes the cluster — a second call is an error, not a re-armed run
// on spent state (or, with a multi-worker pool, a send on the closed
// pool's nil channel that blocks forever).
func TestRunOneShot(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(Haechi)
			cfg.Shards, cfg.ShardWorkers = shards, 2
			before := runtime.NumGoroutine()
			over := []ClientSpec{{Reservation: 1 << 40}, {Reservation: 1 << 40}}
			if _, err := New(cfg, over); err == nil {
				t.Fatal("admission accepted an impossible reservation")
			}
			// Pool.Close has waited for the workers; give their goroutines a
			// few scheduler turns to finish exiting before counting.
			for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("rejected New left %d goroutines running", n-before)
			}

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
