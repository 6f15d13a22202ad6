package shard

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/haechi-qos/haechi/internal/sim"
)

// The sharded-kernel benchmark lives here rather than next to the
// plain-kernel benchmarks in internal/sim/bench_test.go (where ISSUE 6
// nominally places it) because those files compile into package sim —
// importing shard from there would be an import cycle. The artifact
// (BENCH_shard.json) and the CI wiring treat both files as one suite.

// benchChurn is the sim bench's self-sustaining churn, spread across
// shards: benchFlows chains per shard, each rescheduling itself at the
// simulator's delay scales, with one cross-shard hop (delivered a
// lookahead later, like a one-sided op crossing the fabric) every
// crossEvery firings. Deterministic: per-shard xorshift streams.
const (
	benchShards = 8
	benchFlows  = 256
	crossEvery  = 64
)

var benchDelays = [16]sim.Time{
	1, 3, 700, 900,
	sim.Microsecond, 2 * sim.Microsecond, 5 * sim.Microsecond, 17 * sim.Microsecond,
	40 * sim.Microsecond, 80 * sim.Microsecond, 120 * sim.Microsecond, 300 * sim.Microsecond,
	sim.Millisecond, 4 * sim.Millisecond, sim.Second / 4, 19 * sim.Second,
}

func benchRngNext(rng *uint64) uint64 {
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	return *rng
}

// shardChurn executes ~n events across the group and returns the exact
// count. Every piece of mutable state is per-shard.
func shardChurn(g *Group, n int) uint64 {
	ks := g.Kernels()
	rngs := make([]uint64, len(ks))
	executed := make([]int, len(ks))
	quota := n / len(ks)
	var fire func(s int)
	fire = func(s int) {
		executed[s]++
		if executed[s] > quota {
			return
		}
		d := benchDelays[benchRngNext(&rngs[s])&15]
		if executed[s]%crossEvery == 0 {
			dst := (s + 1) % len(ks)
			g.Post(s, dst, ks[s].Now()+sim.Microsecond+d, func() { fire(dst) })
			return
		}
		ks[s].Schedule(d, fire1(fire, s))
	}
	for s := range ks {
		rngs[s] = 0x9e3779b97f4a7c15 ^ uint64(s)<<32
		for i := 0; i < benchFlows; i++ {
			ks[s].Schedule(benchDelays[benchRngNext(&rngs[s])&15], fire1(fire, s))
		}
	}
	// Far beyond the churn's reach; the chains die at their quota.
	g.RunUntil(1 << 50)
	return g.Executed()
}

// fire1 binds the shard index without allocating state the peer owns.
func fire1(fire func(int), s int) func() { return func() { fire(s) } }

// plainChurn runs the same total event load on one bare kernel with no
// coordinator — the reference the artifact's coordination_ratio divides
// by. Cross-shard hops become plain schedules at the same delay.
func plainChurn(n int) uint64 {
	k := sim.New(1)
	rng := uint64(0x9e3779b97f4a7c15)
	executed := 0
	var fire func()
	fire = func() {
		executed++
		if executed > n {
			return
		}
		d := benchDelays[benchRngNext(&rng)&15]
		if executed%crossEvery == 0 {
			d += sim.Microsecond
		}
		k.Schedule(d, fire)
	}
	for i := 0; i < benchShards*benchFlows; i++ {
		k.Schedule(benchDelays[benchRngNext(&rng)&15], fire)
	}
	k.RunUntil(1 << 50)
	return k.Executed()
}

func newBenchGroup() *Group {
	ks := make([]*sim.Kernel, benchShards)
	for s := range ks {
		ks[s] = sim.New(int64(s) + 1)
	}
	g, err := New(ks, sim.Microsecond)
	if err != nil {
		panic(err)
	}
	return g
}

// BenchmarkShardedKernelEvents measures group throughput per executed
// event: events/sec = 1e9 / (ns/op).
func BenchmarkShardedKernelEvents(b *testing.B) {
	b.ReportAllocs()
	shardChurn(newBenchGroup(), b.N)
}

// TestWriteShardBenchJSON is the CI hook behind the BENCH_shard.json
// artifact: when BENCH_SHARD_JSON names a path, it times a fixed-size
// churn on the group and on one bare kernel and writes their ratio,
// plus the group's deterministic event accounting and NumCPU. Without
// the env var it skips.
func TestWriteShardBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_SHARD_JSON")
	if path == "" {
		t.Skip("set BENCH_SHARD_JSON=<path> to write the sharded benchmark artifact")
	}
	const n = 2_000_000
	out := struct {
		Events        uint64 `json:"events"`
		Shards        int    `json:"shards"`
		NumCPU        int    `json:"num_cpu"`
		Quanta        uint64 `json:"quanta"`
		CrossMessages uint64 `json:"cross_messages"`
		IdleQuanta    uint64 `json:"idle_quanta_total"`
		// PlainKernelEventsPerSec is the same event load on one bare
		// kernel, and CoordinationRatio is the group's throughput
		// relative to it — the quantum protocol's overhead, measured
		// interleaved in the same run so the CI gate can compare it
		// against the committed baseline without cross-machine (or
		// cross-minute) noise. Each rep times group then bare back to
		// back; the ratio is the median over reps.
		PlainKernelEventsPerSec float64 `json:"plain_kernel_events_per_sec"`
		CoordinationRatio       float64 `json:"coordination_ratio"`
	}{Shards: benchShards, NumCPU: runtime.NumCPU()}

	// Warm-up pass.
	shardChurn(newBenchGroup(), n/10)
	plainChurn(n / 10)
	var coordRatios []float64
	for rep := 0; rep < 3; rep++ {
		g := newBenchGroup()
		start := time.Now()
		ev := shardChurn(g, n)
		v := float64(ev) / time.Since(start).Seconds()
		out.Events = ev
		out.Quanta = g.Quanta()
		out.CrossMessages = g.CrossMessages()
		out.IdleQuanta = 0
		for _, q := range g.IdleQuanta() {
			out.IdleQuanta += q
		}
		start = time.Now()
		pn := plainChurn(n)
		pv := float64(pn) / time.Since(start).Seconds()
		if pv > out.PlainKernelEventsPerSec {
			out.PlainKernelEventsPerSec = pv
		}
		coordRatios = append(coordRatios, v/pv)
	}
	sort.Float64s(coordRatios)
	out.CoordinationRatio = coordRatios[len(coordRatios)/2]
	t.Logf("coordination ratio %.3f", out.CoordinationRatio)
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
