package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// The differential harness mirrors the wheel-vs-reference-heap idiom
// from internal/sim/wheel_test.go: an independently written sequential
// reference coordinator replays the same randomized program, and the
// per-shard firing traces must match exactly — for the reference and
// for the Group at every worker count.

// refCoord is a from-scratch sequential implementation of the quantum
// protocol: one flat pending-message list, shards stepped in index
// order, messages delivered at barriers sorted by (dst, at, seq, src).
// It shares no code with Group beyond sim.Kernel itself.
type refCoord struct {
	ks      []*sim.Kernel
	delta   sim.Time
	pending []refMsg
	seqs    []uint64
	halted  bool
}

type refMsg struct {
	src, dst int
	at       sim.Time
	seq      uint64
	fn       func()
}

func newRefCoord(ks []*sim.Kernel, delta sim.Time) *refCoord {
	return &refCoord{ks: ks, delta: delta, seqs: make([]uint64, len(ks))}
}

func (r *refCoord) Post(src, dst int, at sim.Time, fn func()) {
	r.pending = append(r.pending, refMsg{src: src, dst: dst, at: at, seq: r.seqs[src], fn: fn})
	r.seqs[src]++
}

func (r *refCoord) deliver() {
	sort.Slice(r.pending, func(a, b int) bool {
		m, n := r.pending[a], r.pending[b]
		if m.dst != n.dst {
			return m.dst < n.dst
		}
		if m.at != n.at {
			return m.at < n.at
		}
		if m.seq != n.seq {
			return m.seq < n.seq
		}
		return m.src < n.src
	})
	for _, m := range r.pending {
		r.ks[m.dst].At(m.at, m.fn)
	}
	r.pending = r.pending[:0]
}

func (r *refCoord) RunUntil(t sim.Time) {
	if r.halted {
		return
	}
	for {
		r.deliver()
		for _, k := range r.ks {
			if k.Stopped() {
				r.halted = true
				for _, k := range r.ks {
					k.Stop()
				}
				return
			}
		}
		glb := sim.Time(0)
		ok := false
		for _, k := range r.ks {
			if at, has := k.NextAt(); has && (!ok || at < glb) {
				glb, ok = at, true
			}
		}
		if !ok || glb > t {
			break
		}
		h := glb + r.delta
		if h > t+1 {
			h = t + 1
		}
		for _, k := range r.ks {
			k.RunBefore(h)
		}
	}
	for _, k := range r.ks {
		k.RunUntil(t)
	}
}

// coordinator is the driver-facing surface the randomized program
// needs; Group and refCoord both satisfy it.
type coordinator interface {
	Post(src, dst int, at sim.Time, fn func())
	RunUntil(t sim.Time)
}

type shardFire struct {
	id  int
	at  sim.Time
	rnd int64
}

// shardProgram builds one randomized multi-shard workload on the given
// kernels and returns the per-shard firing logs (filled in as the
// coordinator runs). Every piece of mutable state — logs, id counters,
// RNG — is owned by exactly one shard, so the program is safe under
// concurrent quanta; the logs alone are the observable trace.
func shardProgram(c coordinator, ks []*sim.Kernel, seed int64) []*[]shardFire {
	n := len(ks)
	logs := make([]*[]shardFire, n)
	nextID := make([]int, n)
	for s := range logs {
		logs[s] = new([]shardFire)
	}

	delays := []sim.Time{0, 1, 3, 700, sim.Microsecond, 2 * sim.Microsecond,
		17 * sim.Microsecond, sim.Millisecond / 2, sim.Millisecond}

	// fire runs as an event on shard s and touches only shard-s state
	// (log, id counter, RNG) — the closures created for follow-ups and
	// cross posts capture nothing but ints, so creating a message for a
	// peer shard writes nothing the peer owns.
	var fire func(s, depth int)
	fire = func(s, depth int) {
		k := ks[s]
		id := s*1_000_000 + nextID[s]
		nextID[s]++
		*logs[s] = append(*logs[s], shardFire{id: id, at: k.Now(), rnd: k.Rand().Int63n(1 << 20)})
		if depth >= 5 {
			return
		}
		r := k.Rand()
		for f := r.Intn(3); f > 0; f-- {
			d := delays[r.Intn(len(delays))]
			next := depth + 1
			k.Schedule(d, func() { fire(s, next) })
		}
		if n > 1 && r.Intn(3) == 0 {
			dst := r.Intn(n - 1)
			if dst >= s {
				dst++
			}
			at := k.Now() + sim.Microsecond + sim.Time(r.Intn(3000))
			next := depth + 1
			c.Post(s, dst, at, func() { fire(dst, next) })
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < n; s++ {
		for i := 0; i < 6; i++ {
			s := s
			ks[s].At(sim.Time(rng.Intn(5000)), func() { fire(s, 0) })
		}
	}
	return logs
}

func makeKernels(n int, seed int64) []*sim.Kernel {
	ks := make([]*sim.Kernel, n)
	for s := range ks {
		ks[s] = sim.New(seed + int64(s)*7919)
	}
	return ks
}

func collectLogs(logs []*[]shardFire) [][]shardFire {
	out := make([][]shardFire, len(logs))
	for s, l := range logs {
		out[s] = *l
	}
	return out
}

func diffLogs(t *testing.T, label string, got, want [][]shardFire) {
	t.Helper()
	for s := range want {
		if !reflect.DeepEqual(got[s], want[s]) {
			n := len(got[s])
			if len(want[s]) < n {
				n = len(want[s])
			}
			for i := 0; i < n; i++ {
				if got[s][i] != want[s][i] {
					t.Fatalf("%s: shard %d fire %d: got %+v, want %+v", label, s, i, got[s][i], want[s][i])
				}
			}
			t.Fatalf("%s: shard %d fired %d events, want %d", label, s, len(got[s]), len(want[s]))
		}
	}
}

// TestGroupMatchesReferenceCoordinator replays 300 randomized
// multi-shard programs on the Group — at worker counts 1, 2, 4 and
// 8 — and on the sequential reference coordinator, requiring the exact
// same per-shard firing traces, timestamps, and RNG draws every time.
func TestGroupMatchesReferenceCoordinator(t *testing.T) {
	const shards = 4
	const horizon = 20 * sim.Millisecond
	for seed := int64(1); seed <= 300; seed++ {
		ks := makeKernels(shards, seed)
		ref := newRefCoord(ks, sim.Microsecond)
		refLogs := shardProgram(ref, ks, seed)
		ref.RunUntil(horizon)
		want := collectLogs(refLogs)

		for _, workers := range []int{1, 2, 4, 8} {
			ks := makeKernels(shards, seed)
			g, err := New(ks, sim.Microsecond, workers)
			if err != nil {
				t.Fatal(err)
			}
			logs := shardProgram(g, ks, seed)
			g.RunUntil(horizon)
			g.Close()
			diffLogs(t, fmt.Sprintf("seed %d workers %d", seed, workers), collectLogs(logs), want)
		}
	}
}

// TestGroupResumeAcrossRunUntil pins that a group can be driven in
// slices (the cluster runs warmup and measurement as separate RunUntil
// calls) with no trace difference from one shot.
func TestGroupResumeAcrossRunUntil(t *testing.T) {
	const shards = 3
	for seed := int64(1); seed <= 50; seed++ {
		ks := makeKernels(shards, seed)
		g, _ := New(ks, sim.Microsecond, 2)
		logs := shardProgram(g, ks, seed)
		g.RunUntil(20 * sim.Millisecond)
		g.Close()
		want := collectLogs(logs)

		ks = makeKernels(shards, seed)
		g, _ = New(ks, sim.Microsecond, 2)
		logs = shardProgram(g, ks, seed)
		for _, cut := range []sim.Time{sim.Microsecond, sim.Millisecond,
			7 * sim.Millisecond, 20 * sim.Millisecond} {
			g.RunUntil(cut)
		}
		g.Close()
		diffLogs(t, fmt.Sprintf("seed %d sliced", seed), collectLogs(logs), want)
		for s, k := range ks {
			if k.Now() != 20*sim.Millisecond {
				t.Fatalf("seed %d: shard %d clock %v, want 20ms", seed, s, k.Now())
			}
		}
	}
}

// TestGroupStopSemantics pins the coordinator stop contract: a shard
// stopping its own kernel halts the whole group at the next barrier
// with the identical trace at every worker count (and identical to the
// reference coordinator), peers having completed the full quantum.
func TestGroupStopSemantics(t *testing.T) {
	const shards = 4
	const stopAt = 5 * sim.Millisecond
	run := func(c coordinator, ks []*sim.Kernel, seed int64) [][]shardFire {
		logs := shardProgram(c, ks, seed)
		ks[1].At(stopAt, func() { ks[1].Stop() })
		c.RunUntil(20 * sim.Millisecond)
		return collectLogs(logs)
	}
	for seed := int64(1); seed <= 50; seed++ {
		ks := makeKernels(shards, seed)
		ref := newRefCoord(ks, sim.Microsecond)
		want := run(ref, ks, seed)

		for _, workers := range []int{1, 2, 8} {
			ks := makeKernels(shards, seed)
			g, _ := New(ks, sim.Microsecond, workers)
			got := run(g, ks, seed)
			diffLogs(t, fmt.Sprintf("seed %d workers %d", seed, workers), got, want)
			if !g.Stopped() {
				t.Fatalf("seed %d: group not halted after shard stop", seed)
			}
			// The halt is sticky and total: nothing fires on any shard
			// afterwards, even through direct kernel access.
			before := g.Executed()
			g.RunUntil(40 * sim.Millisecond)
			for _, k := range ks {
				k.RunUntil(40 * sim.Millisecond)
			}
			if g.Executed() != before {
				t.Fatalf("seed %d: events fired after group halt", seed)
			}
			g.Close()
		}
	}
}

// TestGroupStopKeepsFinalQuantumMessagesQueued verifies the "injected
// but never fired" half of the stop contract directly.
func TestGroupStopKeepsFinalQuantumMessagesQueued(t *testing.T) {
	ks := makeKernels(2, 1)
	g, _ := New(ks, sim.Microsecond, 1)
	delivered := false
	ks[0].At(0, func() {
		g.Post(0, 1, ks[0].Now()+sim.Microsecond, func() { delivered = true })
		ks[0].Stop()
	})
	g.RunUntil(sim.Millisecond)
	g.Close()
	if delivered {
		t.Fatal("message fired after stop")
	}
	if ks[1].Pending() != 1 {
		t.Fatalf("final-quantum message not queued: %d pending on shard 1", ks[1].Pending())
	}
}

// TestGroupExternalStop pins Group.Stop: the next RunUntil is a no-op.
func TestGroupExternalStop(t *testing.T) {
	ks := makeKernels(2, 1)
	g, _ := New(ks, sim.Microsecond, 1)
	fired := 0
	ks[0].At(0, func() { fired++ })
	g.Stop()
	g.RunUntil(sim.Millisecond)
	g.Close()
	if fired != 0 {
		t.Fatal("event fired after external Stop")
	}
}

// TestPostLookaheadViolationPanics pins the guard that keeps silent
// trace corruption impossible: a cross-shard message inside the
// current quantum horizon is a programming error and must panic.
func TestPostLookaheadViolationPanics(t *testing.T) {
	ks := makeKernels(2, 1)
	g, _ := New(ks, sim.Microsecond, 1)
	defer g.Close()
	panicked := ""
	ks[0].At(100, func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Sprint(r)
			}
		}()
		g.Post(0, 1, ks[0].Now(), func() {}) // zero-latency: inside the quantum
	})
	g.RunUntil(sim.Millisecond)
	if !strings.Contains(panicked, "lookahead violation") {
		t.Fatalf("expected lookahead-violation panic, got %q", panicked)
	}
}

// TestGroupDiagnosticsDeterministic pins that quantum, idle and
// cross-message counters are part of the deterministic surface.
func TestGroupDiagnosticsDeterministic(t *testing.T) {
	type diag struct {
		quanta, cross uint64
		idle          []uint64
	}
	run := func(workers int) diag {
		ks := makeKernels(4, 7)
		g, _ := New(ks, sim.Microsecond, workers)
		shardProgram(g, ks, 7)
		g.RunUntil(20 * sim.Millisecond)
		defer g.Close()
		return diag{quanta: g.Quanta(), cross: g.CrossMessages(), idle: g.IdleQuanta()}
	}
	want := run(1)
	if want.quanta == 0 || want.cross == 0 {
		t.Fatalf("degenerate program: %+v", want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: diagnostics %+v, want %+v", workers, got, want)
		}
	}
}

// TestGroupAgainstSingleKernelUnion replays the union of all shards'
// LOCAL programs — no cross traffic — on one plain kernel and checks
// the sharded run fires the same per-shard event sets. With no
// cross-shard messages sharding is pure partitioning, so the traces
// must agree exactly; this separates "the quantum loop perturbs local
// order" bugs from mailbox bugs. The one-shard case is the group every
// unsharded cluster run uses: no lookahead to respect (delta 0 is
// accepted), so the whole RunUntil must be a single quantum.
func TestGroupAgainstSingleKernelUnion(t *testing.T) {
	for _, shards := range []int{1, 3} {
		singleKernelUnion(t, shards)
	}
}

func singleKernelUnion(t *testing.T, shards int) {
	for seed := int64(1); seed <= 100; seed++ {
		// Plain kernel: one kernel per "shard" still, but driven by
		// RunUntil directly — the degenerate 1-worker, infinite-lookahead
		// schedule.
		ks := makeKernels(shards, seed)
		localOnly := func(c coordinator, ks []*sim.Kernel) []*[]shardFire {
			logs := make([]*[]shardFire, shards)
			for s := range logs {
				logs[s] = new([]shardFire)
				s := s
				k := ks[s]
				var chain func(d int) func()
				chain = func(d int) func() {
					return func() {
						*logs[s] = append(*logs[s], shardFire{id: d, at: k.Now(), rnd: k.Rand().Int63n(1 << 20)})
						if d < 200 {
							k.Schedule(sim.Time(1+k.Rand().Intn(900)), chain(d+1))
						}
					}
				}
				k.At(sim.Time(s), chain(0))
			}
			return logs
		}
		wantLogs := localOnly(nil, ks)
		for _, k := range ks {
			k.RunUntil(sim.Millisecond)
		}
		want := collectLogs(wantLogs)

		ks = makeKernels(shards, seed)
		delta := sim.Microsecond
		if shards == 1 {
			delta = 0
		}
		g, err := New(ks, delta, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotLogs := localOnly(g, ks)
		g.RunUntil(sim.Millisecond)
		g.Close()
		diffLogs(t, fmt.Sprintf("%d shards seed %d union", shards, seed), collectLogs(gotLogs), want)
		if shards == 1 && g.Quanta() != 1 {
			t.Fatalf("one-shard group ran %d quanta, want 1", g.Quanta())
		}
	}
}
