// Package shard advances several sim.Kernel instances in lockstep
// quanta under a conservative synchronization protocol, on one
// goroutine.
//
// The model is classic conservative parallel discrete-event simulation
// specialized to the Haechi fabric: every cross-shard interaction is a
// message that travels the simulated wire, and the wire has a fixed
// one-way latency (rdma.FabricConfig.PropagationDelay). That latency is
// the lookahead Δ: an event executing at time τ on one shard can affect
// another shard no earlier than τ+Δ. The group therefore advances in
// quanta — with GLB the earliest pending event time across all shards,
// every shard may freely execute events in [GLB, GLB+Δ) without seeing
// a message the current quantum produces, because any such message
// carries a delivery time ≥ GLB+Δ.
//
// Quantum protocol (Group.RunUntil):
//
//  1. Inject: mailbox messages accumulated during the previous quantum
//     are drained into their destination kernels, per destination in
//     (at, seq, srcShard) order — a total order, since seq is a
//     per-source monotone counter. Injection order fixes the kernels'
//     own tie-breaking sequence numbers, so same-instant delivery
//     order is deterministic.
//  2. Stop check: if any shard's kernel was stopped during the
//     previous quantum, the group halts here — after the injection, so
//     the final quantum's messages are queued (state is complete) but
//     never fire.
//  3. Horizon: h = min(GLB + Δ, t+1), capped so RunUntil(t) fires
//     events at exactly t but nothing later. A group of one kernel has
//     no peer that could post to it, so its lookahead is unbounded:
//     h = t+1 and the whole RunUntil is a single quantum.
//  4. Quantum: every shard runs Kernel.RunBefore(h), in shard order on
//     the calling goroutine. Shards share no mutable state within a
//     quantum; cross-shard effects go through Post, whose
//     per-(src,dst) outboxes are drained only at the next barrier.
//
// Determinism contract: the events each shard fires, their order, their
// timestamps, and each shard's RNG consumption depend only on the
// program and Δ. The differential tests in this package pin a Group
// against an independently written sequential reference coordinator
// on 300 randomized seeds.
package shard

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/haechi-qos/haechi/internal/sanitize"
	"github.com/haechi-qos/haechi/internal/sim"
)

// message is one cross-shard delivery: fn runs on the destination shard
// at virtual time at. seq orders same-instant messages from one source.
type message struct {
	at  sim.Time
	seq uint64
	src int
	fn  func()
}

// Group coordinates a fixed set of shard kernels. Construct with New;
// drive with RunUntil; route cross-shard work through Post.
type Group struct {
	kernels []*sim.Kernel
	delta   sim.Time

	// outbox[src][dst] holds messages posted by shard src for shard dst
	// during the current quantum; only shard src's events append to it.
	outbox [][][]message
	// seq[src] numbers shard src's posts; per-source monotone across
	// the whole run, making (seq, src) a unique mailbox sort key.
	seq []uint64

	// horizon is the current quantum's bound while a quantum is
	// running; Post panics on a delivery time below it (a lookahead
	// violation would mean the message should already have fired).
	horizon sim.Time
	running bool
	stopped bool

	// Diagnostics, all deterministic.
	quanta  uint64
	idle    []uint64 // per-shard quanta that fired zero events
	cross   uint64   // mailbox messages delivered
	scratch []message

	// san, when non-nil, checks mailbox ordering during inject
	// (internal/sanitize).
	san *sanitize.Checker
}

// SetSanitizer installs the invariant checker consulted during mailbox
// injection. Nil (the default) disables the checks.
func (g *Group) SetSanitizer(c *sanitize.Checker) { g.san = c }

// New creates a coordinator over the given kernels with lookahead
// delta (the minimum virtual-time latency of any cross-shard message).
// A single kernel exchanges no messages, so delta is not consulted (and
// not validated) for a group of one.
func New(kernels []*sim.Kernel, delta sim.Time) (*Group, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("shard: group needs at least one kernel")
	}
	if delta <= 0 && len(kernels) > 1 {
		return nil, fmt.Errorf("shard: lookahead must be positive, got %v", delta)
	}
	n := len(kernels)
	g := &Group{
		kernels: kernels,
		delta:   delta,
		outbox:  make([][][]message, n),
		seq:     make([]uint64, n),
		idle:    make([]uint64, n),
	}
	for s := range g.outbox {
		g.outbox[s] = make([][]message, n)
	}
	return g, nil
}

// Kernels returns the shard kernels, indexed by shard.
func (g *Group) Kernels() []*sim.Kernel { return g.kernels }

// Delta returns the lookahead.
func (g *Group) Delta() sim.Time { return g.delta }

// Quanta returns the number of synchronization quanta executed.
func (g *Group) Quanta() uint64 { return g.quanta }

// CrossMessages returns the number of mailbox messages delivered.
func (g *Group) CrossMessages() uint64 { return g.cross }

// IdleQuanta returns, per shard, how many quanta fired zero events on
// that shard — the deterministic proxy for barrier stall: a high count
// means the shard spent most barriers waiting on its peers.
func (g *Group) IdleQuanta() []uint64 {
	out := make([]uint64, len(g.idle))
	copy(out, g.idle)
	return out
}

// Executed returns the total events fired across all shards.
func (g *Group) Executed() uint64 {
	var n uint64
	for _, k := range g.kernels {
		n += k.Executed()
	}
	return n
}

// Post schedules fn on shard dst at absolute virtual time at, on
// behalf of shard src. During a quantum it may only be called from
// shard src's own event handlers (the per-(src,dst) outbox is
// single-writer), and at must be at or beyond the quantum horizon —
// with every cross-shard latency ≥ Δ this holds by construction, and
// Post panics otherwise rather than silently reordering the past.
// Outside a quantum (setup code, between RunUntil calls) the message
// is injected immediately.
func (g *Group) Post(src, dst int, at sim.Time, fn func()) {
	if !g.running {
		g.kernels[dst].At(at, fn)
		g.cross++
		return
	}
	if at < g.horizon {
		panic(fmt.Sprintf("shard: lookahead violation: shard %d posted to shard %d at %v, inside current quantum horizon %v",
			src, dst, at, g.horizon))
	}
	g.outbox[src][dst] = append(g.outbox[src][dst], message{at: at, seq: g.seq[src], src: src, fn: fn})
	g.seq[src]++
}

// Stop halts the group: the current RunUntil (if any) has already
// returned, and subsequent RunUntil calls are no-ops. Pending events
// on every shard remain queued but never fire. To stop from inside the
// simulation, an event handler stops its own shard's kernel instead;
// see RunUntil for how that propagates.
func (g *Group) Stop() { g.stopped = true }

// Stopped reports whether the group has halted, by Stop or by a shard
// kernel stopping.
func (g *Group) Stopped() bool { return g.stopped }

// RunUntil advances every shard to virtual time t: events with
// timestamps <= t fire, clocks end at exactly t.
//
// Stop semantics: an event handler may stop its own shard's kernel
// (never a peer's — that would be a cross-shard write). The stop is
// observed at the next barrier; every peer completes the full current
// quantum first, because shards exchange nothing mid-quantum. The final quantum's mailbox
// messages are injected — so queued state is complete — but nothing
// further fires, no clock is advanced to t, and the group halts:
// subsequent RunUntil calls return immediately. An external Stop on
// the Group behaves the same way from the next RunUntil call on.
func (g *Group) RunUntil(t sim.Time) {
	if g.stopped {
		return
	}
	for {
		g.inject()
		for _, k := range g.kernels {
			if k.Stopped() {
				g.halt()
				return
			}
		}
		glb, ok := g.lowerBound()
		if !ok || glb > t {
			break
		}
		h := t + 1
		if len(g.kernels) > 1 && glb+g.delta < h {
			h = glb + g.delta
		}
		g.horizon = h
		g.running = true
		for i, k := range g.kernels {
			before := k.Executed()
			k.RunBefore(h)
			if k.Executed() == before {
				g.idle[i]++
			}
		}
		g.running = false
		g.quanta++
	}
	// Every remaining event is beyond t; advance the clocks to t.
	for _, k := range g.kernels {
		k.RunUntil(t)
	}
}

// lowerBound returns the earliest pending event time across shards.
func (g *Group) lowerBound() (sim.Time, bool) {
	var glb sim.Time
	found := false
	for _, k := range g.kernels {
		if at, ok := k.NextAt(); ok && (!found || at < glb) {
			glb = at
			found = true
		}
	}
	return glb, found
}

// inject drains every mailbox into its destination kernel. For each
// destination the pending messages from all sources are delivered in
// (at, seq, src) order — a strict total order because (seq, src) is
// unique per source — so the destination kernel's tie-breaking
// sequence numbers, and with them the firing order, are independent of
// the order the shards ran in.
func (g *Group) inject() {
	for dst := range g.kernels {
		pending := g.scratch[:0]
		for src := range g.kernels {
			box := g.outbox[src][dst]
			if len(box) == 0 {
				continue
			}
			pending = append(pending, box...)
			for i := range box {
				box[i].fn = nil // drop the closure refs in the reused backing array
			}
			g.outbox[src][dst] = box[:0]
		}
		if len(pending) == 0 {
			continue
		}
		if len(pending) > 1 { // almost every batch is a single message
			slices.SortFunc(pending, compareMessages)
		}
		if g.san != nil {
			g.checkMailbox(dst, pending)
		}
		for i := range pending {
			g.kernels[dst].At(pending[i].at, pending[i].fn)
			pending[i].fn = nil
		}
		g.cross += uint64(len(pending))
		g.scratch = pending[:0]
	}
}

// compareMessages is the mailbox delivery order: (at, seq, src).
func compareMessages(a, b message) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.seq, b.seq); c != 0 {
		return c
	}
	return cmp.Compare(a.src, b.src)
}

// checkMailbox asserts that a destination's sorted mailbox batch is
// strictly increasing in (at, seq, src) — i.e. every (seq, src) key is
// unique, so delivery order cannot depend on the order shards ran in —
// and that no message lands in the destination's past (a lookahead
// violation Post's horizon panic did not see, e.g. a message delayed a
// full quantum).
func (g *Group) checkMailbox(dst int, pending []message) {
	now := g.kernels[dst].Now()
	for i := range pending {
		m := &pending[i]
		if m.at < now {
			g.san.Reportf("shard-mailbox", int64(now),
				"message from shard %d to shard %d at %v is in the destination's past",
				m.src, dst, m.at)
		}
		if i == 0 {
			continue
		}
		p := &pending[i-1]
		if m.at < p.at ||
			(m.at == p.at && (m.seq < p.seq || (m.seq == p.seq && m.src <= p.src))) {
			g.san.Reportf("shard-mailbox", int64(now),
				"mailbox for shard %d not strictly (at, seq, src)-ordered: (%v, %d, %d) after (%v, %d, %d)",
				dst, m.at, m.seq, m.src, p.at, p.seq, p.src)
		}
	}
}

// halt stops every kernel and the group, making any bypassing access
// to an individual shard kernel inert as well.
func (g *Group) halt() {
	for _, k := range g.kernels {
		k.Stop()
	}
	g.stopped = true
}
