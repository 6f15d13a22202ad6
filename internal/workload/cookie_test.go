package workload

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// slotPoolGenerator is the reference the completion cookie is held to: the
// completion-slot pool the generator had before the arrival instant rode
// down with the I/O, its fields, Next and complete verbatim. The drivers,
// key stream and counters it works on are the embedded generator's, which
// the cookie did not touch.
type slotPoolGenerator struct {
	*Generator

	// Requests the I/O path has pulled and not yet completed live in a
	// slot pool: each slot carries the arrival time and a completion
	// callback bound once to the slot index and reused for every request
	// that later occupies the slot. Unlike a FIFO of start times this
	// stays correct when completions cross (with several data nodes the
	// cluster routes one generator's keys to independent engines). A
	// request that has arrived but not been pulled holds no slot, so the
	// pool is bounded by what the I/O path keeps posted, not by the backlog.
	slots []genSlot
	free  []int32
}

type genSlot struct {
	start  sim.Time
	doneFn func()
}

func (g *slotPoolGenerator) Next(arrivedAt sim.Time) (key uint64, done func()) {
	key = g.keys.Next(g.rng)
	var s int32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = int32(len(g.slots))
		g.slots = append(g.slots, genSlot{})
		i := s // the bound callback captures the index, not a slot pointer,
		// so pool growth relocating the slab is harmless.
		g.slots[s].doneFn = func() { g.complete(i) }
	}
	g.slots[s].start = arrivedAt
	return key, g.slots[s].doneFn
}

func (g *slotPoolGenerator) complete(slot int32) {
	g.Latency.Record(g.k.Now() - g.slots[slot].start)
	g.free = append(g.free, slot)
	g.completedTotal++
	g.completedThisPeriod++
	g.drv.onCompletion()
}

// carried is what rides down with a posted I/O and comes back with its
// completion: the arrival instant, which is the cookie, and for the
// reference its callback.
type carried struct {
	at   sim.Time
	done func()
}

// ioPath is a tenant's I/O path reduced to what a cookie has to survive.
// Each link completes in post order after its own latency, so completions
// cross between links; behind a link's send-queue depth a request waits —
// as its arrival instant on a single link (its key is drawn when it is
// posted), with its key already drawn when a router picked the link by
// key. A crash drops what is not posted and ignores arrivals until the
// restart, while what is on the wire still completes.
type ioPath struct {
	k        *sim.Kernel
	links    []*pathLink
	crashed  bool
	pull     func(arrivedAt sim.Time) (uint64, carried)
	complete func(carried)
	keys     []uint64 // in the order they were drawn
	// crossed counts completions of a request that arrived before one
	// already completed; newest is the latest arrival completed so far.
	crossed int
	newest  sim.Time
}

type pathLink struct {
	p        *ioPath
	latency  sim.Time
	depth    int
	inflight sim.FIFO[carried]
	waiting  sim.FIFO[routed]
}

type routed struct {
	at     sim.Time
	key    uint64
	c      carried
	hasKey bool
}

func (p *ioPath) arrive(n uint64) {
	if p.crashed {
		return
	}
	for now := p.k.Now(); n > 0; n-- {
		r := routed{at: now}
		ln := p.links[0]
		if len(p.links) > 1 {
			r.key, r.c = p.draw(now)
			r.hasKey = true
			ln = p.links[r.key%uint64(len(p.links))]
		}
		ln.waiting.Push(r)
		ln.pump()
	}
}

func (p *ioPath) draw(arrivedAt sim.Time) (uint64, carried) {
	key, c := p.pull(arrivedAt)
	p.keys = append(p.keys, key)
	return key, c
}

func (ln *pathLink) pump() {
	for ln.inflight.Len() < ln.depth && ln.waiting.Len() > 0 {
		r := ln.waiting.Pop()
		if !r.hasKey {
			_, r.c = ln.p.draw(r.at)
		}
		ln.inflight.Push(r.c)
		ln.p.k.Schedule(ln.latency, ln.onDone)
	}
}

func (ln *pathLink) onDone() {
	c := ln.inflight.Pop()
	if c.at < ln.p.newest {
		ln.p.crossed++
	}
	ln.p.newest = max(ln.p.newest, c.at)
	ln.p.complete(c)
	if !ln.p.crashed {
		ln.pump()
	}
}

func (p *ioPath) crash() {
	p.crashed = true
	for _, ln := range p.links {
		ln.waiting = sim.FIFO[routed]{}
	}
}

// outcome is everything the two generators must agree on.
type outcome struct {
	Keys              []uint64
	Issued, Completed uint64
	PerPeriod         []uint64
	Crossed           int
	Latency           any
}

// runPath drives one generator — the cookie one, or the slot-pool
// reference — through periods periods of demand behind an ioPath with the
// given link latencies, crashing and restarting it at the given instants
// (0 = never).
func runPath(t *testing.T, reference bool, pattern Pattern, latencies []sim.Time, crashAt, restartAt sim.Time) outcome {
	t.Helper()
	const (
		period  = sim.Millisecond
		periods = 4
		demand  = 300
		depth   = 8
	)
	k := sim.New(1)
	p := &ioPath{k: k}
	for _, l := range latencies {
		p.links = append(p.links, &pathLink{p: p, latency: l, depth: depth})
	}
	keys, err := NewScrambledZipfian(1000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(k, 42, keys, pattern, period, p.arrive)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		ref := &slotPoolGenerator{Generator: g}
		p.pull = func(at sim.Time) (uint64, carried) {
			key, done := ref.Next(at)
			return key, carried{at: at, done: done}
		}
		p.complete = func(c carried) { c.done() }
	} else {
		p.pull = func(at sim.Time) (uint64, carried) { return g.Next(at), carried{at: at} }
		p.complete = func(c carried) { g.Complete(c.at) }
	}
	var out outcome
	for i := 0; i < periods; i++ {
		k.At(sim.Time(i)*period, func() {
			out.PerPeriod = append(out.PerPeriod, g.TakePeriodCompleted())
			g.BeginPeriod(demand)
		})
	}
	if crashAt > 0 {
		k.At(crashAt, p.crash)
		k.At(restartAt, func() { p.crashed = false })
	}
	k.RunUntil(periods * period)
	g.Stop()
	k.Run()
	out.PerPeriod = append(out.PerPeriod, g.TakePeriodCompleted())
	out.Keys, out.Issued, out.Completed, out.Latency = p.keys, g.Issued(), g.Completed(), &g.Latency
	out.Crossed = p.crossed
	return out
}

// TestCookieMatchesSlotPool holds the generator that keeps nothing per
// request to the slot-pool one: identical latency histograms, completion
// counts per period and key sequence for every pattern over a single
// link, over two links whose completions cross (the case the slot pool
// existed for), and through a crash with I/Os on the wire and a restart.
func TestCookieMatchesSlotPool(t *testing.T) {
	const us = sim.Microsecond
	paths := []struct {
		name               string
		latencies          []sim.Time
		crashAt, restartAt sim.Time
	}{
		{"single link", []sim.Time{20 * us}, 0, 0},
		{"two links crossing", []sim.Time{90 * us, 7 * us}, 0, 0},
		{"crash and restart", []sim.Time{60 * us}, 1250 * us, 2100 * us},
		{"two links crossing, crash and restart", []sim.Time{90 * us, 7 * us}, 1250 * us, 2100 * us},
	}
	for _, path := range paths {
		for _, pattern := range []Pattern{Burst{}, Burst{Window: 24}, ConstantRate{}, Poisson{}} {
			t.Run(fmt.Sprintf("%s/%v", path.name, pattern), func(t *testing.T) {
				got := runPath(t, false, pattern, path.latencies, path.crashAt, path.restartAt)
				want := runPath(t, true, pattern, path.latencies, path.crashAt, path.restartAt)
				if got.Completed == 0 || len(got.Keys) == 0 {
					t.Fatalf("nothing completed: %+v", got)
				}
				if path.crashAt > 0 && got.Completed == got.Issued {
					t.Errorf("the crash dropped nothing (%d issued and completed)", got.Issued)
				}
				if (got.Crossed > 0) != (len(path.latencies) > 1) {
					t.Errorf("%d completions crossed over %d links", got.Crossed, len(path.latencies))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cookie and slot pool disagree:\n cookie    issued %d completed %d per period %v, %d keys\n slot pool issued %d completed %d per period %v, %d keys",
						got.Issued, got.Completed, got.PerPeriod, len(got.Keys),
						want.Issued, want.Completed, want.PerPeriod, len(want.Keys))
				}
			})
		}
	}
}
