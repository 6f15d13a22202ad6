// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue ordered by (time, sequence), cancellable
// timers, periodic tickers, and a seeded random source.
//
// All Haechi components are driven by this kernel, which makes experiment
// runs reproducible and decoupled from wall-clock time. The kernel is
// single-threaded by design: every event handler runs to completion before
// the next event fires, so components need no internal locking.
//
// The event queue is a hierarchical timing wheel with an intrusive event
// freelist (see wheel.go and DESIGN.md §8): pushes and pops are O(1) in
// the common case and Schedule/At/Cancel are allocation-free in steady
// state, while the delivery order remains exactly the (at, seq) total
// order of the original binary heap.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It doubles as a duration; arithmetic on Time values is plain
// integer arithmetic.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fµs", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a scheduled callback. Events are ordered by time, with the
// scheduling sequence number breaking ties so that events scheduled earlier
// for the same instant run first (deterministic FIFO semantics).
//
// Events are pooled: after firing (or after a cancelled event is reaped)
// the event returns to the kernel's freelist and gen is bumped, which
// invalidates every Timer handle still referring to it. next links the
// event into a wheel slot or the freelist.
type event struct {
	at       Time
	seq      uint64
	fn       func()
	next     *event
	gen      uint32
	canceled bool
}

// Timer is a handle to a scheduled event that can be canceled. It is a
// value: the zero Timer is valid and inert, and a handle outlives its
// event — once the event has fired and been recycled (and possibly reused
// for a later scheduling) the generation check makes the old handle a
// no-op, so holding a Timer past its firing is always safe.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint32
}

// Cancel prevents the timer's callback from running. Canceling an already
// fired or canceled timer is a no-op. Cancel reports whether the callback
// was prevented from running.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.gen != t.ev.gen || t.ev.canceled || t.ev.fn == nil {
		return false
	}
	t.ev.canceled = true
	t.ev.fn = nil // release the closure
	if t.k != nil {
		t.k.cancelled++
		t.k.live--
	}
	return true
}

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct one with New.
type Kernel struct {
	now     Time
	q       timerWheel
	seq     uint64
	stopped bool
	rng     *rand.Rand
	// live counts scheduled events that have neither fired nor been
	// cancelled; it backs Pending.
	live int
	// executed counts events that have fired, for diagnostics.
	executed uint64
	// cancelled counts timers cancelled before firing, for diagnostics.
	cancelled uint64
	// eventCheck, when set, observes every fired event's (at, seq) just
	// before its callback runs. It is the sanitizer's monotonicity probe
	// (internal/sanitize): the wheel must pop events in strictly
	// increasing lexicographic (at, seq) order. Nil in production runs —
	// Step pays one pointer comparison.
	eventCheck func(at Time, seq uint64)
}

// New returns a kernel whose random source is seeded with seed. The same
// seed always yields the same simulation outcome.
func New(seed int64) *Kernel {
	return &Kernel{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed returns the number of events that have fired so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Cancelled returns the number of timers cancelled before firing.
func (k *Kernel) Cancelled() uint64 { return k.cancelled }

// Pending returns the number of events still scheduled to fire. Cancelled
// events awaiting reaping are not counted.
func (k *Kernel) Pending() int { return k.live }

// Schedule runs fn after delay d (>= 0). A negative delay is treated as
// zero. It returns a Timer that can cancel the callback.
func (k *Kernel) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// At runs fn at absolute virtual time t. If t is in the past it runs at the
// current time (after already queued events for that instant).
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		t = k.now
	}
	ev := k.q.alloc()
	ev.at = t
	ev.seq = k.seq
	ev.fn = fn
	k.seq++
	k.q.push(ev)
	k.live++
	return Timer{k: k, ev: ev, gen: ev.gen}
}

// Ticker repeatedly invokes a callback at a fixed interval until stopped.
type Ticker struct {
	k        *Kernel
	interval Time
	fn       func()
	tickFn   func() // t.tick, bound once: rescheduling allocates nothing
	timer    Timer
	stopped  bool
}

// Every schedules fn to run first after start, then every interval.
// Interval must be positive.
func (k *Kernel) Every(start, interval Time, fn func()) (*Ticker, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("sim: ticker interval must be positive, got %v", interval)
	}
	t := &Ticker{k: k, interval: interval, fn: fn}
	t.tickFn = t.tick
	t.timer = k.Schedule(start, t.tickFn)
	return t, nil
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.timer = t.k.Schedule(t.interval, t.tickFn)
	}
}

// Stop prevents all future ticks.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.timer.Cancel()
}

// SetEventCheck installs (or clears, with nil) the per-event observer
// called by Step with each fired event's (at, seq). The observer must
// not schedule events or mutate kernel state.
func (k *Kernel) SetEventCheck(fn func(at Time, seq uint64)) { k.eventCheck = fn }

// Step fires the next event. It reports false when the queue is empty or
// the kernel has been stopped.
func (k *Kernel) Step() bool {
	for {
		if k.stopped {
			return false
		}
		ev := k.q.popMin()
		if ev == nil {
			return false
		}
		if ev.canceled {
			k.q.recycle(ev)
			continue
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		if k.eventCheck != nil {
			k.eventCheck(ev.at, ev.seq)
		}
		fn := ev.fn
		k.q.recycle(ev)
		k.live--
		k.executed++
		fn()
		return true
	}
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled for later instants remain queued.
//
// If Stop is called (by an event handler, or before RunUntil), execution
// halts where it stands: remaining events — including ones due at or
// before t — stay queued and never fire, and the clock is NOT advanced
// to t; it stays at the last fired event's time. A later RunUntil on a
// stopped kernel is a no-op. The shard coordinator
// (internal/sim/shard.Group) relies on exactly these semantics to halt
// every shard at the same barrier; see Group.RunUntil.
func (k *Kernel) RunUntil(t Time) {
	for !k.stopped {
		ev := k.peek()
		if ev == nil || ev.at > t {
			break
		}
		k.Step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

// RunBefore executes events with timestamps strictly before t. Unlike
// RunUntil it neither fires events at exactly t nor advances the clock
// to t: the clock is left at the last fired event's time. It is the
// quantum step of the shard coordinator — a shard may safely execute
// everything below the synchronization horizon, but the horizon itself
// belongs to the next quantum.
func (k *Kernel) RunBefore(t Time) {
	for !k.stopped {
		ev := k.peek()
		if ev == nil || ev.at >= t {
			break
		}
		k.Step()
	}
}

// NextAt reports the timestamp of the earliest pending event. ok is
// false when the queue is empty (cancelled events awaiting reaping do
// not count). The shard coordinator uses it to compute the global
// lower bound across shards.
func (k *Kernel) NextAt() (at Time, ok bool) {
	ev := k.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Stop halts the simulation: no further events fire. Pending events remain
// queued but are never executed.
//
// Stop is single-kernel: under the shard coordinator, an event handler
// may only stop its own shard's kernel. The coordinator observes the
// stop at the next quantum barrier; peers complete the full current
// quantum and the group then halts with every remaining event unfired.
// See internal/sim/shard.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// peek returns the earliest non-canceled event without firing it, reaping
// canceled events along the way.
func (k *Kernel) peek() *event {
	for {
		ev := k.q.min()
		if ev == nil {
			return nil
		}
		if !ev.canceled {
			return ev
		}
		k.q.popMin()
		k.q.recycle(ev)
	}
}
