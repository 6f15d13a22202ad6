package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refKernel is the pre-timing-wheel event queue: a plain binary min-heap
// keyed on (at, seq). It is kept verbatim as the reference model for the
// differential tests below and as the baseline for the kernel benchmarks:
// the timing wheel must deliver events in exactly this order.
type refKernel struct {
	now     Time
	heap    []*refEvent
	seq     uint64
	stopped bool
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

type refTimer struct {
	k  *refKernel
	ev *refEvent
}

func (t *refTimer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.canceled || t.ev.fn == nil {
		return false
	}
	t.ev.canceled = true
	t.ev.fn = nil
	return true
}

func newRefKernel() *refKernel { return &refKernel{} }

func (k *refKernel) Now() Time { return k.now }

func (k *refKernel) Schedule(d Time, fn func()) *refTimer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

func (k *refKernel) At(t Time, fn func()) *refTimer {
	if t < k.now {
		t = k.now
	}
	ev := &refEvent{at: t, seq: k.seq, fn: fn}
	k.seq++
	k.push(ev)
	return &refTimer{k: k, ev: ev}
}

func (k *refKernel) Step() bool {
	for {
		if k.stopped || len(k.heap) == 0 {
			return false
		}
		ev := k.pop()
		if ev.canceled {
			continue
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		fn := ev.fn
		ev.fn = nil
		fn()
		return true
	}
}

func (k *refKernel) Run() {
	for k.Step() {
	}
}

func (k *refKernel) RunUntil(t Time) {
	for !k.stopped {
		ev := k.peekEv()
		if ev == nil || ev.at > t {
			break
		}
		k.Step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

func (k *refKernel) peekEv() *refEvent {
	for len(k.heap) > 0 {
		if k.heap[0].canceled {
			k.pop()
			continue
		}
		return k.heap[0]
	}
	return nil
}

func (ev *refEvent) less(other *refEvent) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

func (k *refKernel) push(ev *refEvent) {
	k.heap = append(k.heap, ev)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.heap[i].less(k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *refKernel) pop() *refEvent {
	n := len(k.heap)
	top := k.heap[0]
	k.heap[0] = k.heap[n-1]
	k.heap[n-1] = nil
	k.heap = k.heap[:n-1]
	n--
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && k.heap[right].less(k.heap[left]) {
			smallest = right
		}
		if !k.heap[smallest].less(k.heap[i]) {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}

// traceKernel abstracts the two engines so one randomized program can
// drive both.
type traceKernel interface {
	Now() Time
	Schedule(d Time, fn func()) func() bool // returns the timer's Cancel
	RunUntil(t Time)
	Run()
}

type wheelAdapter struct{ k *Kernel }

func (a wheelAdapter) Now() Time { return a.k.Now() }
func (a wheelAdapter) Schedule(d Time, fn func()) func() bool {
	t := a.k.Schedule(d, fn)
	return t.Cancel
}
func (a wheelAdapter) RunUntil(t Time) { a.k.RunUntil(t) }
func (a wheelAdapter) Run()            { a.k.Run() }

type refAdapter struct{ k *refKernel }

func (a refAdapter) Now() Time { return a.k.Now() }
func (a refAdapter) Schedule(d Time, fn func()) func() bool {
	t := a.k.Schedule(d, fn)
	return t.Cancel
}
func (a refAdapter) RunUntil(t Time) { a.k.RunUntil(t) }
func (a refAdapter) Run()            { a.k.Run() }

type fireRec struct {
	id int
	at Time
}

// traceDelays mixes the time scales the simulator actually uses: control
// ops (sub-µs), propagation (µs), service times (tens of µs), periods
// (ms), and far-future horizons that exercise the overflow heap.
var traceDelays = []Time{
	0, 1, 3, 700,
	Microsecond, 2 * Microsecond, 17 * Microsecond,
	Millisecond / 2, Millisecond, 7 * Millisecond,
	Second / 4, Second, 19 * Second, 120 * Second,
}

// boundaryDelays straddles every level boundary of the wheel: one bucket
// of level 0 (4 096 ns) and the spans of levels 0 to 3 (2^18 ns = 262 µs,
// 2^24 = 16.8 ms, 2^30 = 1.07 s, 2^36 = 68.7 s, the last being the
// horizon past which an event waits in the overflow heap), each one
// nanosecond short, exact and — where the far side is another structure
// — one past. Scheduled from cursors at arbitrary phases, the same delay
// lands on either side of its boundary from one event to the next.
var boundaryDelays = []Time{
	0, 1, 4095, 4096, 4097,
	1<<18 - 1, 1 << 18,
	1<<24 - 1, 1 << 24, 1<<24 + 1,
	1<<30 - 1, 1 << 30, 1<<30 + 1,
	1<<36 - 1, 1 << 36, 1<<36 + 1, 1<<36 + 1<<30,
}

// runTrace executes one randomized schedule/cancel/run-until program
// against k, drawing its delays from the given table, and returns the
// fired (id, time) log. The same seed always produces the same program,
// so the log from the wheel kernel and from the reference heap must
// match exactly.
func runTrace(k traceKernel, seed int64, delays []Time) []fireRec {
	rng := rand.New(rand.NewSource(seed))
	var log []fireRec
	var cancels []func() bool
	nextID := 0

	// A dense 1 s tick chain spanning ~140 s keeps wheel slots occupied
	// all the way across the ~68.7 s overflow horizon, so the far-future
	// events scheduled below (120 s delays, and the ones a nanosecond
	// either side of the horizon) still coexist with occupied slots when
	// the cursor reaches them — the interaction between the overflow heap
	// and a populated slot is exercised on every seed, not just when the
	// wheel happens to drain empty first.
	ticks := 0
	var tick func()
	tick = func() {
		log = append(log, fireRec{id: -1 - ticks, at: k.Now()})
		if ticks < 140 {
			ticks++
			k.Schedule(Second, tick)
		}
	}
	k.Schedule(Second, tick)

	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		d := delays[rng.Intn(len(delays))]
		if rng.Intn(4) == 0 {
			d += Time(rng.Intn(5000))
		}
		cancels = append(cancels, k.Schedule(d, func() {
			log = append(log, fireRec{id: id, at: k.Now()})
			if depth < 4 {
				for n := rng.Intn(3); n > 0; n-- {
					schedule(depth + 1)
				}
			}
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		}))
	}

	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		for i := 0; i < 5; i++ {
			cancels[rng.Intn(len(cancels))]()
		}
		k.RunUntil(k.Now() + delays[rng.Intn(len(delays))])
	}
	k.Run()
	return log
}

// TestWheelMatchesReferenceHeap replays randomized traces on the timing
// wheel and on the old binary heap and requires identical delivery: 300
// seeds at the simulator's own time scales, and 300 whose delays sit on
// the wheel's level boundaries.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delays []Time
	}{
		{"time scales", traceDelays},
		{"level boundaries", boundaryDelays},
	} {
		for seed := int64(1); seed <= 300; seed++ {
			got := runTrace(wheelAdapter{New(seed)}, seed, tc.delays)
			want := runTrace(refAdapter{newRefKernel()}, seed, tc.delays)
			if err := compareTraces(got, want); err != nil {
				t.Fatalf("%s, seed %d: %v", tc.name, seed, err)
			}
		}
	}
}

// overflowSlotBase is ~137 s: well past the wheel horizon, slot-aligned
// at every level.
const overflowSlotBase = Time(1) << 37

// overflowSlotTrace pins the interleaving the randomized programs
// almost never produced: an event parked in the overflow heap whose
// time falls *inside* the span of an occupied wheel slot — past the
// slot's start — when the cursor reaches it. A self-rescheduling 1 s
// tick keeps the wheel continuously occupied across the ~68.7 s horizon;
// once the far-future instant is within a second, a second event is
// landed 300 ns after the overflow event, in the same level-0 bucket.
// Draining that bucket's slot must not let the later event overtake the
// overflow event.
func overflowSlotTrace(k traceKernel) []fireRec {
	const base = overflowSlotBase
	var log []fireRec
	k.Schedule(base+100, func() { log = append(log, fireRec{id: 1, at: k.Now()}) })
	var tick func()
	tick = func() {
		log = append(log, fireRec{id: 0, at: k.Now()})
		if k.Now()+Second < base {
			k.Schedule(Second, tick)
			return
		}
		k.Schedule(base+400-k.Now(), func() { log = append(log, fireRec{id: 2, at: k.Now()}) })
	}
	k.Schedule(Second, tick)
	k.Run()
	return log
}

// TestWheelOverflowInsideOccupiedSlot is the regression test for the
// overflow-vs-occupied-slot ordering bug: advance() must consult the
// overflow heap on every cursor move, not only when the overflow
// minimum is at or before the earliest occupied slot's start.
func TestWheelOverflowInsideOccupiedSlot(t *testing.T) {
	got := overflowSlotTrace(wheelAdapter{New(1)})
	want := overflowSlotTrace(refAdapter{newRefKernel()})
	if err := compareTraces(got, want); err != nil {
		t.Fatal(err)
	}
	// Belt and braces, independent of the reference engine: the overflow
	// event (id 1, base+100) must fire before the wheel event (id 2,
	// base+400).
	const base = overflowSlotBase
	n := len(got)
	if n < 2 || got[n-2] != (fireRec{id: 1, at: base + 100}) || got[n-1] != (fireRec{id: 2, at: base + 400}) {
		t.Fatalf("overflow event overtaken: trace tail %v", got[max(0, n-3):])
	}
}

func compareTraces(got, want []fireRec) error {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("fire %d: wheel got id=%d at=%v, heap expected id=%d at=%v",
				i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("wheel fired %d events, heap fired %d", len(got), len(want))
	}
	return nil
}
