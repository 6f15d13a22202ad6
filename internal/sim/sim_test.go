package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	tests := []struct {
		name string
		t    Time
		want float64
		get  func(Time) float64
	}{
		{"seconds", 2 * Second, 2.0, Time.Seconds},
		{"milliseconds", 1500 * Microsecond, 1.5, Time.Milliseconds},
		{"microseconds", 2500 * Nanosecond, 2.5, Time.Microseconds},
		{"half second", 500 * Millisecond, 0.5, Time.Seconds},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.get(tt.t); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		t    Time
		want string
	}{
		{2 * Second, "2.000s"},
		{3 * Millisecond, "3.000ms"},
		{7 * Microsecond, "7.000µs"},
		{42, "42ns"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.t), got, tt.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	var hits []Time
	k.Schedule(10, func() {
		hits = append(hits, k.Now())
		k.Schedule(5, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("nested schedule produced %v, want [10 15]", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New(1)
	fired := false
	k.Schedule(-5, func() { fired = true })
	k.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if k.Now() != 0 {
		t.Errorf("clock moved to %v for clamped event", k.Now())
	}
}

func TestAtInPast(t *testing.T) {
	k := New(1)
	var at Time = -1
	k.Schedule(100, func() {
		k.At(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 100 {
		t.Errorf("past event ran at %v, want 100 (current time)", at)
	}
}

func TestTimerCancel(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.Schedule(10, func() { fired = true })
	if !tm.Cancel() {
		t.Error("Cancel returned false on pending timer")
	}
	if tm.Cancel() {
		t.Error("second Cancel returned true")
	}
	k.Run()
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	k := New(1)
	tm := k.Schedule(10, func() {})
	k.Run()
	if tm.Cancel() {
		t.Error("Cancel after fire returned true")
	}
	var zero Timer
	if zero.Cancel() {
		t.Error("zero Timer.Cancel() returned true")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want [10 20]", fired)
	}
	if k.Now() != 25 {
		t.Errorf("clock = %v after RunUntil(25)", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("remaining events did not fire: %v", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	k := New(1)
	fired := false
	k.Schedule(25, func() { fired = true })
	k.RunUntil(25)
	if !fired {
		t.Error("event at exactly the RunUntil bound did not fire")
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	count := 0
	k.Schedule(10, func() { count++; k.Stop() })
	k.Schedule(20, func() { count++ })
	k.Run()
	if count != 1 {
		t.Errorf("events after Stop fired, count=%d", count)
	}
	if !k.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestTicker(t *testing.T) {
	k := New(1)
	var ticks []Time
	tk, err := k.Every(5, 10, func() { ticks = append(ticks, k.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(36, func() { tk.Stop() })
	k.Run()
	want := []Time{5, 15, 25, 35}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := New(1)
	count := 0
	var tk *Ticker
	tk, err := k.Every(0, 10, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if count != 3 {
		t.Errorf("ticker fired %d times, want 3", count)
	}
}

func TestTickerInvalidInterval(t *testing.T) {
	k := New(1)
	if _, err := k.Every(0, 0, func() {}); err == nil {
		t.Error("Every with zero interval did not error")
	}
	if _, err := k.Every(0, -5, func() {}); err == nil {
		t.Error("Every with negative interval did not error")
	}
}

func TestTickerStopNil(t *testing.T) {
	var tk *Ticker
	tk.Stop() // must not panic
}

func TestExecutedAndPending(t *testing.T) {
	k := New(1)
	k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	if k.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", k.Pending())
	}
	k.Run()
	if k.Executed() != 2 {
		t.Errorf("Executed = %d, want 2", k.Executed())
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", k.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := New(42)
		var out []Time
		for i := 0; i < 100; i++ {
			d := Time(k.Rand().Intn(1000))
			k.Schedule(d, func() { out = append(out, k.Now()) })
		}
		k.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHeapProperty checks with random schedules that events always fire in
// nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New(7)
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeapRandomCancel mixes scheduling and canceling and checks the
// survivor set fires exactly once each, in order.
func TestHeapRandomCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		k := New(int64(trial))
		n := 200
		timers := make([]Timer, n)
		firedCount := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = k.Schedule(Time(rng.Intn(5000)), func() { firedCount[i]++ })
		}
		canceled := make(map[int]bool)
		for i := 0; i < n/3; i++ {
			j := rng.Intn(n)
			if timers[j].Cancel() {
				canceled[j] = true
			}
		}
		k.Run()
		for i := 0; i < n; i++ {
			want := 1
			if canceled[i] {
				want = 0
			}
			if firedCount[i] != want {
				t.Fatalf("trial %d: event %d fired %d times, want %d", trial, i, firedCount[i], want)
			}
		}
	}
}

func TestStationFIFOAndRate(t *testing.T) {
	k := New(1)
	st, err := NewStation(k, "nic", 1e6, 0) // 1 op/µs
	if err != nil {
		t.Fatal(err)
	}
	cb := newOnDone(st)
	var completions []Time
	for i := 0; i < 5; i++ {
		st.SubmitTagged(1, cb.tag(func() { completions = append(completions, k.Now()) }))
	}
	k.Run()
	for i, c := range completions {
		want := Time(i+1) * Microsecond
		if c != want {
			t.Errorf("completion %d at %v, want %v", i, c, want)
		}
	}
	if st.Served() != 5 {
		t.Errorf("Served = %d, want 5", st.Served())
	}
}

func TestStationIdleGap(t *testing.T) {
	k := New(1)
	st, err := NewStation(k, "nic", 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb := newOnDone(st)
	var first, second Time
	st.SubmitTagged(1, cb.tag(func() { first = k.Now() }))
	k.Schedule(10*Microsecond, func() {
		st.SubmitTagged(1, cb.tag(func() { second = k.Now() }))
	})
	k.Run()
	if first != Microsecond {
		t.Errorf("first completion at %v, want 1µs", first)
	}
	if second != 11*Microsecond {
		t.Errorf("second completion at %v, want 11µs (idle server restarts clean)", second)
	}
}

func TestStationWeighted(t *testing.T) {
	k := New(1)
	st, err := NewStation(k, "nic", 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb := newOnDone(st)
	var done Time
	st.SubmitTagged(0.5, cb.tag(func() { done = k.Now() }))
	k.Run()
	if done != 500*Nanosecond {
		t.Errorf("weighted op completed at %v, want 500ns", done)
	}
}

func TestStationZeroAndNegativeWeight(t *testing.T) {
	k := New(1)
	st, _ := NewStation(k, "nic", 1e6, 0)
	cb := newOnDone(st)
	var times []Time
	st.SubmitTagged(0, cb.tag(func() { times = append(times, k.Now()) }))
	st.SubmitTagged(-3, cb.tag(func() { times = append(times, k.Now()) }))
	k.Run()
	for _, tm := range times {
		if tm != 0 {
			t.Errorf("zero-weight op completed at %v, want 0", tm)
		}
	}
}

func TestStationSetRate(t *testing.T) {
	k := New(1)
	st, _ := NewStation(k, "nic", 1e6, 0)
	cb := newOnDone(st)
	if err := st.SetRate(2e6); err != nil {
		t.Fatal(err)
	}
	var done Time
	st.SubmitTagged(1, cb.tag(func() { done = k.Now() }))
	k.Run()
	if done != 500*Nanosecond {
		t.Errorf("op after SetRate completed at %v, want 500ns", done)
	}
	if err := st.SetRate(0); err == nil {
		t.Error("SetRate(0) did not error")
	}
}

func TestStationInvalid(t *testing.T) {
	k := New(1)
	if _, err := NewStation(k, "x", 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewStation(k, "x", 100, 1.5); err == nil {
		t.Error("jitter >= 1 accepted")
	}
	if _, err := NewStation(k, "x", 100, -0.1); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestStationJitterBounds(t *testing.T) {
	k := New(99)
	st, err := NewStation(k, "nic", 1e6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cb := newOnDone(st)
	var prev Time
	n := 1000
	var last Time
	for i := 0; i < n; i++ {
		st.SubmitTagged(1, cb.tag(func() { last = k.Now() }))
	}
	k.Run()
	_ = prev
	// Mean service 1µs with ±10% jitter: total duration within [0.9n, 1.1n] µs.
	lo := Time(float64(n) * 0.9 * float64(Microsecond))
	hi := Time(float64(n) * 1.1 * float64(Microsecond))
	if last < lo || last > hi {
		t.Errorf("jittered total %v outside [%v, %v]", last, lo, hi)
	}
}

func TestStationQueueDelay(t *testing.T) {
	k := New(1)
	st, _ := NewStation(k, "nic", 1e6, 0)
	cb := newOnDone(st)
	if st.QueueDelay() != 0 {
		t.Error("idle station reports nonzero queue delay")
	}
	st.SubmitTagged(1, cb.tag(nil))
	st.SubmitTagged(1, cb.tag(nil))
	if st.QueueDelay() != 2*Microsecond {
		t.Errorf("QueueDelay = %v, want 2µs", st.QueueDelay())
	}
	k.Run()
	if st.QueueDelay() != 0 {
		t.Error("drained station reports nonzero queue delay")
	}
}

// TestStationThroughputProperty: for any positive rate and op count, a
// saturated station's measured throughput equals its configured rate.
func TestStationThroughputProperty(t *testing.T) {
	f := func(rateK uint16, nOps uint8) bool {
		rate := float64(rateK%1000+1) * 1000 // 1K..1000K ops/s
		n := int(nOps%100) + 1
		k := New(5)
		st, err := NewStation(k, "s", rate, 0)
		if err != nil {
			return false
		}
		cb := newOnDone(st)
		var last Time
		for i := 0; i < n; i++ {
			st.SubmitTagged(1, cb.tag(func() { last = k.Now() }))
		}
		k.Run()
		got := float64(n) / last.Seconds()
		rel := (got - rate) / rate
		if rel < 0 {
			rel = -rel
		}
		return rel < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStationAccessors(t *testing.T) {
	k := New(1)
	st, err := NewStation(k, "mynic", 2e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.name != "mynic" {
		t.Errorf("Name = %q", st.name)
	}
	if got := st.Rate(); got < 1.99e6 || got > 2.01e6 {
		t.Errorf("Rate = %v", got)
	}
}

func TestSubmitPriorityChargesCapacity(t *testing.T) {
	k := New(1)
	st, _ := NewStation(k, "nic", 1e6, 0) // 1µs/op
	cb := newOnDone(st)
	// A priority op completes after its own service time...
	var prioAt, bulkAt Time
	st.SubmitPriorityTagged(1, cb.tag(func() { prioAt = k.Now() }))
	// ...but still pushes back bulk work submitted after it.
	st.SubmitTagged(1, cb.tag(func() { bulkAt = k.Now() }))
	k.Run()
	if prioAt != Microsecond {
		t.Errorf("priority completed at %v, want 1µs", prioAt)
	}
	if bulkAt != 2*Microsecond {
		t.Errorf("bulk completed at %v, want 2µs (capacity charged)", bulkAt)
	}
}

func TestSubmitPrioritySerializesAmongPriorities(t *testing.T) {
	k := New(1)
	st, _ := NewStation(k, "nic", 1e6, 0)
	cb := newOnDone(st)
	var times []Time
	for i := 0; i < 3; i++ {
		st.SubmitPriorityTagged(0.5, cb.tag(func() { times = append(times, k.Now()) }))
	}
	k.Run()
	want := []Time{500, 1000, 1500}
	for i := range want {
		if times[i] != want[i]*Nanosecond {
			t.Errorf("priority op %d at %v, want %vns", i, times[i], want[i])
		}
	}
}

func TestSubmitPriorityNegativeWeight(t *testing.T) {
	k := New(1)
	st, _ := NewStation(k, "nic", 1e6, 0)
	cb := newOnDone(st)
	var at Time = -1
	st.SubmitPriorityTagged(-2, cb.tag(func() { at = k.Now() }))
	k.Run()
	if at != 0 {
		t.Errorf("negative-weight priority op at %v, want 0", at)
	}
}

func TestSubmitPriorityJitterBounds(t *testing.T) {
	k := New(7)
	st, _ := NewStation(k, "nic", 1e6, 0.1)
	cb := newOnDone(st)
	var last Time
	for i := 0; i < 500; i++ {
		st.SubmitPriorityTagged(1, cb.tag(func() { last = k.Now() }))
	}
	k.Run()
	lo := Time(float64(500) * 0.9 * float64(Microsecond))
	hi := Time(float64(500) * 1.1 * float64(Microsecond))
	if last < lo || last > hi {
		t.Errorf("jittered priority total %v outside [%v, %v]", last, lo, hi)
	}
}

// onDone adapts closure-style test code to the station's one completion
// form: tag registers fn under a fresh tag, which the dispatch installed
// on the station resolves back to it.
type onDone struct{ fns []func() }

func newOnDone(st *Station) *onDone {
	d := &onDone{}
	st.SetDispatch(func(tag uint32) {
		if fn := d.fns[tag]; fn != nil {
			fn()
		}
	})
	return d
}

func (d *onDone) tag(fn func()) uint32 {
	d.fns = append(d.fns, fn)
	return uint32(len(d.fns) - 1)
}
