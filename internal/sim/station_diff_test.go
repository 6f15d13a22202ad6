package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

type completion struct {
	id int
	at Time
}

// stationTrace is one driven schedule: the completion instant the
// analytic FIFO single-server model predicts for every submission (want,
// indexed by id, which is also submission order), the class each went
// to, and the completions the station dispatched, in dispatch order.
// subEv and doneEv are the kernel events (Executed ordinals) that made
// each submission, by id, and each dispatch, in dispatch order.
type stationTrace struct {
	want   []completion
	prio   []bool
	got    []completion
	subEv  []uint64
	doneEv []uint64
	served uint64
}

// driveStation runs one station (1 µs per unit of weight, no jitter)
// through a schedule whose every choice comes from pick(n) ∈ [0, n):
// batches of tagged submissions at random instants, either class, a
// weight drawn from weights, and — for some operations — a resubmission
// made from inside the dispatch function when the operation completes,
// so new entries land while a wakeup is draining.
func driveStation(pick func(n int) int, weights []float64, batches int) stationTrace {
	const service = Time(Microsecond)
	k := New(1)
	st, err := NewStation(k, "nic", 1e6, 0)
	if err != nil {
		panic(err)
	}
	var tr stationTrace
	var shadowBulk, shadowPrio Time
	var depth []int
	var chain []bool
	var submit func(d int)
	st.SetDispatch(func(tag uint32) {
		id := int(tag)
		tr.got = append(tr.got, completion{id: id, at: k.Now()})
		tr.doneEv = append(tr.doneEv, k.Executed())
		if chain[id] {
			submit(depth[id] + 1)
		}
	})
	submit = func(d int) {
		id := len(tr.want)
		w := weights[pick(len(weights))]
		svc := Time(float64(service) * max(w, 0))
		now := k.Now()
		prio := pick(3) == 0
		var at Time
		if prio {
			// Complete after its own service, serialized only with earlier
			// priority work, and push bulk work back by the same amount.
			at = max(now, shadowPrio) + svc
			shadowPrio = at
			shadowBulk = max(shadowBulk, now) + svc
		} else {
			at = max(now, shadowBulk) + svc
			shadowBulk = at
		}
		tr.want = append(tr.want, completion{id: id, at: at})
		tr.prio = append(tr.prio, prio)
		tr.subEv = append(tr.subEv, k.Executed())
		depth = append(depth, d)
		chain = append(chain, d < 2 && pick(4) == 0)
		if prio {
			st.SubmitPriorityTagged(w, uint32(id))
		} else {
			st.SubmitTagged(w, uint32(id))
		}
	}
	for i := 0; i < batches; i++ {
		at := Time(pick(60)) * service / 2
		n := 1 + pick(4)
		k.At(at, func() {
			for j := 0; j < n; j++ {
				submit(0)
			}
		})
	}
	k.Run()
	tr.served = st.Served()
	return tr
}

// check holds the trace to the model: every submission dispatched exactly
// once, at its predicted instant, in clock order, within each class in
// submission order, and in a later kernel event than the one that
// submitted it — a zero-weight submission made while its class drains
// rides a wakeup of its own, never the one already running. strict
// additionally requires the whole dispatch
// order to be (instant, submission) lexicographic, which is what the
// model implies when every weight is positive: each class's instants are
// then strictly increasing and every entry has a wakeup of its own,
// scheduled at submission. With zero weights a wakeup drains every entry
// of its class due at its instant, so cross-class order at one instant
// follows the wakeups (DESIGN.md §13.2) and only the per-class order is
// a property of the model.
func (tr stationTrace) check(t *testing.T, strict bool) {
	t.Helper()
	if len(tr.got) != len(tr.want) || tr.served != uint64(len(tr.want)) {
		t.Fatalf("%d dispatches, Served() = %d, want %d submissions", len(tr.got), tr.served, len(tr.want))
	}
	seen := make([]bool, len(tr.want))
	last := [2]int{-1, -1} // latest id dispatched per class
	for i, g := range tr.got {
		if seen[g.id] {
			t.Fatalf("dispatch %d: op %d completed twice", i, g.id)
		}
		seen[g.id] = true
		if w := tr.want[g.id]; g.at != w.at {
			t.Fatalf("dispatch %d: op %d at %v, model wants %v", i, g.id, g.at, w.at)
		}
		if tr.doneEv[i] <= tr.subEv[g.id] {
			t.Fatalf("dispatch %d: op %d completed in kernel event %d, submitted in event %d", i, g.id, tr.doneEv[i], tr.subEv[g.id])
		}
		if i > 0 && g.at < tr.got[i-1].at {
			t.Fatalf("dispatch %d: op %d at %v, before the previous dispatch at %v", i, g.id, g.at, tr.got[i-1].at)
		}
		c := 0
		if tr.prio[g.id] {
			c = 1
		}
		if g.id < last[c] {
			t.Fatalf("dispatch %d: op %d completed after op %d of its class, which was submitted later", i, g.id, last[c])
		}
		last[c] = g.id
	}
	if !strict {
		return
	}
	want := slices.Clone(tr.want)
	slices.SortStableFunc(want, func(a, b completion) int { return cmp.Compare(a.at, b.at) })
	for i, w := range want {
		if g := tr.got[i]; g != w {
			t.Fatalf("dispatch %d = (id=%d, at=%v), model wants (id=%d, at=%v)", i, g.id, g.at, w.id, w.at)
		}
	}
}

// TestStationBatchedMatchesReference is a 300-seed differential for the
// batched completion path: random tagged schedules (both classes, random
// positive weights, and resubmissions made from the dispatch function
// mid-drain) must complete at exactly the instants and in exactly the
// order of the analytic FIFO single-server model the pre-batching
// station implemented one kernel event at a time. Positive weights keep
// each class's completion instants strictly increasing, where batched
// and unbatched semantics provably coincide; zero weights are
// FuzzStation's and TestStationSameInstantCoalescing's.
func TestStationBatchedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		tr := driveStation(rng.Intn, []float64{0.5, 1, 1.5, 2}, 40)
		if len(tr.want) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		tr.check(t, true)
	}
}

// FuzzStation drives random tagged schedules — both classes, zero,
// negative (clamped to zero) and positive weights, resubmission from the
// dispatch function — and holds each to the analytic FIFO model: every
// operation completes once, at the instant the model predicts, in clock
// order and in submission order within its class.
func FuzzStation(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0, 0, 0, 0, 0, 0, 0, 0},                // zero weights, one instant, chained
		{5, 2, 1, 3, 0, 1, 2, 3, 4, 5, 0, 1, 2}, // mixed weights and classes
		{15, 59, 3, 1, 1, 2, 3, 2, 0, 0, 3, 3, 1, 4, 2, 0, 5, 1, 1},
		{8, 0, 3, 0, 2, 3, 0, 2, 3, 1, 1, 0, 0, 2, 1, 3, 0, 0, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		tr := driveStation(pick, []float64{0, 0.5, 1, 2, 0, -1}, 1+pick(16))
		tr.check(t, false)
	})
}

// TestStationSameInstantCoalescing pins the batched drain semantics:
// zero-weight submissions landing on one completion instant share a
// single kernel wakeup, drain in submission order, and an operation
// submitted from the dispatch function during the drain at the same
// instant fires on its own later wakeup — after every operation that was
// already due, and after a kernel event scheduled at that instant before
// it was submitted, exactly as one event per completion would order them.
func TestStationSameInstantCoalescing(t *testing.T) {
	k := New(1)
	st, err := NewStation(k, "nic", 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	st.SetDispatch(func(tag uint32) {
		order = append(order, int(tag))
		if tag == 1 {
			// Submitted mid-drain at the same instant: must not jump the
			// queue ahead of already-due entry 2, nor ahead of event 9.
			k.At(k.Now(), func() { order = append(order, 9) })
			st.SubmitTagged(0, 3)
		}
	})
	var before uint64
	k.At(10*Microsecond, func() {
		st.SubmitTagged(0, 0)
		st.SubmitTagged(0, 1)
		st.SubmitTagged(0, 2)
		before = k.Executed()
	})
	k.Run()
	if want := []int{0, 1, 2, 9, 3}; !slices.Equal(order, want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	// The three pre-drain submissions coalesced onto one wakeup; the
	// mid-drain submission scheduled exactly one more.
	if got := k.Executed() - before; got != 3 {
		t.Errorf("drain used %d kernel events, want 3 (coalesced wakeup, event 9, mid-drain wakeup)", got)
	}
	if st.Served() != 4 {
		t.Errorf("Served() = %d, want 4", st.Served())
	}
}

// TestStationEntryFootprint pins what a pending completion costs: an
// (instant, tag) pair, 16 bytes, beside every posted verb waiting at a
// station.
func TestStationEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 16 {
		t.Errorf("station entry is %d bytes, want <= 16", got)
	}
}
