package sim

import "testing"

// TestFIFO drives the one pooled ring through scripted push/pop mixes and
// checks, after every step, order against a reference slice, Len and Peek,
// and that no slot outside the live window still holds a value (a popped
// callback must not stay reachable through the backing array). The cases
// sit on both sides of each compaction rule: drained-to-empty resets, the
// head > 64 floor, and the more-than-half-dead threshold.
func TestFIFO(t *testing.T) {
	type step struct{ push, pop int }
	cases := []struct {
		name  string
		steps []step
		// wantHead is the head index after the last step: it shows whether
		// and when a pop compacted or reset.
		wantHead int
	}{
		{"drain resets", []step{{5, 5}}, 0},
		{"reuse after reset", []step{{5, 5}, {3, 1}}, 1},
		{"compacts mid-stream and keeps order", []step{{40, 30}, {40, 30}, {40, 30}, {40, 30}}, 55},
		{"below the 64 floor never compacts", []step{{100, 64}}, 64},
		{"past the floor but not half dead", []step{{200, 65}}, 65},
		{"exactly half dead stays", []step{{200, 100}}, 100},
		{"more than half dead compacts", []step{{200, 101}}, 0},
		{"compacts at the floor once past half", []step{{128, 65}}, 0},
		{"steady state stays bounded", []step{{70, 0}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q FIFO[*int]
			var ref []*int
			next := 0
			check := func() {
				t.Helper()
				if q.Len() != len(ref) {
					t.Fatalf("Len = %d, want %d", q.Len(), len(ref))
				}
				for i, want := range ref {
					if got := *q.Peek(i); got != want {
						t.Fatalf("Peek(%d) = %d, want %d", i, *got, *want)
					}
				}
				all := q.items[:cap(q.items)]
				for i, p := range all {
					live := i >= q.head && i < len(q.items)
					if !live && p != nil {
						t.Fatalf("slot %d outside the live window [%d,%d) still holds %d", i, q.head, len(q.items), *p)
					}
				}
			}
			for _, st := range tc.steps {
				for i := 0; i < st.push; i++ {
					v := next
					next++
					q.Push(&v)
					ref = append(ref, &v)
					check()
				}
				for i := 0; i < st.pop; i++ {
					if got := q.Pop(); got != ref[0] {
						t.Fatalf("Pop = %d, want %d", *got, *ref[0])
					}
					ref = ref[1:]
					check()
				}
			}
			if q.head != tc.wantHead {
				t.Errorf("head = %d, want %d", q.head, tc.wantHead)
			}
		})
	}
}

// TestFIFOSteadyStateNoAlloc: once the buffer has reached its high-water
// mark, a push/pop stream at constant depth allocates nothing.
func TestFIFOSteadyStateNoAlloc(t *testing.T) {
	var q FIFO[func()]
	fn := func() {}
	for i := 0; i < 300; i++ {
		q.Push(fn)
	}
	for i := 0; i < 1000; i++ { // settle the capacity
		q.Pop()
		q.Push(fn)
	}
	if avg := testing.AllocsPerRun(1000, func() { q.Pop(); q.Push(fn) }); avg != 0 {
		t.Errorf("steady-state push/pop allocates %.1f objects", avg)
	}
}
