package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// ringVsSlice drives the ring and a plain slice through the same
// operations and compares them after every one.
type ringVsSlice struct {
	t    testing.TB
	q    FIFO[*int]
	ref  []*int
	next int
	// Coverage the callers assert on: grows that found the live window
	// wrapped, and Peeks that indexed past the buffer's end (the seam).
	wrappedGrows, seamPeeks int
}

func (m *ringVsSlice) push() {
	if n := len(m.q.buf); n > 0 && int(m.q.n) == n && m.q.head != 0 {
		m.wrappedGrows++
	}
	v := m.next
	m.next++
	m.q.Push(&v)
	m.ref = append(m.ref, &v)
}

func (m *ringVsSlice) pop() {
	if got := m.q.Pop(); got != m.ref[0] {
		m.t.Fatalf("Pop = %d, want %d", *got, *m.ref[0])
	}
	m.ref = m.ref[1:]
}

// check compares Len and every Peek against the slice, and requires that
// no slot outside the live window still holds a pointer: a popped callback
// must not stay reachable through the buffer.
func (m *ringVsSlice) check() {
	m.t.Helper()
	q := &m.q
	if q.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, want %d", q.Len(), len(m.ref))
	}
	if c := len(q.buf); c&(c-1) != 0 || int(q.n) > c || (c > 0 && int(q.head) >= c) {
		m.t.Fatalf("ring out of shape: cap %d head %d n %d", c, q.head, q.n)
	}
	for i, want := range m.ref {
		if int(q.head)+i >= len(q.buf) {
			m.seamPeeks++
		}
		if got := *q.Peek(i); got != want {
			m.t.Fatalf("Peek(%d) = %d, want %d", i, *got, *want)
		}
	}
	for i, p := range q.buf {
		live := (uint32(i)-q.head)&uint32(len(q.buf)-1) < q.n
		if !live && p != nil {
			m.t.Fatalf("slot %d outside the live window (head %d, n %d, cap %d) still holds %d", i, q.head, q.n, len(q.buf), *p)
		}
	}
}

// run executes an op string: each byte's low two bits pick push (0, 1) or
// pop (2, 3), the upper six a repeat count of 1..64; a pop on an empty
// queue is skipped. Every single operation is checked.
func (m *ringVsSlice) run(ops []byte) {
	for _, b := range ops {
		for k := int(b>>2) + 1; k > 0; k-- {
			if b&2 == 0 {
				m.push()
			} else if len(m.ref) > 0 {
				m.pop()
			}
			m.check()
		}
	}
}

// TestFIFO runs fixed push/pop mixes through ring and slice. The mixes and
// their names come from the append-and-compact queue the ring replaced,
// where they sat on either side of its compaction rules; their sizes are
// kept because 64, 128 and the half-way point are where a ring fills
// exactly, doubles and wraps.
func TestFIFO(t *testing.T) {
	type step struct{ push, pop int }
	cases := []struct {
		name  string
		steps []step
	}{
		{"drain resets", []step{{5, 5}}},
		{"reuse after reset", []step{{5, 5}, {3, 1}}},
		{"compacts mid-stream and keeps order", []step{{40, 30}, {40, 30}, {40, 30}, {40, 30}}},
		{"below the 64 floor never compacts", []step{{100, 64}}},
		{"past the floor but not half dead", []step{{200, 65}}},
		{"exactly half dead stays", []step{{200, 100}}},
		{"more than half dead compacts", []step{{200, 101}}},
		{"compacts at the floor once past half", []step{{128, 65}}},
		{"steady state stays bounded", []step{{70, 0}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &ringVsSlice{t: t}
			peak := 0
			for _, st := range tc.steps {
				for i := 0; i < st.push; i++ {
					m.push()
					m.check()
				}
				peak = max(peak, len(m.ref))
				for i := 0; i < st.pop; i++ {
					m.pop()
					m.check()
				}
			}
			if c := len(m.q.buf); c >= 2*peak {
				t.Errorf("ring of %d for a peak of %d entries", c, peak)
			}
		})
	}
}

// TestFIFOMatchesSlice holds the ring to a plain slice over random
// push/pop/peek programs whose bias drifts, so the queue grows while its
// window is wrapped, drains to empty and refills, and is peeked across the
// seam — all of which the test requires to have happened.
func TestFIFOMatchesSlice(t *testing.T) {
	m := &ringVsSlice{t: t}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m.q, m.ref = FIFO[*int]{}, nil
		ops := make([]byte, 60)
		for i := range ops {
			count := byte(rng.Intn(12))
			pushBias := 35 + 30*(i/20%2) // percent; alternates fill and drain phases
			if rng.Intn(100) < pushBias {
				ops[i] = count << 2
			} else {
				ops[i] = count<<2 | 2
			}
		}
		m.run(ops)
	}
	if m.wrappedGrows == 0 || m.seamPeeks == 0 {
		t.Errorf("programs never grew a wrapped ring (%d) or peeked across the seam (%d)", m.wrappedGrows, m.seamPeeks)
	}
}

// TestFIFOGrowsWrappedAtEveryCapacity fills a ring of every capacity
// 1…256 with its head at every offset, then pushes once more: the grow
// must re-linearise a window that wraps at each possible seam.
func TestFIFOGrowsWrappedAtEveryCapacity(t *testing.T) {
	for c := 1; c <= 256; c *= 2 {
		for h := 0; h < c; h++ {
			m := &ringVsSlice{t: t}
			for i := 0; i < c; i++ {
				m.push()
			}
			for i := 0; i < h; i++ { // rotate: head = h, still full
				m.pop()
				m.push()
			}
			if len(m.q.buf) != c || int(m.q.head) != h || m.q.Len() != c {
				t.Fatalf("cap %d head %d: got cap %d head %d len %d before the grow", c, h, len(m.q.buf), m.q.head, m.q.Len())
			}
			m.check()
			m.push()
			if len(m.q.buf) != 2*c || m.q.head != 0 {
				t.Fatalf("cap %d head %d: grew to cap %d head %d", c, h, len(m.q.buf), m.q.head)
			}
			m.check()
			for len(m.ref) > 0 {
				m.pop()
			}
			m.check()
		}
	}
}

// FuzzFIFO: an op string (see ringVsSlice.run) through ring and slice.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2})                             // push, pop: drained
	f.Add([]byte{3 << 2, 2, 0, 0})                  // 4 in, 1 out, 2 in: the second grows with head 1
	f.Add([]byte{63 << 2, 61<<2 | 2, 63 << 2, 255}) // 64 in, 62 out, 64 in (wraps, grows), all out
	f.Add([]byte{7 << 2, 7<<2 | 2, 7 << 2, 7 << 2, 3<<2 | 2, 15 << 2})
	f.Add([]byte{2, 3, 2, 255}) // pops on empty
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		(&ringVsSlice{t: t}).run(ops)
	})
}

// TestFIFOFootprint: every station, engine, kv client and link embeds
// several of these, so the header is part of what a tenant costs.
func TestFIFOFootprint(t *testing.T) {
	if size := unsafe.Sizeof(FIFO[func()]{}); size > 32 {
		t.Errorf("FIFO header is %d bytes, want <= 32", size)
	}
}

// TestFIFOSteadyStateNoAlloc: a push/pop stream at constant depth
// allocates nothing and stays in the smallest power of two that holds it.
func TestFIFOSteadyStateNoAlloc(t *testing.T) {
	var q FIFO[func()]
	fn := func() {}
	for i := 0; i < 62; i++ {
		q.Push(fn)
	}
	if avg := testing.AllocsPerRun(1000, func() { q.Pop(); q.Push(fn) }); avg != 0 {
		t.Errorf("steady-state push/pop allocates %.1f objects", avg)
	}
	if len(q.buf) != 64 {
		t.Errorf("62 live entries sit in a ring of %d, want 64", len(q.buf))
	}
}
