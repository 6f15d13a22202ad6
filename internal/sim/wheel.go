package sim

import "math/bits"

// The kernel's event queue is a hierarchical timing wheel: four levels of
// 64 slots each, with geometrically coarser granularity per level, backed
// by a small "near" heap for events at or behind the wheel cursor and an
// overflow heap for events beyond the wheel horizon (~68.7 s of virtual
// time). The structure delivers events in exactly the same total order as
// a single binary heap keyed on (at, seq) — DESIGN.md §8 gives the
// argument — while making the common push O(1) instead of O(log n).
//
// Layout. Level l covers times whose quotient q_l(t) = t >> shift(l)
// differs from the cursor's by 1..63, where shift(l) = 12 + 6*l; the slot
// index is q_l(t) & 63. Level 0 buckets are therefore 4096 ns wide, level
// 3 buckets ~1.07 s, and the levels span 262 µs, 16.8 ms, 1.07 s and
// 68.7 s. The base is sized to the time base the simulator runs at:
// every experiment scales rates down by 10 or more, so modelled delays
// are several µs and up and a finer bucket orders nothing the near heap
// does not, while each level an event starts above is one more routing
// on its way down (DESIGN.md §8.1 has the counts). Events at or behind
// the cursor's level-0 bucket go to the near heap, which is the only
// part ordered eagerly. Each level keeps a 64-bit occupancy bitmap so
// the next non-empty slot is one rotate + trailing-zeros away.
//
// Invariants maintained between operations:
//
//   - cur never exceeds the earliest pending event's time, so no event is
//     ever behind the cursor when it is due.
//   - the slot at the cursor's own index is empty at every level: pushes
//     route a quotient difference of zero to a lower level (or the near
//     heap), and advance() drains the cursor slots after every move.
//   - every event in one slot shares one quotient: two quotients in the
//     open window (q_l(cur), q_l(cur)+64) that are congruent mod 64 are
//     equal.
//   - the overflow heap only holds events beyond the top level's horizon
//     of cur: advance() re-files everything a cursor move brings under
//     the horizon before draining slots, so whenever the near heap is
//     non-empty its minimum is the global minimum.
//
// Events are recycled through an intrusive freelist (the same next link
// used by slot chains), so steady-state Schedule/At/Cancel allocate
// nothing; Timer handles carry a generation counter to stay safe across
// recycling.
const (
	wheelLevels    = 4
	wheelSlotBits  = 6
	wheelSlots     = 1 << wheelSlotBits
	wheelSlotMask  = wheelSlots - 1
	wheelBaseShift = 12
)

func wheelShift(level int) uint { return uint(wheelBaseShift + level*wheelSlotBits) }

// slotList is an intrusive singly linked FIFO of events in one wheel slot.
type slotList struct{ head, tail *event }

func (l *slotList) append(ev *event) {
	ev.next = nil
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

type timerWheel struct {
	// cur is the wheel cursor: the reference point slot routing is
	// computed against. It only moves forward, and never past a pending
	// event.
	cur Time
	// near holds events at or behind the cursor's level-0 bucket, ordered
	// as a binary min-heap on (at, seq).
	near []*event
	// levels[l][s] chains events whose level-l quotient is congruent to s.
	levels   [wheelLevels][wheelSlots]slotList
	occupied [wheelLevels]uint64
	// overflow holds events beyond the top level's horizon, as a (at, seq)
	// min-heap.
	overflow []*event
	// size counts queued events, including cancelled ones not yet reaped.
	size int
	// free chains recycled events through their next links.
	free *event
}

// push enqueues an event.
func (w *timerWheel) push(ev *event) {
	w.size++
	w.route(ev)
}

// route files ev into the near heap, a wheel slot, or the overflow heap
// according to its distance from the cursor. It does not touch size.
func (w *timerWheel) route(ev *event) {
	t := uint64(ev.at)
	c := uint64(w.cur)
	if t>>wheelBaseShift <= c>>wheelBaseShift {
		heapPush(&w.near, ev)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := wheelShift(l)
		if t>>shift-c>>shift < wheelSlots {
			idx := (t >> shift) & wheelSlotMask
			w.levels[l][idx].append(ev)
			w.occupied[l] |= 1 << idx
			return
		}
	}
	heapPush(&w.overflow, ev)
}

// min returns the earliest queued event without removing it, or nil when
// the queue is empty.
func (w *timerWheel) min() *event {
	for {
		if len(w.near) > 0 {
			return w.near[0]
		}
		if w.size == 0 {
			return nil
		}
		w.advance()
	}
}

// popMin removes and returns the earliest queued event, or nil.
func (w *timerWheel) popMin() *event {
	ev := w.min()
	if ev == nil {
		return nil
	}
	heapPop(&w.near)
	w.size--
	return ev
}

// advance moves the cursor to the next populated instant — the earliest
// slot start across the levels, or the overflow minimum if it is
// earlier — re-files every overflow event the move brought under the
// wheel horizon, and drains the slots at the cursor's new indices
// downward, so the near heap gains the events due first. Each call
// either fills the near heap or moves events strictly closer to it, so
// min() terminates.
func (w *timerWheel) advance() {
	best := Time(1<<63 - 1)
	bestFound := false
	// High levels first: on a tie the coarser slot must cascade before
	// the finer one fires, since the coarse bucket may hold earlier
	// events anywhere inside its wider span.
	for l := wheelLevels - 1; l >= 0; l-- {
		if w.occupied[l] == 0 {
			continue
		}
		if t := w.nextSlotStart(l); t < best {
			best = t
			bestFound = true
		}
	}
	if len(w.overflow) > 0 && (!bestFound || w.overflow[0].at < best) {
		best = w.overflow[0].at
		bestFound = true
	}
	if !bestFound {
		return
	}
	if best > w.cur {
		w.cur = best
	}
	// Re-file every overflow event that now fits under the wheel
	// horizon. This must happen on every cursor move, not only when the
	// overflow minimum leads the wheel: an overflow event whose time
	// falls inside the span of the slot about to be drained (past the
	// slot's start) would otherwise sit unconsulted in the overflow heap
	// while later events from that slot drain into the near heap and
	// fire ahead of it.
	shift := wheelShift(wheelLevels - 1)
	for len(w.overflow) > 0 &&
		uint64(w.overflow[0].at)>>shift-uint64(w.cur)>>shift < wheelSlots {
		w.route(heapPop(&w.overflow))
	}
	w.drainCursorSlots()
}

// drainCursorSlots empties the slot at the cursor's index on every level,
// top down, re-routing each event; everything due in the cursor's level-0
// bucket ends up in the near heap.
func (w *timerWheel) drainCursorSlots() {
	for l := wheelLevels - 1; l >= 0; l-- {
		idx := (uint64(w.cur) >> wheelShift(l)) & wheelSlotMask
		bit := uint64(1) << idx
		if w.occupied[l]&bit == 0 {
			continue
		}
		w.occupied[l] &^= bit
		ev := w.levels[l][idx].head
		w.levels[l][idx] = slotList{}
		for ev != nil {
			next := ev.next
			ev.next = nil
			w.route(ev)
			ev = next
		}
	}
}

// nextSlotStart returns the start time of the first occupied slot after
// the cursor at level l. occupied[l] must be non-zero.
func (w *timerWheel) nextSlotStart(l int) Time {
	shift := wheelShift(l)
	q := uint64(w.cur) >> shift
	idx := q & wheelSlotMask
	// Rotate so the slot after the cursor's lands at bit 0; the first set
	// bit's position is then its distance minus one.
	rot := bits.RotateLeft64(w.occupied[l], -int(idx+1))
	d := uint64(bits.TrailingZeros64(rot)) + 1
	return Time((q + d) << shift)
}

// alloc returns a recycled event or a fresh one.
func (w *timerWheel) alloc() *event {
	if ev := w.free; ev != nil {
		w.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

// recycle returns a fired or reaped event to the freelist. Bumping the
// generation invalidates every outstanding Timer handle to it.
func (w *timerWheel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.next = w.free
	w.free = ev
}

// event min-heap helpers, keyed on (at, seq); used for both the near and
// the overflow heap. Hand-rolled to avoid container/heap's interface
// dispatch on the hottest kernel path.

func (ev *event) less(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

func heapPush(h *[]*event, ev *event) {
	heap := append(*h, ev)
	*h = heap
	i := len(heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heap[i].less(heap[parent]) {
			break
		}
		heap[i], heap[parent] = heap[parent], heap[i]
		i = parent
	}
}

func heapPop(h *[]*event) *event {
	heap := *h
	n := len(heap)
	top := heap[0]
	heap[0] = heap[n-1]
	heap[n-1] = nil
	heap = heap[:n-1]
	*h = heap
	n--
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && heap[right].less(heap[left]) {
			smallest = right
		}
		if !heap[smallest].less(heap[i]) {
			break
		}
		heap[i], heap[smallest] = heap[smallest], heap[i]
		i = smallest
	}
	return top
}
