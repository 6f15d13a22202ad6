package sim

// FIFO is a queue in a power-of-two ring: the live values are buf[head],
// buf[head+1], … (indices masked), so a push/pop stream at constant depth
// reuses the same slots and the buffer is the smallest power of two that
// ever held the queue. It is the one queue behind station completion
// tags, Instants, kvstore continuations and the cluster's routed keys.
// The zero value is an empty queue; head and n are 32-bit so the header
// stays at 32 bytes.
type FIFO[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head uint32
	n    uint32
}

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&uint32(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring, moving the live window to its front.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(1, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return int(q.n) }

// Peek returns the i-th oldest queued value (0 is the head) in place; the
// pointer is valid until the next Push or Pop.
func (q *FIFO[T]) Peek(i int) *T {
	if uint32(i) >= q.n {
		panic("sim: FIFO.Peek out of range")
	}
	return &q.buf[(q.head+uint32(i))&uint32(len(q.buf)-1)]
}

// Pop removes and returns the oldest value. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: FIFO.Pop on an empty queue")
	}
	var zero T
	p := &q.buf[q.head]
	v := *p
	*p = zero // a popped callback or buffer must not stay reachable
	q.head = (q.head + 1) & uint32(len(q.buf)-1)
	q.n--
	return v
}

// Instants is a FIFO of instants kept as runs of (instant, count): a
// burst pushed at one instant is one 16-byte run whatever its size, so a
// backlog costs memory per distinct instant, not per value. Pushes are
// expected in nondecreasing order (arrivals, posts), though any order
// stays a correct FIFO. The zero value is an empty queue.
type Instants struct {
	runs FIFO[instantRun]
	n    uint64 // values across all runs
}

type instantRun struct {
	at    Time
	count uint64
}

// Push appends at.
func (q *Instants) Push(at Time) {
	q.n++
	if n := q.runs.Len(); n > 0 {
		if last := q.runs.Peek(n - 1); last.at == at {
			last.count++
			return
		}
	}
	q.runs.Push(instantRun{at: at, count: 1})
}

// Pop removes and returns the oldest instant. The queue must not be
// empty.
func (q *Instants) Pop() Time {
	r := q.runs.Peek(0)
	at := r.at
	if r.count--; r.count == 0 {
		q.runs.Pop()
	}
	q.n--
	return at
}

// Peek returns the oldest instant. The queue must not be empty.
func (q *Instants) Peek() Time { return q.runs.Peek(0).at }

// Len returns the number of queued instants.
func (q *Instants) Len() int { return int(q.n) }
