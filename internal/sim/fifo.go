package sim

// FIFO is a queue backed by a reusable slice. Pop releases the slot it
// empties and compacts lazily, so steady-state traffic stops allocating
// once the buffer has grown to its high-water mark. It is the one queue
// behind station completions, engine callbacks and arrival runs, kvstore
// continuations and the cluster's per-link request queues. The zero value
// is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Peek returns the i-th oldest queued value (0 is the head) in place; the
// pointer is valid until the next Push or Pop.
func (q *FIFO[T]) Peek(i int) *T { return &q.items[q.head+i] }

// Pop removes and returns the oldest value. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // a popped callback or buffer must not stay reachable
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if q.head > 64 && q.head*2 > len(q.items) {
		// More than half the slice is dead prefix: slide the live tail
		// down, so the backing array is bounded by twice the peak length.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}
