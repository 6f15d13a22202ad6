package rdma

// qpCache models a NIC's on-chip QP-context (connection) cache as an LRU
// over queue-pair ids: touching a cached context is free, touching an
// uncached one evicts the least recently used entry and costs the
// configured miss penalty (the context fetch from host memory). This is
// the RNIC scalability effect RDMAvisor and Storm measure — one-sided
// throughput collapses once the active connection count outgrows the
// cache — which the calibrated small-testbed model otherwise lacks.
//
// The cache is struct-of-arrays: the recency list is an intrusive doubly
// linked list over slot arrays, and the way from a QP to its slot is a
// word on the QP itself (QP.ctxSlot, one per end), so a touch looks
// nothing up: the verb path holds the *QP already. Touches are O(1) and
// allocation-free in steady state. Every touch happens on the owning
// node's kernel and writes only that node's end of the ctxSlot words —
// the touched QP's and, on eviction, the victim's, which is cached here
// because this node is that same end of it — so per-node caches need no
// locks even when shards run concurrently and the hit/miss sequence is
// exactly as deterministic as the event sequence.
type qpCache struct {
	cap     int
	penalty float64
	used    int

	qps  []*QP   // slot -> cached QP
	ends []uint8 // slot -> which of that QP's ctxSlot words is this cache's
	prev []int32 // recency list, -1 terminated
	next []int32
	head int32 // most recently used
	tail int32 // least recently used
}

// init sizes the cache; capacity <= 0 disables it (every touch hits).
// Slot storage grows lazily with the node's actual working set rather
// than preallocating the full capacity: a fleet client's NIC only ever
// holds its own handful of contexts, and the capacity is shared model
// configuration, so eager sizing would charge every one of 10^5 nodes
// for the server's working set.
func (c *qpCache) init(capacity int, penalty float64) {
	c.cap = capacity
	c.penalty = penalty
	if capacity <= 0 {
		return
	}
	c.head, c.tail = -1, -1
}

// touch marks the context of qp, whose end-th end is this cache's node,
// used now and reports whether it was already cached; on a miss that
// evicted another QP's context it also returns that QP.
func (c *qpCache) touch(qp *QP, end uint8) (hit bool, evicted *QP) {
	if s := qp.ctxSlot[end] - 1; s >= 0 {
		if s != c.head {
			c.unlink(s)
			c.pushFront(s)
		}
		return true, nil
	}
	var s int32
	if c.used < c.cap {
		s = int32(c.used)
		c.used++
		if int(s) == len(c.qps) {
			// Grows only while the working set grows; steady state —
			// whether all-resident or thrashing through evictions —
			// stays allocation-free.
			c.qps = append(c.qps, nil)
			c.ends = append(c.ends, 0)
			c.prev = append(c.prev, 0)
			c.next = append(c.next, 0)
		}
	} else {
		s = c.tail
		c.unlink(s)
		evicted = c.qps[s]
		evicted.ctxSlot[c.ends[s]] = 0
	}
	c.qps[s], c.ends[s] = qp, end
	qp.ctxSlot[end] = s + 1
	c.pushFront(s)
	return false, evicted
}

// holds reports whether slot and QP agree that the cache holds qp's
// end-th end: the QP's word names a slot in use and that slot names the
// QP and the end back.
func (c *qpCache) holds(qp *QP, end uint8) bool {
	s := int(qp.ctxSlot[end]) - 1
	return s >= 0 && s < c.used && c.qps[s] == qp && c.ends[s] == end
}

func (c *qpCache) unlink(s int32) {
	p, n := c.prev[s], c.next[s]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

func (c *qpCache) pushFront(s int32) {
	c.prev[s] = -1
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}
