package rdma

// qpCache models a NIC's on-chip QP-context (connection) cache as an LRU
// over queue-pair ids: touching a cached context is free, touching an
// uncached one evicts the least recently used entry and costs the
// configured miss penalty (the context fetch from host memory). This is
// the RNIC scalability effect RDMAvisor and Storm measure — one-sided
// throughput collapses once the active connection count outgrows the
// cache — which the calibrated small-testbed model otherwise lacks.
//
// The cache is one array of 16-byte slot records, each a cached QP and
// its links in the recency list (an intrusive doubly linked list over the
// slot indices), so a touch reads one cache line per slot it visits. The
// way from a QP to its slot is a word on the QP itself (QP.ctxSlot, one
// per end), so a touch looks nothing up: the verb path holds the *QP
// already. Which of the QP's words is this cache's follows from the node
// (Node.ctxEnd): a node is one end of a QP, never both. Touches are O(1) and
// allocation-free in steady state. Every touch happens on the owning
// node's kernel and writes only that node's end of the ctxSlot words —
// the touched QP's and, on eviction, the victim's, which is cached here
// because this node is that same end of it — so per-node caches are
// single-writer and the hit/miss sequence is exactly as deterministic
// as the event sequence.
type qpCache struct {
	cap     int
	penalty float64
	used    int

	slots []qpSlot
	head  int32 // most recently used
	tail  int32 // least recently used
}

// qpSlot is one cached context: the QP and its neighbours in the recency
// list, -1 terminated.
type qpSlot struct {
	qp         *QP
	prev, next int32
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

// touch marks the context of qp at node n, the cache's node, used now
// and reports whether it was already cached; on a miss that evicted
// another QP's context it also returns that QP.
func (c *qpCache) touch(n *Node, qp *QP) (hit bool, evicted *QP) {
	end := n.ctxEnd(qp)
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
		if int(s) == len(c.slots) {
			// Grows only while the working set grows; steady state —
			// whether all-resident or thrashing through evictions —
			// stays allocation-free.
			c.slots = append(c.slots, qpSlot{})
		}
	} else {
		s = c.tail
		c.unlink(s)
		evicted = c.slots[s].qp
		evicted.ctxSlot[n.ctxEnd(evicted)] = 0
	}
	c.slots[s].qp = qp
	qp.ctxSlot[end] = s + 1
	c.pushFront(s)
	return false, evicted
}

// holds reports whether slot and QP agree that the cache of node n holds
// qp: the QP's word for n's end names a slot in use and that slot names
// the QP back.
func (c *qpCache) holds(n *Node, qp *QP) bool {
	s := int(qp.ctxSlot[n.ctxEnd(qp)]) - 1
	return s >= 0 && s < c.used && c.slots[s].qp == qp
}

func (c *qpCache) unlink(s int32) {
	p, n := c.slots[s].prev, c.slots[s].next
	if p >= 0 {
		c.slots[p].next = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.slots[n].prev = p
	} else {
		c.tail = p
	}
}

func (c *qpCache) pushFront(s int32) {
	c.slots[s].prev = -1
	c.slots[s].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}
