package rdma

import (
	"math/rand"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// refQPCache is the QP-context LRU as it was before the slot moved onto
// the QP: a map from QP id to slot beside the same recency list. It is
// kept verbatim as the reference model for TestQPCacheMatchesReferenceLRU.
type refQPCache struct {
	cap     int
	penalty float64
	used    int

	slot map[int]int32 // qp id -> slot
	ids  []int         // slot -> qp id
	prev []int32       // recency list, -1 terminated
	next []int32
	head int32 // most recently used
	tail int32 // least recently used
}

func (c *refQPCache) init(capacity int, penalty float64) {
	c.cap = capacity
	c.penalty = penalty
	if capacity <= 0 {
		return
	}
	c.slot = make(map[int]int32)
	c.head, c.tail = -1, -1
}

func (c *refQPCache) touch(id int) bool {
	if s, ok := c.slot[id]; ok {
		if s != c.head {
			c.unlink(s)
			c.pushFront(s)
		}
		return true
	}
	var s int32
	if c.used < c.cap {
		s = int32(c.used)
		c.used++
		if int(s) == len(c.ids) {
			c.ids = append(c.ids, 0)
			c.prev = append(c.prev, 0)
			c.next = append(c.next, 0)
		}
	} else {
		s = c.tail
		c.unlink(s)
		delete(c.slot, c.ids[s])
	}
	c.ids[s] = id
	c.slot[id] = s
	c.pushFront(s)
	return false
}

func (c *refQPCache) unlink(s int32) {
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

func (c *refQPCache) pushFront(s int32) {
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

// TestQPCacheMatchesReferenceLRU drives every node's cache through
// seeded touch sequences and holds it against the map-based LRU step by
// step: the same hit or miss, the same occupancy. The topology puts each
// kind of QP in one cache together — the server is the target of the
// client QPs, the initiator of the QPs back, and both ends of its
// loopback — and a client QP's two ends live in two caches at once, so
// an eviction at one end must leave the other end's word alone. After
// every step the slots and the words on the QPs must describe the same
// set: each cached slot's QP points back at it, and no QP holds a word
// for a cache that does not hold the QP.
func TestQPCacheMatchesReferenceLRU(t *testing.T) {
	const (
		seeds = 320
		steps = 400
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Capacities 1..8 thrash; every ninth seed the cache outgrows the
		// working set and nothing is ever evicted.
		capacity := int(seed%9) + 1
		if capacity == 9 {
			capacity = 64
		}
		cfg := NewDefaultConfig()
		cfg.QPCacheSize = capacity
		cfg.QPCacheMissPenalty = 1
		f, err := NewFabric(sim.New(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		server, err := f.AddServer("dn")
		if err != nil {
			t.Fatal(err)
		}
		nodes := []*Node{server}
		for _, name := range []string{"c1", "c2"} {
			c, err := f.AddClient(name)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, c)
		}
		// Every ordered pair, loopbacks included, twice over: each node is an
		// end of ten QPs, a working set no capacity of 1..8 holds.
		var qps []*QP
		for rep := 0; rep < 2; rep++ {
			for _, from := range nodes {
				for _, to := range nodes {
					qp, err := f.Connect(from, to)
					if err != nil {
						t.Fatal(err)
					}
					qps = append(qps, qp)
				}
			}
		}
		refs := make(map[*Node]*refQPCache, len(nodes))
		for _, n := range nodes {
			refs[n] = &refQPCache{}
			refs[n].init(capacity, 1)
		}

		for step := 0; step < steps; step++ {
			qp := qps[rng.Intn(len(qps))]
			n := qp.initiator
			if rng.Intn(2) == 0 {
				n = qp.target
			}
			ref := refs[n]
			before := n.prof.QPCacheHits
			n.qpPenalty(qp)
			hit := n.prof.QPCacheHits != before
			if want := ref.touch(qp.id); hit != want {
				t.Fatalf("seed %d (capacity %d) step %d: node %s qp %d hit=%v, reference LRU %v",
					seed, capacity, step, n.name, qp.id, hit, want)
			}
			if n.qpCache.used != ref.used {
				t.Fatalf("seed %d step %d: node %s holds %d contexts, reference LRU %d",
					seed, step, n.name, n.qpCache.used, ref.used)
			}
			checkQPCacheLinks(t, nodes, qps)
			if t.Failed() {
				t.Fatalf("seed %d (capacity %d) step %d: after node %s touched qp %d",
					seed, capacity, step, n.name, qp.id)
			}
		}
	}
}

// checkQPCacheLinks holds the caches' slot arrays and the QPs' ctxSlot
// words against each other, in both directions.
func checkQPCacheLinks(t *testing.T, nodes []*Node, qps []*QP) {
	t.Helper()
	cached := 0
	for _, n := range nodes {
		c := &n.qpCache
		for s := 0; s < c.used; s++ {
			qp, end := c.qps[s], c.ends[s]
			if end != n.ctxEnd(qp) {
				t.Errorf("node %s slot %d: holds end %d of qp %d, the node is end %d", n.name, s, end, qp.id, n.ctxEnd(qp))
			}
			if got := qp.ctxSlot[end]; got != int32(s)+1 {
				t.Errorf("node %s slot %d: qp %d end %d points at word %d, want %d", n.name, s, qp.id, end, got, s+1)
			}
			cached++
		}
	}
	// Every word set is a cached end, counted above exactly once: so no
	// uncached QP holds a slot.
	words := 0
	for _, qp := range qps {
		for end, w := range qp.ctxSlot {
			if w == 0 {
				continue
			}
			words++
			n := qp.initiator
			if end == 1 {
				n = qp.target
			}
			if !n.qpCache.holds(qp, uint8(end)) {
				t.Errorf("qp %d end %d holds word %d, node %s's cache does not hold it", qp.id, end, w, n.name)
			}
		}
	}
	if words != cached {
		t.Errorf("%d slot words set on the QPs, %d slots in use in the caches", words, cached)
	}
}
