package kvstore

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// ErrNotFound is returned when a key has no record.
var ErrNotFound = errors.New("kvstore: key not found")

// probeWindow is the number of index slots fetched per one-sided probe
// read while resolving an uncached key (128 B per probe).
const probeWindow = 8

// Client is the client-side accessor: one-sided GETs against the store's
// registered regions plus a two-sided GET RPC. It maintains a location
// cache so a warm GET is exactly one one-sided 4 KB READ.
//
// One-sided completions are not captured in per-operation closures: reads
// of one kind on a QP complete in issue order (every pipeline stage is
// FIFO within a class), so the client keeps a FIFO of pending callbacks
// per I/O kind and hands the fabric one method bound at Attach. A warm
// GET or Update therefore allocates nothing on the client side.
//
// What only an uncached key, a short Update value or a two-sided GET
// needs lives in a record allocated by the first of them (see rare): a
// primed client that only reads and writes whole records never makes one.
type Client struct {
	node       *rdma.Node
	store      *Store
	qp         *rdma.QP
	data       *rdma.Region
	recordSize int

	// Key-location cache, split for fleet scale: primed is a read-only
	// prefix shared with every other client of the store (the slot of each
	// key in [0, len(primed)), -1 when absent; primedFound counts the
	// hits), and rare.cache is a lazy per-client overlay holding only data
	// offsets learned by probing.
	primed      []int32
	primedFound int

	// Pending one-sided completions, FIFO per I/O kind, with the bound
	// completion methods handed to the fabric.
	dataPending   sim.FIFO[func([]byte, error)]
	writePending  sim.FIFO[func(error)]
	onDataReadFn  func([]byte)
	onProbeFn     func([]byte)
	onWriteDoneFn func()

	// oneSidedGets counts one-sided data reads issued (probe reads are
	// counted separately); oneSidedPuts counts one-sided record writes.
	oneSidedGets uint64
	oneSidedPuts uint64
	probeReads   uint64

	rare *rareState
}

// rareState is a client's state for the paths a primed reader never
// takes: probing the index, padding a short Update value, and two-sided
// GETs.
type rareState struct {
	// cache holds the data offsets of keys resolved by probing.
	cache        map[uint64]int
	probePending sim.FIFO[probeState]
	// pad is the record a short Update value is zero-padded in.
	pad []byte
	// Two-sided GETs awaiting their reply, by request id: pendingGet
	// holds the callbacks of ids [nextReqID-Len, nextReqID), nil once
	// answered.
	nextReqID  uint64
	pendingGet sim.FIFO[func([]byte, error)]
}

// more returns the client's rare-path state, allocating it on first use.
func (c *Client) more() *rareState {
	if c.rare == nil {
		c.rare = &rareState{}
	}
	return c.rare
}

// probeState is the continuation of an in-flight index probe read.
type probeState struct {
	key   uint64
	pos   uint64
	depth uint64
	n     uint64
	cb    func([]byte, error)
}

// Attach connects node to store over the fabric. disp is the client-side
// dispatcher used to receive two-sided GET responses; it may be nil if
// only the one-sided path will be used.
func Attach(node *rdma.Node, disp *rdma.Dispatcher, store *Store) (*Client, error) {
	if node == nil || store == nil {
		return nil, fmt.Errorf("kvstore: Attach requires a node and a store")
	}
	qp, err := node.Fabric().Connect(node, store.node)
	if err != nil {
		return nil, fmt.Errorf("kvstore: connecting %s to store: %w", node.Name(), err)
	}
	c := &Client{
		node:       node,
		store:      store,
		qp:         qp,
		data:       store.data,
		recordSize: store.opts.RecordSize,
	}
	c.onDataReadFn = c.onDataRead
	c.onProbeFn = c.onProbe
	c.onWriteDoneFn = c.onWriteDone
	if disp != nil {
		// Scoped to this store's node: a tenant of several data nodes
		// attaches one client per store to the same dispatcher.
		if err := disp.HandleFrom(msgGetResp, store.node, c.handleGetResp); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// OneSidedGets returns the number of one-sided data READs issued.
func (c *Client) OneSidedGets() uint64 { return c.oneSidedGets }

// OneSidedPuts returns the number of one-sided record WRITEs issued.
func (c *Client) OneSidedPuts() uint64 { return c.oneSidedPuts }

// ProbeReads returns the number of index probe READs issued (cold-cache
// lookups only).
func (c *Client) ProbeReads() uint64 { return c.probeReads }

// lookup resolves a key's cached data offset: the probe-learned overlay
// first (a primed key never probes, so the two never overlap), then the
// shared primed prefix.
func (c *Client) lookup(key uint64) (int, bool) {
	if c.rare != nil {
		if off, ok := c.rare.cache[key]; ok {
			return off, true
		}
	}
	if key < uint64(len(c.primed)) {
		if slot := c.primed[key]; slot >= 0 {
			return int(slot) * c.recordSize, true
		}
	}
	return 0, false
}

// learn records a probe-resolved location in the lazy overlay.
func (c *Client) learn(key uint64, off int) {
	r := c.more()
	if r.cache == nil {
		r.cache = make(map[uint64]int)
	}
	r.cache[key] = off
}

// PrimeCache fills the location cache for keys [0, n) directly from the
// store's index, modelling a client in steady state (the paper's
// measurement phase starts after 30 s of warm-up, by which point every hot
// key's location is cached and a GET is a single one-sided READ).
// The slab itself lives on the Store and is shared by all clients, and so
// does the count of keys it locates: priming a client costs nothing per
// record.
func (c *Client) PrimeCache(n int) {
	if n < 0 {
		n = 0
	}
	c.primed, c.primedFound = c.store.primeShared(n)
}

// Get performs a one-sided GET: a cached key costs exactly one silent
// 4 KB READ; an uncached key first probes the index with small one-sided
// reads. The value passed to cb is valid only until cb returns (it is the
// READ's view or pooled buffer, see rdma.QP.Read); copy it to keep it.
func (c *Client) Get(key uint64, cb func(value []byte, err error)) error {
	if cb == nil {
		return fmt.Errorf("kvstore: Get requires a callback")
	}
	if off, ok := c.lookup(key); ok {
		return c.readData(off, cb)
	}
	start := hashKey(key) & c.store.mask
	return c.probe(key, start, 0, cb)
}

func (c *Client) readData(off int, cb func([]byte, error)) error {
	err := c.qp.Read(c.data, off, c.recordSize, c.onDataReadFn)
	if err == nil {
		c.dataPending.Push(cb)
		c.oneSidedGets++
	}
	return err
}

// onDataRead completes the oldest pending data READ. Data reads on the
// QP complete in issue order, so the head of the FIFO is the matching
// callback. A READ never fails after issue, so push/pop counts balance.
func (c *Client) onDataRead(data []byte) {
	cb := c.dataPending.Pop()
	cb(data, nil)
}

// probe reads a window of index slots starting at slot position pos
// (probed slots so far: depth) and either resolves the key, fails with
// ErrNotFound at the first unoccupied slot, or continues probing. The
// continuation state is queued FIFO: probe reads are all control-class
// operations on one QP, so they too complete in issue order even when
// several keys resolve concurrently.
func (c *Client) probe(key uint64, pos, depth uint64, cb func([]byte, error)) error {
	if depth > c.store.mask {
		cb(nil, ErrNotFound)
		return nil
	}
	// Clamp the window at the region end; the next probe wraps to 0.
	n := uint64(probeWindow)
	if capacity := uint64(c.store.opts.Capacity); pos+n > capacity {
		n = capacity - pos
	}
	off := int(pos) * slotSize
	size := int(n) * slotSize
	err := c.qp.Read(c.store.index, off, size, c.onProbeFn)
	if err == nil {
		c.more().probePending.Push(probeState{key: key, pos: pos, depth: depth, n: n, cb: cb})
		c.probeReads++
	}
	return err
}

func (c *Client) onProbe(raw []byte) {
	st := c.rare.probePending.Pop()
	for i := uint64(0); i < st.n; i++ {
		k := leUint64(raw[i*slotSize:])
		state := leUint64(raw[i*slotSize+8:])
		if state&occupiedBit == 0 {
			st.cb(nil, ErrNotFound)
			return
		}
		if k == st.key {
			dataOff := int(state &^ occupiedBit)
			c.learn(st.key, dataOff)
			if err := c.readData(dataOff, st.cb); err != nil {
				st.cb(nil, err)
			}
			return
		}
	}
	next := (st.pos + st.n) & c.store.mask
	if err := c.probe(st.key, next, st.depth+st.n, st.cb); err != nil {
		st.cb(nil, err)
	}
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Update overwrites an existing record with a one-sided RDMA WRITE of the
// full record (update-in-place, as one-sided KV designs do for fixed-size
// values; new keys are placed server-side by Store.Put because the index
// must be mutated on the server). The key's location must be resolvable:
// cached, or discovered with index probes first. value is captured when
// Update is called, so the caller may reuse it at once.
func (c *Client) Update(key uint64, value []byte, cb func(error)) error {
	if cb == nil {
		return fmt.Errorf("kvstore: Update requires a callback")
	}
	if len(value) > c.recordSize {
		return fmt.Errorf("kvstore: value of %d bytes exceeds record size %d", len(value), c.recordSize)
	}
	if off, ok := c.lookup(key); ok {
		return c.writeData(off, value, cb)
	}
	// Resolve the location with the usual probe path, then write. The
	// write is posted after the probes complete, so it writes a copy.
	value = bytes.Clone(value)
	start := hashKey(key) & c.store.mask
	return c.probe(key, start, 0, func(_ []byte, err error) {
		// The probe path issues a data READ on success; for an update we
		// accept that extra read on the cold path (a real client caches
		// locations long before steady state) and then write.
		if err != nil {
			cb(err)
			return
		}
		off, _ := c.lookup(key)
		if err := c.writeData(off, value, cb); err != nil {
			cb(err)
		}
	})
}

func (c *Client) writeData(off int, value []byte, cb func(error)) error {
	buf := value
	if len(buf) < c.recordSize {
		// QP.Write captures the payload before it returns, so one buffer
		// pads every short value.
		r := c.more()
		if r.pad == nil {
			r.pad = make([]byte, c.recordSize)
		}
		clear(r.pad[copy(r.pad, value):])
		buf = r.pad
	}
	err := c.qp.Write(c.data, off, buf, c.onWriteDoneFn)
	if err == nil {
		c.writePending.Push(cb)
		c.oneSidedPuts++
	}
	return err
}

// onWriteDone completes the oldest pending record WRITE (record writes
// all carry the same size, hence the same class, and complete in issue
// order on the QP).
func (c *Client) onWriteDone() {
	cb := c.writePending.Pop()
	cb(nil)
}

// GetTwoSided performs a GET through the server CPU (the conventional RPC
// path used for the two-sided comparison experiments). The reply locates
// the record, which the client reads at delivery as a one-sided READ
// reads it at completion; the value is valid only until cb returns.
func (c *Client) GetTwoSided(key uint64, cb func(value []byte, err error)) error {
	if cb == nil {
		return fmt.Errorf("kvstore: GetTwoSided requires a callback")
	}
	r := c.more()
	err := c.qp.Send(rdma.Message{Kind: msgGet, A: int64(key), B: int64(r.nextReqID)}, 24, nil)
	if err == nil {
		r.nextReqID++
		r.pendingGet.Push(cb)
	}
	return err
}

// handleGetResp completes the GET whose id the reply carries. Replies of
// one size return in request order, but a miss's short reply takes the
// NIC's control path and can pass a hit's, so a reply clears its own
// slot and the window slides past the answered ones at its head. A reply
// for no pending id is dropped.
func (c *Client) handleGetResp(_ *rdma.Node, resp rdma.Message) {
	if c.rare == nil {
		return
	}
	q := &c.rare.pendingGet
	i := uint64(resp.A) - (c.rare.nextReqID - uint64(q.Len()))
	if i >= uint64(q.Len()) {
		return
	}
	slot := q.Peek(int(i))
	cb := *slot
	if cb == nil {
		return
	}
	*slot = nil
	for q.Len() > 0 && *q.Peek(0) == nil {
		q.Pop()
	}
	if resp.B < 0 {
		cb(nil, ErrNotFound)
		return
	}
	cb(c.data.Window(int(resp.B), c.recordSize))
}
