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
type Client struct {
	node       *rdma.Node
	store      *Store
	qp         *rdma.QP
	index      *rdma.Region
	data       *rdma.Region
	recordSize int
	capacity   uint64
	mask       uint64

	// Key-location cache, split for fleet scale: primed is a read-only
	// prefix shared with every other client of the store (keys
	// [0, len(primed)), -1 when absent; primedFound counts the hits), and
	// cache is a lazy per-client overlay holding only locations learned by
	// probing.
	primed      []int64
	primedFound int
	cache       map[uint64]int

	nextReqID  uint64
	pendingGet map[uint64]func([]byte, error)

	// Pending one-sided completions, FIFO per I/O kind, with the bound
	// completion methods handed to the fabric.
	dataPending   sim.FIFO[func([]byte, error)]
	probePending  sim.FIFO[probeState]
	writePending  sim.FIFO[func(error)]
	onDataReadFn  func([]byte)
	onProbeFn     func([]byte)
	onWriteDoneFn func()
	// pad is the record a short Update value is zero-padded in; allocated
	// by the first Update that needs it.
	pad []byte

	// oneSidedGets counts one-sided data reads issued (probe reads are
	// counted separately); oneSidedPuts counts one-sided record writes.
	oneSidedGets uint64
	oneSidedPuts uint64
	probeReads   uint64
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
		index:      store.index,
		data:       store.data,
		recordSize: store.opts.RecordSize,
		capacity:   uint64(store.opts.Capacity),
		mask:       store.mask,
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

// Node returns the client's node.
func (c *Client) Node() *rdma.Node { return c.node }

// OneSidedGets returns the number of one-sided data READs issued.
func (c *Client) OneSidedGets() uint64 { return c.oneSidedGets }

// OneSidedPuts returns the number of one-sided record WRITEs issued.
func (c *Client) OneSidedPuts() uint64 { return c.oneSidedPuts }

// ProbeReads returns the number of index probe READs issued (cold-cache
// lookups only).
func (c *Client) ProbeReads() uint64 { return c.probeReads }

// CacheLen returns the number of cached key locations.
func (c *Client) CacheLen() int { return c.primedFound + len(c.cache) }

// lookup resolves a key's cached data offset: the probe-learned overlay
// first (a primed key never probes, so the two never overlap), then the
// shared primed prefix.
func (c *Client) lookup(key uint64) (int, bool) {
	if off, ok := c.cache[key]; ok {
		return off, true
	}
	if key < uint64(len(c.primed)) {
		if loc := c.primed[key]; loc >= 0 {
			return int(loc), true
		}
	}
	return 0, false
}

// learn records a probe-resolved location in the lazy overlay.
func (c *Client) learn(key uint64, off int) {
	if c.cache == nil {
		c.cache = make(map[uint64]int)
	}
	c.cache[key] = off
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
	start := hashKey(key) & c.mask
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
	if depth > c.mask {
		cb(nil, ErrNotFound)
		return nil
	}
	// Clamp the window at the region end; the next probe wraps to 0.
	n := uint64(probeWindow)
	if pos+n > c.capacity {
		n = c.capacity - pos
	}
	off := int(pos) * slotSize
	size := int(n) * slotSize
	err := c.qp.Read(c.index, off, size, c.onProbeFn)
	if err == nil {
		c.probePending.Push(probeState{key: key, pos: pos, depth: depth, n: n, cb: cb})
		c.probeReads++
	}
	return err
}

func (c *Client) onProbe(raw []byte) {
	st := c.probePending.Pop()
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
	next := (st.pos + st.n) & c.mask
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
	start := hashKey(key) & c.mask
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
		if c.pad == nil {
			c.pad = make([]byte, c.recordSize)
		}
		clear(c.pad[copy(c.pad, value):])
		buf = c.pad
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
// path used for the two-sided comparison experiments).
func (c *Client) GetTwoSided(key uint64, cb func(value []byte, err error)) error {
	if cb == nil {
		return fmt.Errorf("kvstore: GetTwoSided requires a callback")
	}
	id := c.nextReqID
	c.nextReqID++
	if c.pendingGet == nil {
		c.pendingGet = make(map[uint64]func([]byte, error))
	}
	c.pendingGet[id] = cb
	err := c.qp.Send(rdma.Message{Kind: msgGet, Body: getRequest{key: key, reqID: id}}, 24, nil)
	if err != nil {
		delete(c.pendingGet, id)
	}
	return err
}

func (c *Client) handleGetResp(_ *rdma.Node, body any) {
	resp, ok := body.(getResponse)
	if !ok {
		return
	}
	cb, ok := c.pendingGet[resp.reqID]
	if !ok {
		return
	}
	delete(c.pendingGet, resp.reqID)
	if !resp.ok {
		cb(nil, ErrNotFound)
		return
	}
	cb(resp.value, nil)
}
