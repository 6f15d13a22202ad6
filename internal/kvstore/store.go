// Package kvstore implements the memory-resident key-value store the
// paper's data node serves (Section II: "The server (data node) implements
// a key-value store using a protocol like Telepathy with one-sided I/Os").
//
// Layout on the data node:
//
//   - an index region of 16-byte slots (8-byte key, 8-byte state word with
//     an occupied bit and the record's data offset), open addressing with
//     linear probing;
//   - a data region of fixed-size records (4 KB by default, the size used
//     throughout the paper's evaluation), record s belonging to index slot
//     s. The index is a wire format clients probe and is always in memory;
//     the data region is paged (rdma.RegisterPagedRegion), one page per
//     record: a record whose value is its key in the first 8 bytes and
//     zeros after — what every experiment loads — is served from the key
//     in its index slot and holds no memory until something else is
//     written over it.
//
// Clients locate a record with one-sided reads of index slots, cache the
// key -> offset mapping (a location cache in the style of FaRM/Telepathy),
// and from then on a GET is exactly one silent one-sided 4 KB READ — the
// access pattern whose QoS Haechi manages. A two-sided GET RPC through
// the server CPU is provided for the comparison experiments; records are
// loaded server-side and updated with one-sided WRITEs.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/haechi-qos/haechi/internal/rdma"
)

const (
	// slotSize is the byte size of one index slot.
	slotSize = 16
	// occupiedBit marks a slot as holding a record.
	occupiedBit = uint64(1) << 63

	// IndexRegionName and DataRegionName are the registered-region names
	// clients attach to.
	IndexRegionName = "kv/index"
	DataRegionName  = "kv/data"

	// Message kinds for the two-sided GET RPC.
	msgGet     = rdma.KindKVGet
	msgGetResp = rdma.KindKVGetResp
)

// hashKey mixes a key with the splitmix64 finalizer; both store and
// clients must agree on it to compute slot positions.
func hashKey(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Options configures a Store.
type Options struct {
	// Capacity is the number of record slots (rounded up to a power of
	// two). The paper populates 1M records; experiments here default to a
	// smaller table because table size does not influence the fabric
	// timing model and loading one is setup time every run pays. A slot
	// costs 16 index bytes, not a record, until its record is written
	// (DESIGN.md §13.1).
	Capacity int
	// RecordSize is the value size in bytes; the paper uses 4 KB.
	RecordSize int
}

// MaxCapacity is the most slots a store holds: slot numbers are kept as
// int32 (see Store.locs).
const MaxCapacity = math.MaxInt32 + 1

// CapacityFor returns the slot count of the smallest table that holds
// the given number of records: the next power of two (at least 1). Past
// the largest power of two an int holds there is no such table, and the
// result is that power, short of records; NewStore refuses far smaller
// tables already.
func CapacityFor(records int) int {
	if records <= 1 {
		return 1
	}
	return 1 << min(bits.Len(uint(records-1)), bits.UintSize-2)
}

// Store is the server-side key-value store.
type Store struct {
	node  *rdma.Node
	opts  Options
	mask  uint64
	index *rdma.Region
	data  *rdma.Region
	count int

	// indexView is the owner-side view of the index region
	// (rdma.Region.View), taken once: the store's own CPU walks and fills
	// the same bytes clients reach with one-sided verbs. It is also where
	// the data region finds the prefix of an unwritten record.
	indexView []byte
	// padding is RecordSize zeros, the tail Put writes behind a short
	// value; allocated by the first Put that needs it.
	padding []byte

	// locs is the primed-location slab, shared by every attached client
	// (one read-only array instead of 10^5 identical per-client maps at
	// fleet scale). An entry is the slot number of the key's record
	// (NewStore keeps slot numbers in int32 range); the record is at
	// slot × RecordSize. Its first primed entries are built: handed out,
	// never rewritten, -1 where the key was absent at build time,
	// primedFound of them holding a slot. The rest are pending: the entry
	// of a key in [primed, len(locs)) is its slot while the key is in the
	// index and -1 while it is not, kept so by place. Building an entry is
	// therefore taking it, and nothing probes.
	locs        []int32
	primed      int
	primedFound int

	// replies holds the one QP two-sided responses take to each client,
	// connected on that client's first request.
	replies map[*rdma.Node]*rdma.QP
}

// primeShared returns the shared primed-location slab covering keys
// [0, n) and the number of those keys that have a location. Entries are
// never rewritten after they are built: a location is stable once a
// record exists (updates are in-place), and a key absent at build time
// stays -1 so later clients resolve it with the same probe sequence an
// early client would have used. Growing the slab may move it, so clients
// holding a shorter prefix keep their original backing array.
func (s *Store) primeShared(n int) (locs []int32, found int) {
	if n > s.primed {
		s.track(n)
		for _, loc := range s.locs[s.primed:n] {
			if loc >= 0 {
				s.primedFound++
			}
		}
		s.primed = n
	}
	locs = s.locs[:n]
	if n == s.primed {
		return locs, s.primedFound
	}
	for _, loc := range locs {
		if loc >= 0 {
			found++
		}
	}
	return locs, found
}

// track extends the pending part of the slab to keys below n. An empty
// store holds none of the new keys; any other finds the ones it holds in
// one scan of the index, not one probe walk per key.
func (s *Store) track(n int) {
	from := len(s.locs)
	if n <= from {
		return
	}
	s.locs = slices.Grow(s.locs, n-from)[:n]
	for k := from; k < n; k++ {
		s.locs[k] = -1
	}
	if s.count == 0 {
		return
	}
	for slot := uint64(0); slot <= s.mask; slot++ {
		cell := s.indexView[slot*slotSize : slot*slotSize+slotSize]
		key := binary.LittleEndian.Uint64(cell)
		if binary.LittleEndian.Uint64(cell[8:])&occupiedBit != 0 && key >= uint64(from) && key < uint64(n) {
			s.locs[key] = int32(slot)
		}
	}
}

// NewStore registers the store's regions on node and, if disp is non-nil,
// installs the two-sided GET handler.
func NewStore(node *rdma.Node, disp *rdma.Dispatcher, opts Options) (*Store, error) {
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("kvstore: capacity must be positive, got %d", opts.Capacity)
	}
	if opts.RecordSize <= 0 {
		return nil, fmt.Errorf("kvstore: record size must be positive, got %d", opts.RecordSize)
	}
	if int64(opts.Capacity) > MaxCapacity {
		return nil, fmt.Errorf("kvstore: capacity %d exceeds the %d slots a slot number reaches", opts.Capacity, int64(MaxCapacity))
	}
	cap := CapacityFor(opts.Capacity)
	opts.Capacity = cap

	index, err := node.RegisterRegion(IndexRegionName, cap*slotSize)
	if err != nil {
		return nil, fmt.Errorf("kvstore: registering index: %w", err)
	}
	s := &Store{
		node:  node,
		opts:  opts,
		mask:  uint64(cap - 1),
		index: index,
	}
	if s.indexView, err = index.View(0, index.Size()); err != nil {
		return nil, err
	}
	if opts.RecordSize >= 8 {
		s.data, err = node.RegisterPagedRegion(DataRegionName, cap, opts.RecordSize, s.slotKey)
	} else {
		// A record too short to hold its key has no synthetic value.
		s.data, err = node.RegisterRegion(DataRegionName, cap*opts.RecordSize)
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: registering data: %w", err)
	}
	if disp != nil {
		if err := disp.Handle(msgGet, s.handleGet); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// findSlot walks key's probe path over the index bytes and returns the
// slot holding key (found), or else the first free slot on the path. ok is
// false when the path covers the whole table without either.
func (s *Store) findSlot(key uint64) (slot uint64, found, ok bool) {
	i := hashKey(key) & s.mask
	for probe := uint64(0); probe <= s.mask; probe++ {
		cell := s.indexView[i*slotSize : i*slotSize+slotSize]
		if binary.LittleEndian.Uint64(cell[8:])&occupiedBit == 0 {
			return i, false, true
		}
		if binary.LittleEndian.Uint64(cell) == key {
			return i, true, true
		}
		i = (i + 1) & s.mask
	}
	return 0, false, false
}

// dataOff is the data-region offset of slot's record: the location the
// slot's state word advertises and clients cache.
func (s *Store) dataOff(slot uint64) int64 { return int64(slot) * int64(s.opts.RecordSize) }

// slotKey is the data region's page prefix: the key field of the page's
// index slot. A free slot's key field is zero, so its record reads as
// zeros; placing a key (Put) makes the record read as that key plus zeros
// without touching the data region.
func (s *Store) slotKey(slot int) uint64 {
	return binary.LittleEndian.Uint64(s.indexView[slot*slotSize:])
}

// Put stores value under key, server-side (used to populate the store).
// The value is copied, zero-padded to the record size. A record that
// already reads as the padded value — a fresh key whose value is the key
// plus zeros — stays unwritten (rdma.Region.CopyIn allocates a page only
// for bytes that change it).
func (s *Store) Put(key uint64, value []byte) error {
	if err := s.checkValue(value); err != nil {
		return err
	}
	slot, found, ok := s.findSlot(key)
	if !ok {
		return s.errFull()
	}
	if !found {
		s.place(slot, key)
	}
	return s.writeRecord(slot, value)
}

func (s *Store) checkValue(value []byte) error {
	if len(value) > s.opts.RecordSize {
		return fmt.Errorf("kvstore: value of %d bytes exceeds record size %d", len(value), s.opts.RecordSize)
	}
	return nil
}

func (s *Store) errFull() error { return fmt.Errorf("kvstore: table full (%d records)", s.count) }

// place stores key in free slot and, while the key's slab entry is
// pending, its location there.
func (s *Store) place(slot, key uint64) {
	cell := s.indexView[slot*slotSize : slot*slotSize+slotSize]
	binary.LittleEndian.PutUint64(cell, key)
	binary.LittleEndian.PutUint64(cell[8:], occupiedBit|uint64(s.dataOff(slot)))
	s.count++
	if key >= uint64(s.primed) && key < uint64(len(s.locs)) {
		s.locs[key] = int32(slot)
	}
}

// writeRecord stores value, zero-padded to the record size, as slot's
// record.
func (s *Store) writeRecord(slot uint64, value []byte) error {
	off := int(s.dataOff(slot))
	if err := s.data.CopyIn(off, value); err != nil {
		return err
	}
	if pad := s.opts.RecordSize - len(value); pad > 0 {
		if s.padding == nil {
			s.padding = make([]byte, s.opts.RecordSize)
		}
		return s.data.CopyIn(off+len(value), s.padding[:pad])
	}
	return nil
}

// Populate fills the store with n records whose values are produced by
// valueFn(key); keys are 0..n-1 as in the paper's YCSB load phase. A nil
// valueFn loads the record every experiment reads: the key's eight
// little-endian bytes, then zeros (cut short by a record under 8 bytes).
func (s *Store) Populate(n int, valueFn func(key uint64) []byte) error {
	return s.PopulateShard(0, 1, n, valueFn)
}

// PopulateShard loads one data node's share of an n-record keyspace
// sharded key mod of: the keys below n congruent to shard. Populate is the
// one-shard case.
//
// Into an empty store every key is new, and linear probing would place it
// in the first free slot at or after its hash. A next-free table finds
// that slot without walking the occupied run before it: a union-find over
// the slots in which a free slot is its own root and an occupied one
// points at its successor, halving each path it walks. Any other load is
// a Put per key. Either way the index and data bytes are the ones Put
// would have written.
func (s *Store) PopulateShard(shard, of, n int, valueFn func(key uint64) []byte) error {
	switch {
	case of <= 0:
		return fmt.Errorf("kvstore: populating shard %d of %d: the shard count must be positive", shard, of)
	case shard < 0 || shard >= of:
		return fmt.Errorf("kvstore: populating shard %d of %d: no such shard", shard, of)
	case n < 0:
		return fmt.Errorf("kvstore: populating %d records: the count must not be negative", n)
	}
	// Every key placed from here on records its location in the slab.
	s.track(n)
	var keyBytes [8]byte
	value := func(key uint64) []byte {
		if valueFn != nil {
			return valueFn(key)
		}
		binary.LittleEndian.PutUint64(keyBytes[:], key)
		return keyBytes[:min(len(keyBytes), s.opts.RecordSize)]
	}
	put := s.Put
	if s.count == 0 {
		put = s.newKeyPut(valueFn == nil)
	}
	for k := shard; k < n; k += of {
		if err := put(uint64(k), value(uint64(k))); err != nil {
			return fmt.Errorf("kvstore: populating key %d: %w", k, err)
		}
	}
	return nil
}

// newKeyPut returns a Put for keys the store does not hold, into a store
// that holds none yet: it places a key through a next-free table instead
// of findSlot, and leaves the data region alone when a record is its key
// plus zeros and no page is written, since that is what the record reads
// as once the key is placed. The table is the returned function's own, so
// it is garbage once the load is done.
func (s *Store) newKeyPut(keyRecords bool) func(key uint64, value []byte) error {
	unwritten := keyRecords && s.data.Paged() && s.data.Resident() == 0
	next := make([]uint32, s.mask+1)
	for i := range next {
		next[i] = uint32(i)
	}
	return func(key uint64, value []byte) error {
		if err := s.checkValue(value); err != nil {
			return err
		}
		if s.count > int(s.mask) {
			return s.errFull()
		}
		slot := uint64(nextFree(next, uint32(hashKey(key)&s.mask)))
		next[slot] = uint32((slot + 1) & s.mask)
		s.place(slot, key)
		if unwritten {
			return nil
		}
		return s.writeRecord(slot, value)
	}
}

// nextFree returns the first free slot at or after slot i, wrapping at the
// table's end, in newKeyPut's next-free table, halving the path it walks.
// Some slot must be free.
func nextFree(next []uint32, i uint32) uint32 {
	for next[i] != i {
		next[i] = next[next[i]]
		i = next[i]
	}
	return i
}

// The two-sided GET wire format: a msgGet carries the key in A and the
// request id in B; its msgGetResp carries the request id in A and the
// record's data offset in B (-1: no record).

// reply returns the QP responses to client take, connecting it on the
// client's first request.
func (s *Store) reply(client *rdma.Node) (*rdma.QP, error) {
	if qp := s.replies[client]; qp != nil {
		return qp, nil
	}
	qp, err := s.node.Fabric().Connect(s.node, client)
	if err != nil {
		return nil, err
	}
	if s.replies == nil {
		s.replies = make(map[*rdma.Node]*rdma.QP)
	}
	s.replies[client] = qp
	return qp, nil
}

func (s *Store) handleGet(from *rdma.Node, req rdma.Message) {
	qp, err := s.reply(from)
	if err != nil {
		return
	}
	resp, size := rdma.Message{Kind: msgGetResp, A: req.B, B: -1}, 16
	if slot, found, _ := s.findSlot(uint64(req.A)); found {
		resp.B, size = s.dataOff(slot), size+s.opts.RecordSize
	}
	_ = qp.Send(resp, size, nil)
}
