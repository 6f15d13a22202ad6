package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// refStore is the loader as it stood before the store placed and primed
// in one pass, kept verbatim as the reference the one-pass loader is
// compared against: it probes through two checked Region.Uint64 reads per
// slot, pads through a scratch record, and builds the primed slab by
// probing the finished table a second time. It is written against the
// public Region API only, on regions of its own.
type refStore struct {
	opts      Options
	mask      uint64
	index     *rdma.Region
	data      *rdma.Region
	count     int
	scratch   []byte
	primedLoc []int64
}

func newRefStore(t *testing.T, opts Options) *refStore {
	t.Helper()
	f, err := rdma.NewFabric(sim.New(1), rdma.NewDefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	node, err := f.AddServer("ref")
	if err != nil {
		t.Fatal(err)
	}
	opts.Capacity = CapacityFor(opts.Capacity)
	index, err := node.RegisterRegion(IndexRegionName, opts.Capacity*slotSize)
	if err != nil {
		t.Fatal(err)
	}
	data, err := node.RegisterRegion(DataRegionName, opts.Capacity*opts.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	return &refStore{opts: opts, mask: uint64(opts.Capacity - 1), index: index, data: data}
}

func (s *refStore) slotState(i uint64) (key uint64, state uint64) {
	off := int(i) * slotSize
	key, _ = s.index.Uint64(off)
	state, _ = s.index.Uint64(off + 8)
	return key, state
}

func (s *refStore) findSlot(key uint64) (slot uint64, ok bool, free uint64, hasFree bool) {
	start := hashKey(key) & s.mask
	for probe := uint64(0); probe <= s.mask; probe++ {
		i := (start + probe) & s.mask
		k, state := s.slotState(i)
		if state&occupiedBit == 0 {
			return 0, false, i, true
		}
		if k == key {
			return i, true, 0, false
		}
	}
	return 0, false, 0, false
}

func (s *refStore) Put(key uint64, value []byte) error {
	if len(value) > s.opts.RecordSize {
		return fmt.Errorf("kvstore: value of %d bytes exceeds record size %d", len(value), s.opts.RecordSize)
	}
	slot, ok, free, hasFree := s.findSlot(key)
	if !ok {
		if !hasFree {
			return fmt.Errorf("kvstore: table full (%d records)", s.count)
		}
		slot = free
		s.count++
	}
	dataOff := int(slot) * s.opts.RecordSize
	off := int(slot) * slotSize
	if err := s.index.PutUint64(off, key); err != nil {
		return err
	}
	if err := s.index.PutUint64(off+8, occupiedBit|uint64(dataOff)); err != nil {
		return err
	}
	if s.scratch == nil {
		s.scratch = make([]byte, s.opts.RecordSize)
	}
	copy(s.scratch, value)
	for i := len(value); i < s.opts.RecordSize; i++ {
		s.scratch[i] = 0
	}
	return s.data.CopyIn(dataOff, s.scratch)
}

func (s *refStore) primeShared(n int) []int64 {
	for len(s.primedLoc) < n {
		key := uint64(len(s.primedLoc))
		loc := int64(-1)
		if slot, ok, _, _ := s.findSlot(key); ok {
			_, state := s.slotState(slot)
			loc = int64(state &^ occupiedBit)
		}
		s.primedLoc = append(s.primedLoc, loc)
	}
	return s.primedLoc
}

// probeReads is the number of index READs a client with a cold cache
// issues to resolve key: windows of probeWindow slots from the key's hash
// position, clamped at the region end, until the key or a free slot.
func (s *refStore) probeReads(key uint64) uint64 {
	pos, reads := hashKey(key)&s.mask, uint64(0)
	for depth := uint64(0); depth <= s.mask; {
		n := uint64(probeWindow)
		if pos+n > s.mask+1 {
			n = s.mask + 1 - pos
		}
		reads++
		for i := uint64(0); i < n; i++ {
			if k, state := s.slotState(pos + i); state&occupiedBit == 0 || k == key {
				return reads
			}
		}
		pos, depth = (pos+n)&s.mask, depth+n
	}
	return reads
}

// layoutPair drives the store and the reference through the same calls.
type layoutPair struct {
	t   *testing.T
	ref *refStore
	got *Store
}

func newLayoutPair(t *testing.T, opts Options) *layoutPair {
	t.Helper()
	_, _, store, _ := testStore(t, opts)
	return &layoutPair{t: t, ref: newRefStore(t, opts), got: store}
}

// put applies one Put to both sides; they must agree on the outcome.
func (p *layoutPair) put(key uint64, value []byte) {
	p.t.Helper()
	want, got := p.ref.Put(key, value), p.got.Put(key, value)
	p.sameErr(fmt.Sprintf("Put(%d, %d bytes)", key, len(value)), got, want)
}

// populate loads the keys below n congruent to shard mod of: the store
// through PopulateShard, the reference one Put per key in key order,
// stopping at the first refusal, with the record a nil valueFn stands for.
func (p *layoutPair) populate(shard, of, n int, valueFn func(key uint64) []byte) {
	p.t.Helper()
	var want error
	for k := shard; k < n && want == nil; k += of {
		value := loadedRecord(uint64(k), p.ref.opts.RecordSize)
		if valueFn != nil {
			value = valueFn(uint64(k))
		}
		if err := p.ref.Put(uint64(k), value); err != nil {
			want = fmt.Errorf("kvstore: populating key %d: %w", k, err)
		}
	}
	got := p.got.PopulateShard(shard, of, n, valueFn)
	p.sameErr(fmt.Sprintf("PopulateShard(%d, %d, %d)", shard, of, n), got, want)
}

// loadedRecord is what a load without a value function stores under key:
// the key's little-endian bytes, cut to the record size, then zeros.
func loadedRecord(key uint64, size int) []byte {
	return synthetic(key, 8)[:min(8, size)]
}

// sameErr requires the store's outcome to be the reference's.
func (p *layoutPair) sameErr(what string, got, want error) {
	p.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		p.t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}

// prime asks both sides for the slab over [0, n) and compares it and the
// count the store hands its clients.
func (p *layoutPair) prime(n int) {
	p.t.Helper()
	want := p.ref.primeShared(n)[:n]
	got, found := p.got.primeShared(n)
	if len(got) != n {
		p.t.Fatalf("primeShared(%d) returned %d entries", n, len(got))
	}
	scanned := 0
	for k := range want {
		if got[k] != want[k] {
			p.t.Fatalf("primeShared(%d)[%d] = %d, reference %d", n, k, got[k], want[k])
		}
		if want[k] >= 0 {
			scanned++
		}
	}
	if found != scanned {
		p.t.Fatalf("primeShared(%d) counts %d located keys, a scan of the reference %d", n, found, scanned)
	}
}

// same compares everything a client can observe remotely plus Len.
func (p *layoutPair) same() {
	p.t.Helper()
	for _, r := range []struct{ got, want *rdma.Region }{
		{p.got.IndexRegion(), p.ref.index}, {p.got.DataRegion(), p.ref.data},
	} {
		got, _ := r.got.CopyOut(0, r.got.Size())
		want, _ := r.want.CopyOut(0, r.want.Size())
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			p.t.Fatalf("region %s differs from the reference at byte %d (sizes %d, %d)",
				r.got.Name(), i, len(got), len(want))
		}
	}
	if p.got.Len() != p.ref.count {
		p.t.Fatalf("Len = %d, reference %d", p.got.Len(), p.ref.count)
	}
}

func layoutValue(key uint64, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(key>>(8*(uint(i)%8))) ^ byte(i) ^ 0x5a
	}
	return v
}

// A dense in-order load to exactly 100 % occupancy — the shape of every
// experiment's Populate — then the slab below, at and above the populated
// range (a full table makes every absent key walk all of it).
func TestLayoutDenseFullLoad(t *testing.T) {
	for _, capacity := range []int{1 << 4, 1 << 10, 1 << 16} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			p := newLayoutPair(t, Options{Capacity: capacity, RecordSize: 16})
			p.populate(0, 1, capacity, func(key uint64) []byte { return layoutValue(key, 16) })
			p.same()
			p.prime(capacity / 2)
			p.prime(capacity)
			p.prime(capacity + 9)
			p.prime(3) // a shorter prefix after a longer one
			p.put(uint64(capacity), nil)
			p.put(5, []byte{1})
			p.same()
		})
	}
}

// Data nodes of a sharded keyspace, each loaded to exactly 100 % occupancy
// with and without a value function — the shape of every Servers > 1
// cluster — then primed over the whole keyspace as the node's clients
// are, where most keys belong to other nodes; then loaded again, over the
// records already there.
func TestLayoutShardedFullLoad(t *testing.T) {
	for _, capacity := range []int{1 << 4, 1 << 10} {
		for _, of := range []int{2, 3, 4} {
			for shard := 0; shard < of; shard++ {
				for _, valueFn := range []func(uint64) []byte{nil, func(key uint64) []byte { return layoutValue(key, 13) }} {
					t.Run(fmt.Sprintf("%d/%d-of-%d/nil=%v", capacity, shard, of, valueFn == nil), func(t *testing.T) {
						p := newLayoutPair(t, Options{Capacity: capacity, RecordSize: 16})
						n := of * capacity
						p.populate(shard, of, n, valueFn)
						p.same()
						p.prime(n / 2)
						p.prime(n)
						p.prime(n + 5)
						p.populate(shard, of, n+of, nil) // refused at the first new key
						p.same()
					})
				}
			}
		}
	}
}

// A load into a store that already holds records is a Put per key: keys
// already there are overwritten in place, and the slab finds the keys
// placed before the load, inside and past its range.
func TestLayoutPopulateNonEmpty(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 64, RecordSize: 16})
	for _, key := range []uint64{5, 70, 1 << 40, 12} {
		p.put(key, layoutValue(key, 16))
	}
	p.prime(3) // built while [0, 3) was absent: -1 for good
	p.populate(0, 1, 40, nil)
	p.same()
	p.put(45, nil) // past the range the load covered
	p.prime(80)
	p.populate(1, 2, 60, func(key uint64) []byte { return layoutValue(key, 9) })
	p.prime(100)
	p.same()
}

// Keys a shard skips can be Put between its load and the first prime: the
// slab built afterwards locates them as a probe of the table would, and a
// key Put after its entry was built stays -1.
func TestLayoutPutSkippedKeyBeforePrime(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 64, RecordSize: 16})
	p.populate(1, 3, 120, nil)
	for _, key := range []uint64{0, 3, 119, 2, 130} {
		p.put(key, layoutValue(key, 16))
	}
	p.prime(120)
	p.put(6, nil)
	p.prime(140)
	p.same()
}

// A load that cannot finish stops where Put would have: at an oversize
// value, and at the first key of a full table.
func TestLayoutPopulateRefused(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 16, RecordSize: 16})
	p.populate(0, 1, 8, func(key uint64) []byte { return layoutValue(key, 16+int(key/5)) })
	p.same()
	p = newLayoutPair(t, Options{Capacity: 16, RecordSize: 16})
	p.populate(2, 3, 60, nil)
	p.same()
	p.prime(60)
}

func TestPopulateShardRejectsBadShape(t *testing.T) {
	for _, c := range []struct {
		shard, of, n int
		want         string
	}{
		{0, 0, 10, "kvstore: populating shard 0 of 0: the shard count must be positive"},
		{0, -2, 10, "kvstore: populating shard 0 of -2: the shard count must be positive"},
		{-1, 3, 10, "kvstore: populating shard -1 of 3: no such shard"},
		{3, 3, 10, "kvstore: populating shard 3 of 3: no such shard"},
		{0, 1, -1, "kvstore: populating -1 records: the count must not be negative"},
	} {
		_, _, store, _ := testStore(t, Options{Capacity: 16, RecordSize: 8})
		if err := store.PopulateShard(c.shard, c.of, c.n, nil); err == nil || err.Error() != c.want {
			t.Errorf("PopulateShard(%d, %d, %d) = %v, want %q", c.shard, c.of, c.n, err, c.want)
		}
		if store.Len() != 0 {
			t.Errorf("PopulateShard(%d, %d, %d) stored %d records", c.shard, c.of, c.n, store.Len())
		}
	}
}

// Populate reserves the primed slab once: an in-order load of n records
// without a value function allocates the slab's 8 bytes per key, the
// 4-byte-per-slot next-free table that is garbage once it returns, and
// nothing else that grows with n (append's doubling cost 4.9 times the
// slab).
func TestPopulateReservesPrimedSlab(t *testing.T) {
	const n = 1 << 14
	_, _, store, _ := testStore(t, Options{Capacity: n, RecordSize: 16})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := store.Populate(n, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// (Twice the slab under -race, where slices.Grow's temporary is real.)
	slab, table := uint64(8*n), uint64(4*n)
	if got := after.TotalAlloc - before.TotalAlloc; got < slab+table || got > 2*slab+table+1024 {
		t.Errorf("loading %d records allocated %d bytes, want the %d-byte slab and the %d-byte table", n, got, slab, table)
	}
	if locs, found := store.primeShared(n); len(locs) != n || found != n {
		t.Errorf("primed slab after the load: %d entries, %d located", len(locs), found)
	}
}

func TestLayoutSparseAndOutOfOrder(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 64, RecordSize: 24})
	p.prime(0)
	for _, key := range []uint64{40, 3, 1 << 40, 7, 0, 2, 1<<63 | 5, 1, 5, 64, 4} {
		p.put(key, layoutValue(key, 24))
		p.same()
	}
	p.prime(4)
	p.put(6, layoutValue(6, 24)) // fills a hole past the primed prefix
	p.prime(10)
	p.put(8, layoutValue(8, 24)) // absent when [0, 10) was built: stays -1
	p.prime(70)
	p.same()
}

func TestLayoutRePutPaddingAndOversize(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 32, RecordSize: 32})
	for k := uint64(0); k < 20; k++ {
		p.put(k, layoutValue(k, 32))
	}
	p.put(7, layoutValue(99, 32))         // overwrite in place
	p.put(7, []byte{1, 2, 3})             // shorter: the tail must read zero
	p.put(9, nil)                         // empty value: a record of zeros
	p.put(11, layoutValue(11, 33))        // too long: rejected, nothing moves
	p.put(1<<20, layoutValue(1<<20, 100)) // too long on a new key: not placed
	p.same()
	p.prime(20)
	p.prime(25)
}

func TestLayoutPutAfterPrimed(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 64, RecordSize: 8})
	for k := uint64(0); k < 10; k++ {
		p.put(k, layoutValue(k, 8))
	}
	p.prime(20) // [10, 20) built absent
	for _, key := range []uint64{10, 20, 25, 21, 19} {
		p.put(key, layoutValue(key, 8))
	}
	p.prime(15)
	p.prime(30)
	p.same()
}

func TestLayoutTableFull(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 16, RecordSize: 8})
	for k := uint64(100); k < 116; k++ {
		p.put(k, layoutValue(k, 8))
	}
	p.put(7, layoutValue(7, 8))     // no slot left: both refuse
	p.put(103, layoutValue(0, 8))   // an existing key still overwrites
	p.put(1<<33, layoutValue(1, 8)) // still full
	p.same()
	p.prime(120)
}

// Random interleavings of Put (new, existing, short, oversize, into a
// nearly full table) and prime requests of every length.
func TestLayoutRandomDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 << (2 + rng.Intn(5))
		p := newLayoutPair(t, Options{Capacity: capacity, RecordSize: 12})
		for step := 0; step < 6*capacity; step++ {
			switch rng.Intn(4) {
			case 0:
				p.prime(rng.Intn(2 * capacity))
			default:
				key := uint64(rng.Intn(2 * capacity))
				if rng.Intn(8) == 0 {
					key = rng.Uint64()
				}
				p.put(key, layoutValue(key+uint64(step), rng.Intn(14)))
			}
		}
		p.same()
		p.prime(2 * capacity)
	}
}

// A client that was never primed resolves every key through the same
// index reads the reference's table demands, and a primed one caches
// exactly the keys a scan of the reference slab finds, for a prime range
// below, at and above what was populated.
func TestLayoutClientView(t *testing.T) {
	for _, capacity := range []int{1 << 4, 1 << 10} {
		opts := Options{Capacity: capacity, RecordSize: 16}
		k, f, store, cold := testStore(t, opts)
		p := &layoutPair{t: t, ref: newRefStore(t, opts), got: store}
		records := capacity // 100 % occupancy, the experiments' load factor
		for key := 0; key < records; key++ {
			p.put(uint64(key), layoutValue(uint64(key), 16))
		}
		p.same()

		for key := uint64(0); key < uint64(records); key++ {
			before := cold.ProbeReads()
			var value []byte
			err := cold.Get(key, func(v []byte, err error) {
				if err != nil {
					t.Errorf("capacity %d: Get(%d): %v", capacity, key, err)
				}
				value = append(value, v...)
			})
			if err != nil {
				t.Fatal(err)
			}
			k.Run()
			if !bytes.Equal(value, layoutValue(key, 16)) {
				t.Fatalf("capacity %d: Get(%d) = %x", capacity, key, value)
			}
			if got, want := cold.ProbeReads()-before, p.ref.probeReads(key); got != want {
				t.Fatalf("capacity %d: Get(%d) took %d probe reads, reference table needs %d",
					capacity, key, got, want)
			}
		}

		for i, n := range []int{records / 2, records, records + 5, 0} {
			node, err := f.AddClient(fmt.Sprintf("primed-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			kv, err := Attach(node, nil, store)
			if err != nil {
				t.Fatal(err)
			}
			kv.PrimeCache(n)
			scanned := 0
			for _, loc := range p.ref.primeShared(n)[:n] {
				if loc >= 0 {
					scanned++
				}
			}
			if kv.CacheLen() != scanned {
				t.Errorf("capacity %d: PrimeCache(%d): CacheLen = %d, scan of the reference slab %d",
					capacity, n, kv.CacheLen(), scanned)
			}
		}
	}
}

// synthetic is the value every experiment loads: the key, then zeros.
func synthetic(key uint64, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, key)
	return v
}

// The data region is paged: a record that reads as its key plus zeros
// holds no memory, anything else holds exactly its page, and through every
// path that stores a value the bytes stay the reference's.
func TestLayoutPagedRecords(t *testing.T) {
	const size = 32
	opts := Options{Capacity: 64, RecordSize: size}
	k, _, store, kv := testStore(t, opts)
	p := &layoutPair{t: t, ref: newRefStore(t, opts), got: store}
	data := store.DataRegion()
	check := func(what string, pages int) {
		t.Helper()
		k.Run()
		p.same()
		if got := data.Resident(); !data.Paged() || got != pages*size {
			t.Fatalf("after %s: paged = %v with %d bytes resident, want %d pages", what, data.Paged(), got, pages)
		}
	}
	get := func(key uint64) []byte {
		t.Helper()
		var value []byte
		err := kv.Get(key, func(v []byte, err error) {
			if err != nil {
				t.Errorf("Get(%d): %v", key, err)
			}
			value = append(value, v...)
		})
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if server, ok := store.Get(key); !ok || !bytes.Equal(server, value) {
			t.Fatalf("Get(%d): one-sided %x, server-side %x (%v)", key, value, server, ok)
		}
		return value
	}

	// Synthetic Puts: full-size, key-only (padded), and key 0 with no
	// value at all, which is its key plus zeros too.
	for key := uint64(1); key < 20; key++ {
		p.put(key, synthetic(key, size))
	}
	p.put(40, synthetic(40, 8))
	p.put(0, nil)
	check("synthetic Puts", 0)
	if v := get(7); !bytes.Equal(v, synthetic(7, size)) {
		t.Fatalf("Get(7) = %x", v)
	}
	check("GETs", 0)

	// Non-synthetic Puts, on a fresh key and over an unwritten record; an
	// empty value is not key 41 plus zeros.
	p.put(30, layoutValue(30, size))
	p.put(7, layoutValue(7, 5))
	p.put(41, nil)
	check("non-synthetic Puts", 3)

	// A synthetic value over a written record is stored, not skipped.
	p.put(7, synthetic(7, size))
	check("synthetic re-Put", 3)
	if v := get(7); !bytes.Equal(v, synthetic(7, size)) {
		t.Fatalf("Get(7) after re-Put = %x", v)
	}

	// One-sided Update of an unwritten record, then GET.
	upd := layoutValue(99, 11)
	if err := kv.Update(9, upd, func(err error) {
		if err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.ref.Put(9, upd); err != nil {
		t.Fatal(err)
	}
	check("Update", 4)
	if v := get(9); !bytes.Equal(v[:len(upd)], upd) || !bytes.Equal(v[len(upd):], make([]byte, size-len(upd))) {
		t.Fatalf("Get(9) after Update = %x", v)
	}

	p.prime(64)
}

// A record too small to hold its key is stored in a flat region, and a
// load without a value function writes as much of the key as fits.
func TestLayoutTinyRecordsAreFlat(t *testing.T) {
	p := newLayoutPair(t, Options{Capacity: 16, RecordSize: 4})
	p.populate(1, 2, 16, nil)
	p.same()
	p = newLayoutPair(t, Options{Capacity: 16, RecordSize: 4})
	for key := uint64(0); key < 12; key++ {
		p.put(key, layoutValue(key, int(key%5)))
	}
	p.same()
	if data := p.got.DataRegion(); data.Paged() || data.Resident() != data.Size() {
		t.Errorf("4-byte records: paged = %v, %d of %d bytes resident", data.Paged(), data.Resident(), data.Size())
	}
}
