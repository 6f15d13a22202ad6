package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// storeFuzz is a layoutPair with a client on the store under test and the
// footprint the reference's history demands of the paged data region.
type storeFuzz struct {
	*layoutPair
	k  *sim.Kernel
	kv *Client
	// written[s]: record s of the reference has differed from its slot's key
	// plus zeros after some step — exactly the pages kv/data must hold (a
	// page is never released).
	written []bool
}

// check is every oracle, after every step: index and data bytes and Len
// equal the reference's, and the data region holds its written pages only.
func (s *storeFuzz) check(what string) {
	s.t.Helper()
	s.k.Run()
	s.same()
	size := s.ref.opts.RecordSize
	pages := 0
	for slot := range s.written {
		key, _ := s.ref.slotState(uint64(slot))
		rec, _ := s.ref.data.CopyOut(slot*size, size)
		if !bytes.Equal(rec, synthetic(key, size)) {
			s.written[slot] = true
		}
		if s.written[slot] {
			pages++
		}
	}
	if data := s.got.DataRegion(); !data.Paged() || data.Resident() != pages*size {
		s.t.Fatalf("after %s: paged = %v with %d bytes resident, the reference has written %d records of %d",
			what, data.Paged(), data.Resident(), pages, size)
	}
}

// refRecord is the record the reference holds under key.
func (s *storeFuzz) refRecord(key uint64) ([]byte, bool) {
	slot, ok, _, _ := s.ref.findSlot(key)
	if !ok {
		return nil, false
	}
	rec, _ := s.ref.data.CopyOut(int(slot)*s.ref.opts.RecordSize, s.ref.opts.RecordSize)
	return rec, true
}

// opPopulate and the op bytes above it are a PopulateShard step. They are
// kept out of the other ops' modulus so that older inputs decode as they
// did.
const opPopulate = 252

// FuzzStoreLayout drives the store and layout_test.go's reference loader
// through one random sequence of server-side Puts, one-sided Updates
// (whose caller overwrites its value buffer as soon as Update returns),
// one-sided GETs, prime requests and sharded loads — fresh keys and
// re-Puts, synthetic values (the key plus zeros: full, key-only, empty
// for key 0) and others, short, full and oversize, into tables that fill
// up — and checks storeFuzz.check's oracles after every step. The
// input's first byte picks capacity and record size; then each step is an
// op byte, a key byte and, for the storing ops, a value byte, or an op
// byte of at least opPopulate, a shard count, shard, key count and value
// function byte.
func FuzzStoreLayout(f *testing.F) {
	// An in-order synthetic load, GETs, then a synthetic Update: nothing is
	// written. (Geometry 0: 16 slots of 24 bytes.)
	f.Add([]byte{0, 0, 0, 2, 0, 1, 0, 0, 2, 1, 0, 3, 0, 4, 1, 4, 3, 2, 2, 0, 2, 0, 2, 4, 2})
	// Non-synthetic Put, synthetic re-Put over the written record, Update
	// of an unwritten and of a missing key, oversize values everywhere.
	f.Add([]byte{0, 0, 5, 4, 0, 5, 0, 0, 6, 0, 2, 6, 3, 2, 9, 3, 0, 6, 5, 2, 6, 5, 3, 6, 5, 4, 6})
	// Puts of both kinds, a cold Update through the probe path, a
	// primed client, keys far outside the dense range.
	f.Add([]byte{1, 3, 1, 0, 3, 2, 4, 3, 250, 3, 2, 250, 0, 6, 8, 2, 1, 3, 4, 250, 5, 9})
	// Cold Updates of two keys, each from a buffer its caller reuses at
	// once, then GETs of both.
	f.Add([]byte{0, 0, 1, 4, 0, 2, 4, 2, 1, 10, 2, 2, 16, 4, 1, 4, 2})
	// Four slots: the table fills, later Puts are refused and existing
	// keys still overwrite. (Geometry 2: 4 slots of 8 bytes.)
	f.Add([]byte{2, 0, 0, 0, 0, 1, 4, 0, 2, 0, 0, 3, 3, 0, 4, 0, 3, 5, 4, 0, 1, 0, 2, 3, 3, 4, 3, 5, 7})
	// The odd keys fill an empty table without a value function, a GET, a
	// skipped key refused, primes, then a load over the full table.
	f.Add([]byte{0, 252, 1, 1, 33, 0, 4, 5, 0, 2, 0, 5, 31, 6, 20, 252, 0, 0, 10, 1})
	// A third of the keys with short values, a skipped key Put before the
	// first prime, a load without a value function into the non-empty
	// table, a GET. (Geometry 3: 64 slots of 16 bytes.)
	f.Add([]byte{3, 252, 2, 2, 150, 2, 0, 0, 3, 6, 127, 252, 0, 0, 100, 0, 4, 10})
	f.Fuzz(func(t *testing.T, input []byte) {
		p := &program{b: input}
		g := []Options{
			{Capacity: 16, RecordSize: 24}, {Capacity: 16, RecordSize: 32},
			{Capacity: 4, RecordSize: 8}, {Capacity: 64, RecordSize: 16},
		}[int(p.next())%4]
		k, _, store, kv := testStore(t, g)
		s := &storeFuzz{
			layoutPair: &layoutPair{t: t, ref: newRefStore(t, g), got: store},
			k:          k, kv: kv, written: make([]bool, g.Capacity),
		}
		for step := 0; step < 64 && len(p.b) > 0; step++ {
			b := p.next()
			if b >= opPopulate {
				of := 1 + int(p.next()%4)
				shard, n := int(p.next())%of, int(p.next())%(of*(g.Capacity+2)+1)
				s.populate(shard, of, n, p.valueFn(g.RecordSize))
				s.check(fmt.Sprintf("step %d (PopulateShard(%d, %d, %d))", step, shard, of, n))
				continue
			}
			op, key := b%7, p.key(g.Capacity)
			switch op {
			case 0, 1, 3: // server-side Put (3 too, so that older inputs decode as they did)
				s.put(key, p.value(key, g.RecordSize))
			case 2: // one-sided Update: refused oversize, not found, or stored in place
				value, called := p.value(key, g.RecordSize), false
				want := error(ErrNotFound)
				if _, present := s.refRecord(key); present || len(value) > g.RecordSize {
					want = s.ref.Put(key, value)
				}
				err := kv.Update(key, value, func(err error) {
					called = true
					s.sameErr("Update's completion", err, want)
				})
				// The caller reuses its buffer at once; the record must not
				// see it, even when the write waits for a cold key's probes.
				for i := range value {
					value[i] ^= 0xa5
				}
				k.Run()
				if err != nil {
					s.sameErr("Update", err, want)
				} else if !called {
					t.Fatalf("Update(%d) never completed", key)
				}
			case 4: // one-sided GET
				want, present := s.refRecord(key)
				called := false
				err := kv.Get(key, func(v []byte, err error) {
					called = true
					if present != (err == nil) || (!present && !errors.Is(err, ErrNotFound)) || !bytes.Equal(v, want) {
						t.Fatalf("Get(%d) = %x, %v; reference %x, present = %v", key, v, err, want, present)
					}
				})
				k.Run()
				if err != nil || !called {
					t.Fatalf("Get(%d): %v, completed = %v", key, err, called)
				}
			case 5, 6: // the primed slab, built on both sides at once; 6 hands it to the client
				n := int(key % uint64(2*g.Capacity+1))
				s.prime(n)
				if op == 6 {
					kv.PrimeCache(n)
				}
			}
			s.check(fmt.Sprintf("step %d (op %d, key %d)", step, op, key))
		}
	})
}

// program decodes a fuzz input.
type program struct{ b []byte }

func (p *program) next() byte {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

// key decodes a key: mostly in twice the table's range, so the table fills
// and re-Puts are common, sometimes far outside it.
func (p *program) key(capacity int) uint64 {
	v := uint64(p.next())
	if v >= 240 {
		return 1<<40 | v
	}
	return v % uint64(2*capacity)
}

// value decodes a value for key: synthetic in the three forms Put accepts,
// or not, short, full or one byte too long.
func (p *program) value(key uint64, size int) []byte {
	switch kind := int(p.next()); kind % 6 {
	case 0:
		return synthetic(key, size)
	case 1:
		return synthetic(key, 8)
	case 2:
		return nil
	case 3:
		return layoutValue(key+uint64(kind), kind%size)
	case 4:
		return layoutValue(key+uint64(kind), size)
	default:
		return layoutValue(key, size+1)
	}
}

// valueFn decodes a load's value function: none (the key plus zeros), the
// key plus zeros spelled out, short values that are not, or one that
// refuses the first key.
func (p *program) valueFn(size int) func(key uint64) []byte {
	switch p.next() % 4 {
	case 0:
		return nil
	case 1:
		return func(key uint64) []byte { return synthetic(key, size) }
	case 2:
		return func(key uint64) []byte { return layoutValue(key, size/2) }
	default:
		return func(key uint64) []byte { return layoutValue(key, size+1) }
	}
}
