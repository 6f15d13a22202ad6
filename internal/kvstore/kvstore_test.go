package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

func testStore(t *testing.T, opts Options) (*sim.Kernel, *rdma.Fabric, *Store, *Client) {
	t.Helper()
	k := sim.New(1)
	cfg := rdma.NewDefaultConfig()
	cfg.Jitter = 0
	f, err := rdma.NewFabric(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.AddServer("dn")
	if err != nil {
		t.Fatal(err)
	}
	sd := rdma.NewDispatcher(server)
	store, err := NewStore(server, sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	client, err := f.AddClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	cd := rdma.NewDispatcher(client)
	kv, err := Attach(client, cd, store)
	if err != nil {
		t.Fatal(err)
	}
	return k, f, store, kv
}

// copyOut copies size bytes of r at off, as a same-shard READ sees them.
func copyOut(r *rdma.Region, off, size int) ([]byte, error) {
	w, err := r.Window(off, size)
	return slices.Clone(w), err
}

// stored returns a copy of the record stored under key, read server-side.
func stored(s *Store, key uint64) ([]byte, bool) {
	slot, found, _ := s.findSlot(key)
	if !found {
		return nil, false
	}
	rec, err := copyOut(s.data, int(s.dataOff(slot)), s.opts.RecordSize)
	return rec, err == nil
}

// cacheLen returns the number of key locations c has cached: the primed
// prefix and the probe-learned overlay.
func cacheLen(c *Client) int {
	if c.rare == nil {
		return c.primedFound
	}
	return c.primedFound + len(c.rare.cache)
}

func smallOpts() Options { return Options{Capacity: 256, RecordSize: 64} }

func valFor(key uint64) []byte {
	v := make([]byte, 64)
	binary.LittleEndian.PutUint64(v, key^0xABCD)
	return v
}

func TestStoreOptionsValidation(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	if _, err := NewStore(server, nil, Options{Capacity: 0, RecordSize: 64}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewStore(server, nil, Options{Capacity: 16, RecordSize: 0}); err == nil {
		t.Error("zero record size accepted")
	}
}

// TestStoreRefusesCapacityPastSlotRange: the primed slab holds int32 slot
// numbers, so a capacity past 2^31 slots is refused before any region is
// registered.
func TestStoreRefusesCapacityPastSlotRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold a capacity past 2^31")
	}
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	past := uint64(math.MaxInt32) + 2
	for _, capacity := range []int{int(past), int(past << 9), math.MaxInt} {
		_, err := NewStore(server, nil, Options{Capacity: capacity, RecordSize: 64})
		if err == nil || !strings.Contains(err.Error(), "slot number") {
			t.Errorf("capacity %d: err = %v, want the slot-range refusal", capacity, err)
		}
	}
	// A refused store leaves no region registered: the names are free.
	if _, err := NewStore(server, nil, Options{Capacity: 16, RecordSize: 64}); err != nil {
		t.Errorf("a store in range after the refusals: %v", err)
	}
}

func TestCapacityRoundsToPowerOfTwo(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	s, err := NewStore(server, nil, Options{Capacity: 100, RecordSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if s.opts.Capacity != 128 {
		t.Errorf("capacity = %d, want 128", s.opts.Capacity)
	}
}

// TestCapacityForTerminates: CapacityFor is the next power of two, and
// past the largest one an int holds it returns that one instead of
// doubling forever.
func TestCapacityForTerminates(t *testing.T) {
	top := 1 << (strconv.IntSize - 2)
	for _, c := range []struct{ records, want int }{
		{math.MinInt, 1}, {-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{100, 128}, {1 << 16, 1 << 16}, {1<<16 + 1, 1 << 17},
		{top - 1, top}, {top, top}, {top + 1, top}, {math.MaxInt, top},
	} {
		if got := CapacityFor(c.records); got != c.want {
			t.Errorf("CapacityFor(%d) = %d, want %d", c.records, got, c.want)
		}
	}
}

func TestPutGetLocal(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	for k := uint64(0); k < 100; k++ {
		if err := store.Put(k, valFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	if store.count != 100 {
		t.Errorf("Len = %d, want 100", store.count)
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := stored(store, k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if !bytes.Equal(v, valFor(k)) {
			t.Fatalf("key %d value mismatch", k)
		}
	}
	if _, ok := stored(store, 9999); ok {
		t.Error("missing key found")
	}
}

func TestPutOverwrite(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	if err := store.Put(5, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(5, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if store.count != 1 {
		t.Errorf("Len = %d after overwrite, want 1", store.count)
	}
	v, _ := stored(store, 5)
	if string(v[:6]) != "second" {
		t.Errorf("overwrite lost: %q", v[:6])
	}
}

func TestPutShortValueZeroPadded(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	_ = store.Put(1, bytes.Repeat([]byte{0xFF}, 64))
	_ = store.Put(1, []byte("x"))
	v, _ := stored(store, 1)
	if v[0] != 'x' {
		t.Error("value not stored")
	}
	for i := 1; i < 64; i++ {
		if v[i] != 0 {
			t.Fatalf("byte %d = %x, want 0 (stale data leaked)", i, v[i])
		}
	}
}

func TestPutOversizeValue(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	if err := store.Put(1, make([]byte, 65)); err == nil {
		t.Error("oversize value accepted")
	}
}

func TestTableFull(t *testing.T) {
	_, _, store, _ := testStore(t, Options{Capacity: 16, RecordSize: 8})
	for k := uint64(0); k < 16; k++ {
		if err := store.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Put(999, []byte{1}); err == nil {
		t.Error("put into full table accepted")
	}
}

func TestPopulate(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	if err := store.Populate(50, valFor); err != nil {
		t.Fatal(err)
	}
	if store.count != 50 {
		t.Errorf("Len = %d", store.count)
	}
}

func TestOneSidedGetColdAndWarm(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	if err := store.Populate(100, valFor); err != nil {
		t.Fatal(err)
	}

	var got []byte
	var gotErr error
	err := kv.Get(42, func(v []byte, err error) {
		got = append([]byte(nil), v...)
		gotErr = err
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !bytes.Equal(got, valFor(42)) {
		t.Error("cold GET returned wrong value")
	}
	if kv.ProbeReads() == 0 {
		t.Error("cold GET did not probe the index")
	}
	if cacheLen(kv) != 1 {
		t.Errorf("CacheLen = %d, want 1", cacheLen(kv))
	}

	probesBefore := kv.ProbeReads()
	got = nil
	_ = kv.Get(42, func(v []byte, err error) { got = append([]byte(nil), v...); gotErr = err })
	k.Run()
	if gotErr != nil || !bytes.Equal(got, valFor(42)) {
		t.Error("warm GET failed")
	}
	if kv.ProbeReads() != probesBefore {
		t.Error("warm GET probed the index; location cache ineffective")
	}
}

func TestOneSidedGetIsSilent(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(10, valFor)
	kv.PrimeCache(10)
	for i := uint64(0); i < 10; i++ {
		_ = kv.Get(i, func([]byte, error) {})
	}
	k.Run()
	if n := store.node.Stats().SendsReceived; n != 0 {
		t.Errorf("one-sided GETs generated %d server messages; CPU involved", n)
	}
}

func TestGetNotFound(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(10, valFor)
	var gotErr error
	called := false
	_ = kv.Get(777, func(v []byte, err error) { called, gotErr = true, err })
	k.Run()
	if !called || gotErr != ErrNotFound {
		t.Errorf("missing key: called=%v err=%v, want ErrNotFound", called, gotErr)
	}
}

func TestGetNilCallback(t *testing.T) {
	_, _, _, kv := testStore(t, smallOpts())
	if err := kv.Get(1, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if err := kv.GetTwoSided(1, nil); err == nil {
		t.Error("nil callback accepted (two-sided)")
	}
}

func TestPrimeCache(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(100, valFor)
	kv.PrimeCache(100)
	if cacheLen(kv) != 100 {
		t.Errorf("CacheLen = %d, want 100", cacheLen(kv))
	}
	// All primed GETs must be single reads: no probes.
	for i := uint64(0); i < 100; i++ {
		_ = kv.Get(i, func([]byte, error) {})
	}
	k.Run()
	if kv.ProbeReads() != 0 {
		t.Errorf("primed client issued %d probe reads", kv.ProbeReads())
	}
	if kv.OneSidedGets() != 100 {
		t.Errorf("OneSidedGets = %d, want 100", kv.OneSidedGets())
	}
}

// TestClientFootprint: a KV client fits the 192-byte allocation class,
// and a primed client that reads and writes whole records never
// allocates its rare-path state; the first cold key, short Update value
// or two-sided GET does.
func TestClientFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Client{}); got > 192 {
		t.Errorf("kvstore.Client is %d bytes, want <= 192", got)
	}
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(100, valFor)
	kv.PrimeCache(100)
	for i := uint64(0); i < 10; i++ {
		_ = kv.Get(i, func([]byte, error) {})
		_ = kv.Update(i, valFor(i), func(error) {})
	}
	k.Run()
	if kv.rare != nil {
		t.Error("primed whole-record GETs and Updates allocated the rare-path state")
	}
	for _, tc := range []struct {
		name string
		use  func(c *Client) error
	}{
		{"cold GET", func(c *Client) error { return c.Get(150, func([]byte, error) {}) }},
		{"short Update", func(c *Client) error { return c.Update(1, []byte{1}, func(error) {}) }},
		{"two-sided GET", func(c *Client) error { return c.GetTwoSided(1, func([]byte, error) {}) }},
	} {
		k, _, store, kv := testStore(t, smallOpts())
		_ = store.Populate(100, valFor)
		kv.PrimeCache(100)
		if err := tc.use(kv); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k.Run()
		if kv.rare == nil {
			t.Errorf("a %s left the rare-path state nil", tc.name)
		}
	}
}

func TestTwoSidedGetPut(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	if err := store.Put(7, []byte("two-sided")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	var getErr error
	_ = kv.GetTwoSided(7, func(v []byte, err error) { got, getErr = v, err })
	k.Run()
	if getErr != nil {
		t.Fatal(getErr)
	}
	if string(got[:9]) != "two-sided" {
		t.Errorf("GetTwoSided = %q", got[:9])
	}
	var missErr error
	_ = kv.GetTwoSided(999, func(v []byte, err error) { missErr = err })
	k.Run()
	if missErr != ErrNotFound {
		t.Errorf("missing two-sided GET err = %v", missErr)
	}
}

func TestTwoSidedUsesServerCPU(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(10, valFor)
	for i := uint64(0); i < 5; i++ {
		_ = kv.GetTwoSided(i, func([]byte, error) {})
	}
	k.Run()
	if n := store.node.Stats().SendsReceived; n != 5 {
		t.Errorf("server received %d sends, want 5", n)
	}
}

// TestTwoSidedRepliesShareOneQP: the store answers every two-sided
// request from one client on the same QP, connected on the first
// request, instead of opening a QP per reply.
func TestTwoSidedRepliesShareOneQP(t *testing.T) {
	k, f, store, kv := testStore(t, smallOpts())
	fr, err := trace.NewFlightRecorder(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetFlightRecorders([]*trace.FlightRecorder{fr}); err != nil {
		t.Fatal(err)
	}
	_ = store.Populate(3, valFor)
	for i := uint64(0); i < 6; i++ {
		_ = kv.GetTwoSided(i%3, func([]byte, error) {})
	}
	k.Run()
	var dump strings.Builder
	if err := fr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	reply := fmt.Sprintf(" %-15s %-10s -> %s qp=", trace.OpSend, store.node.Name(), kv.node.Name())
	var qps []int
	for _, line := range strings.Split(dump.String(), "\n") {
		if _, tail, ok := strings.Cut(line, reply); ok {
			var qp int
			if _, err := fmt.Sscanf(tail, "%d", &qp); err != nil {
				t.Fatalf("timeline line %q: %v", line, err)
			}
			qps = append(qps, qp)
		}
	}
	if len(qps) != 6 {
		t.Fatalf("recorded %d store-to-client SENDs, want 6", len(qps))
	}
	for _, qp := range qps[1:] {
		if qp != qps[0] {
			t.Fatalf("replies used QPs %v, want one", qps)
		}
	}
}

// TestTwoSidedReadsAtDelivery: a two-sided reply locates the record and
// the client reads it when the reply is delivered, so a one-sided Update
// that lands after the server handled the GET but before the reply
// arrives is what the GET returns. Two dry runs time the GET and the
// Update's landing; the third issues the Update so it lands halfway
// between the GET's handling and its reply's delivery.
func TestTwoSidedReadsAtDelivery(t *testing.T) {
	primed := func() (*sim.Kernel, *Store, *Client) {
		k, _, store, kv := testStore(t, smallOpts())
		if err := store.Populate(10, valFor); err != nil {
			t.Fatal(err)
		}
		kv.PrimeCache(10)
		return k, store, kv
	}
	updated := func(store *Store) bool {
		rec, _ := stored(store, 3)
		return bytes.Equal(rec, valFor(99))
	}
	// stepUntil runs k until cond holds and returns the time it did.
	stepUntil := func(k *sim.Kernel, cond func() bool) sim.Time {
		for !cond() {
			if !k.Step() {
				t.Fatal("the kernel ran dry")
			}
		}
		return k.Now()
	}
	update := func(kv *Client) {
		if err := kv.Update(3, valFor(99), func(err error) {
			if err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	k, store, kv := primed()
	var delivered sim.Time
	_ = kv.GetTwoSided(3, func([]byte, error) { delivered = k.Now() })
	handled := stepUntil(k, func() bool { return len(store.replies) > 0 }) // handleGet connects the reply QP
	k.Run()
	k, store, kv = primed()
	update(kv)
	landing := stepUntil(k, func() bool { return updated(store) })
	at := handled + (delivered-handled)/2 - landing
	if at < 0 || delivered <= handled {
		t.Fatalf("GET handled at %v, delivered at %v, an Update lands after %v: no time to issue it", handled, delivered, landing)
	}

	k, store, kv = primed()
	var got []byte
	_ = kv.GetTwoSided(3, func(v []byte, err error) {
		if err != nil || !updated(store) {
			t.Fatalf("reply delivered with err %v, the Update landed = %v", err, updated(store))
		}
		got = append([]byte(nil), v...)
	})
	k.At(at, func() { update(kv) })
	stepUntil(k, func() bool { return len(store.replies) > 0 })
	if updated(store) {
		t.Fatal("the Update landed before the server handled the GET")
	}
	k.Run()
	if !bytes.Equal(got, valFor(99)) {
		t.Errorf("GetTwoSided = %x, want the Update's %x", got[:8], valFor(99)[:8])
	}
}

// TestTwoSidedGetAllocation pins that a two-sided GET allocates nothing
// in steady state: the reply carries the record's location, not a copy
// (4 224 B a GET while it did), the request and reply ride inline in
// their SEND records (96 B while they were boxed), and the callback waits
// in a ring, not a map.
func TestTwoSidedGetAllocation(t *testing.T) {
	k, _, store, kv := testStore(t, Options{Capacity: 256, RecordSize: rdma.DataIOSize})
	if err := store.Populate(100, nil); err != nil {
		t.Fatal(err)
	}
	kv.PrimeCache(100)
	var gets int
	cb := func(v []byte, err error) {
		if err != nil || len(v) != rdma.DataIOSize {
			t.Fatalf("GetTwoSided: %d bytes, %v", len(v), err)
		}
		gets++
	}
	round := func() {
		for key := uint64(0); key < 100; key++ {
			if err := kv.GetTwoSided(key, cb); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
	}
	for i := 0; i < 5; i++ {
		round() // warm-up: QPs, pools, the pending ring
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if gets != (5+rounds)*100 {
		t.Fatalf("%d GETs completed, want %d", gets, (5+rounds)*100)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total != 0 {
		t.Errorf("%d steady-state two-sided GETs allocated %d bytes, want 0", rounds*100, total)
	}
}

// TestTwoSidedMissPassesHit: a miss's reply is short and takes the NIC's
// control path, so it overtakes the reply to a hit requested before it;
// each callback still gets its own answer, and the pending ring empties.
func TestTwoSidedMissPassesHit(t *testing.T) {
	k, _, store, kv := testStore(t, Options{Capacity: 256, RecordSize: rdma.DataIOSize})
	if err := store.Populate(100, nil); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, key := range []uint64{7, 1000, 8} {
		if err := kv.GetTwoSided(key, func(v []byte, err error) {
			switch {
			case key == 1000 && errors.Is(err, ErrNotFound):
				order = append(order, "miss")
			case err == nil && binary.LittleEndian.Uint64(v) == key:
				order = append(order, fmt.Sprint(key))
			default:
				t.Errorf("key %d: %d bytes, %v", key, len(v), err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if want := []string{"miss", "7", "8"}; !slices.Equal(order, want) {
		t.Errorf("replies completed as %v, want %v", order, want)
	}
	if n := kv.rare.pendingGet.Len(); n != 0 {
		t.Errorf("%d GETs still pending", n)
	}
}

// TestProbeWraparound forces keys whose probe path wraps past the end of
// the table.
func TestProbeWraparound(t *testing.T) {
	k, _, store, kv := testStore(t, Options{Capacity: 16, RecordSize: 16})
	// Fill the table completely so probes traverse long runs including the
	// wrap point.
	for key := uint64(0); key < 16; key++ {
		if err := store.Put(key, valFor(key)[:16]); err != nil {
			t.Fatal(err)
		}
	}
	for key := uint64(0); key < 16; key++ {
		key := key
		var got []byte
		var gotErr error
		if err := kv.Get(key, func(v []byte, err error) { got, gotErr = append([]byte(nil), v...), err }); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if gotErr != nil {
			t.Fatalf("key %d: %v", key, gotErr)
		}
		if !bytes.Equal(got, valFor(key)[:16]) {
			t.Fatalf("key %d: wrong value", key)
		}
	}
}

// TestGetMissFullTable: a missing key in a full table must terminate (probe
// depth bound) rather than loop forever.
func TestGetMissFullTable(t *testing.T) {
	k, _, store, kv := testStore(t, Options{Capacity: 16, RecordSize: 16})
	for key := uint64(0); key < 16; key++ {
		_ = store.Put(key, valFor(key)[:16])
	}
	var gotErr error
	called := false
	_ = kv.Get(1234, func(v []byte, err error) { called, gotErr = true, err })
	k.Run()
	if !called {
		t.Fatal("probe of full table never terminated")
	}
	if gotErr != ErrNotFound {
		t.Errorf("err = %v, want ErrNotFound", gotErr)
	}
}

// Property test: any set of distinct keys stored then read back one-sided
// returns the exact stored values.
func TestStoreClientRoundTripProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) > 60 {
			keys = keys[:60]
		}
		k, _, store, kv := testStore(t, Options{Capacity: 128, RecordSize: 16})
		seen := map[uint64]bool{}
		var distinct []uint64
		for _, key := range keys {
			if !seen[key] {
				seen[key] = true
				distinct = append(distinct, key)
			}
		}
		for _, key := range distinct {
			if err := store.Put(key, valFor(key)[:16]); err != nil {
				return false
			}
		}
		okAll := true
		for _, key := range distinct {
			key := key
			_ = kv.Get(key, func(v []byte, err error) {
				if err != nil || !bytes.Equal(v, valFor(key)[:16]) {
					okAll = false
				}
			})
		}
		k.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHashKeyDispersion(t *testing.T) {
	// Adjacent keys must not collide into the same slot region en masse.
	buckets := map[uint64]int{}
	const n = 4096
	for k := uint64(0); k < n; k++ {
		buckets[hashKey(k)%64]++
	}
	for b, c := range buckets {
		if c < n/64/2 || c > n/64*2 {
			t.Errorf("bucket %d has %d keys; poor dispersion", b, c)
		}
	}
}

func TestAttachValidation(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	store, err := NewStore(server, nil, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(nil, nil, store); err == nil {
		t.Error("nil node accepted")
	}
	client, _ := f.AddClient("c")
	if _, err := Attach(client, nil, nil); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := Attach(client, nil, store); err != nil { // nil dispatcher: one-sided only
		t.Fatal(err)
	}
}

func TestDuplicateAttachSameDispatcher(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	store, _ := NewStore(server, nil, smallOpts())
	client, _ := f.AddClient("c")
	d := rdma.NewDispatcher(client)
	if _, err := Attach(client, d, store); err != nil {
		t.Fatal(err)
	}
	// Second attach with the same dispatcher clashes on response kinds.
	if _, err := Attach(client, d, store); err == nil {
		t.Error("duplicate RPC handler registration accepted")
	}
}

func TestServerHandlersIgnoreWrongTypes(t *testing.T) {
	k, f, store, _ := testStore(t, smallOpts())
	// Garbage under the RPC kind, from a node with no client: the store
	// must answer or ignore it, never panic.
	client2, _ := f.AddClient("c2")
	qp, _ := f.Connect(client2, store.node)
	_ = qp.Send(rdma.Message{Kind: msgGet, Flag: true, Seq: 9, A: -1, B: -1}, 16, nil)
	k.Run() // must not panic
}

func TestStoreDispatcherConflict(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	d := rdma.NewDispatcher(server)
	if _, err := NewStore(server, d, smallOpts()); err != nil {
		t.Fatal(err)
	}
	// A second store on the same node clashes on regions.
	if _, err := NewStore(server, d, smallOpts()); err == nil {
		t.Error("second store on one node accepted")
	}
}
