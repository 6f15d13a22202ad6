package kvstore

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

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

func TestCapacityRoundsToPowerOfTwo(t *testing.T) {
	k := sim.New(1)
	f, _ := rdma.NewFabric(k, rdma.NewDefaultConfig())
	server, _ := f.AddServer("dn")
	s, err := NewStore(server, nil, Options{Capacity: 100, RecordSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if s.Options().Capacity != 128 {
		t.Errorf("capacity = %d, want 128", s.Options().Capacity)
	}
}

func TestPutGetLocal(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	for k := uint64(0); k < 100; k++ {
		if err := store.Put(k, valFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 100 {
		t.Errorf("Len = %d, want 100", store.Len())
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := store.Get(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if !bytes.Equal(v, valFor(k)) {
			t.Fatalf("key %d value mismatch", k)
		}
	}
	if _, ok := store.Get(9999); ok {
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
	if store.Len() != 1 {
		t.Errorf("Len = %d after overwrite, want 1", store.Len())
	}
	v, _ := store.Get(5)
	if string(v[:6]) != "second" {
		t.Errorf("overwrite lost: %q", v[:6])
	}
}

func TestPutShortValueZeroPadded(t *testing.T) {
	_, _, store, _ := testStore(t, smallOpts())
	_ = store.Put(1, bytes.Repeat([]byte{0xFF}, 64))
	_ = store.Put(1, []byte("x"))
	v, _ := store.Get(1)
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
	if store.Len() != 50 {
		t.Errorf("Len = %d", store.Len())
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
	if kv.CacheLen() != 1 {
		t.Errorf("CacheLen = %d, want 1", kv.CacheLen())
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
	if n := store.Node().Stats().SendsReceived; n != 0 {
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
	if kv.CacheLen() != 100 {
		t.Errorf("CacheLen = %d, want 100", kv.CacheLen())
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
	if n := store.Node().Stats().SendsReceived; n != 5 {
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
	var qps []int32
	for _, sp := range fr.Spans() {
		if sp.Op == trace.OpSend && sp.Initiator == store.Node().Name() && sp.Target == kv.Node().Name() {
			qps = append(qps, sp.QP)
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
	kv, err := Attach(client, nil, store) // nil dispatcher: one-sided only
	if err != nil {
		t.Fatal(err)
	}
	if kv.Node() != client {
		t.Error("Node accessor wrong")
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
	// Send raw garbage under the RPC kind: the store must ignore it.
	client2, _ := f.AddClient("c2")
	qp, _ := f.Connect(client2, store.Node())
	_ = qp.Send(rdma.Message{Kind: "kv.get", Body: "not-a-request"}, 16, nil)
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
