package kvstore

import (
	"bytes"
	"testing"
)

func TestUpdateWarmCache(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	if err := store.Populate(50, valFor); err != nil {
		t.Fatal(err)
	}
	kv.PrimeCache(50)

	var updErr error = nil
	called := false
	if err := kv.Update(7, []byte("updated!"), func(err error) { called, updErr = true, err }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !called || updErr != nil {
		t.Fatalf("update callback: called=%v err=%v", called, updErr)
	}
	v, ok := store.Get(7)
	if !ok || string(v[:8]) != "updated!" {
		t.Errorf("server value = %q", v[:8])
	}
	// Zero-padded tail.
	for i := 8; i < len(v); i++ {
		if v[i] != 0 {
			t.Fatalf("tail byte %d = %x", i, v[i])
		}
	}
	if kv.OneSidedPuts() != 1 {
		t.Errorf("OneSidedPuts = %d", kv.OneSidedPuts())
	}
}

func TestUpdateColdCacheResolves(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(20, valFor)
	var updErr error
	_ = kv.Update(11, []byte("cold"), func(err error) { updErr = err })
	k.Run()
	if updErr != nil {
		t.Fatal(updErr)
	}
	if kv.ProbeReads() == 0 {
		t.Error("cold update did not probe")
	}
	v, _ := store.Get(11)
	if string(v[:4]) != "cold" {
		t.Errorf("value = %q", v[:4])
	}
}

// TestUpdateCapturesValueAtCall: a cold Update probes for the key before
// it writes, but its value is the one passed in, not what the caller has
// put in the same buffer since.
func TestUpdateCapturesValueAtCall(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	if err := store.Populate(20, valFor); err != nil {
		t.Fatal(err)
	}
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	buf := []byte("first!!!")
	if err := kv.Update(1, buf, done); err != nil {
		t.Fatal(err)
	}
	copy(buf, "second!!")
	if err := kv.Update(2, buf, done); err != nil {
		t.Fatal(err)
	}
	k.Run()
	for key, want := range map[uint64]string{1: "first!!!", 2: "second!!"} {
		if v, _ := store.Get(key); string(v[:8]) != want {
			t.Errorf("record %d = %q, want %q", key, v[:8], want)
		}
	}
}

func TestUpdateMissingKey(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(10, valFor)
	var updErr error
	called := false
	_ = kv.Update(999, []byte("x"), func(err error) { called, updErr = true, err })
	k.Run()
	if !called || updErr != ErrNotFound {
		t.Errorf("missing-key update: called=%v err=%v", called, updErr)
	}
}

func TestUpdateValidation(t *testing.T) {
	_, _, _, kv := testStore(t, smallOpts())
	if err := kv.Update(1, nil, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if err := kv.Update(1, make([]byte, 65), func(error) {}); err == nil {
		t.Error("oversize value accepted")
	}
}

// TestUpdateIsSilent: one-sided updates never touch the server CPU.
func TestUpdateIsSilent(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(10, valFor)
	kv.PrimeCache(10)
	for i := uint64(0); i < 10; i++ {
		_ = kv.Update(i, []byte{byte(i)}, func(error) {})
	}
	k.Run()
	if n := store.Node().Stats().SendsReceived; n != 0 {
		t.Errorf("one-sided updates generated %d server messages", n)
	}
}

// TestUpdateThenGet round trip through both one-sided paths.
func TestUpdateThenGet(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	_ = store.Populate(10, valFor)
	kv.PrimeCache(10)
	want := []byte("round-trip-value")
	_ = kv.Update(3, want, func(error) {})
	var got []byte
	_ = kv.Get(3, func(v []byte, err error) { got = append([]byte(nil), v[:len(want)]...) })
	k.Run()
	if !bytes.Equal(got, want) {
		t.Errorf("got %q want %q", got, want)
	}
}

// A short value is zero-padded in the client's one pad buffer (QP.Write
// captures it before returning): a warm Update of any length allocates
// nothing in steady state, and a short value after a long one still reads
// back with a zero tail.
func TestUpdateShortValueNoAlloc(t *testing.T) {
	k, _, store, kv := testStore(t, smallOpts())
	if err := store.Populate(50, valFor); err != nil {
		t.Fatal(err)
	}
	kv.PrimeCache(50)
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	values := [][]byte{bytes.Repeat([]byte{0xff}, 40), []byte("short")}
	i := 0
	one := func() {
		if err := kv.Update(7, values[i%2], done); err != nil {
			t.Fatal(err)
		}
		i++
		k.Run()
	}
	one() // first use: the pad buffer, the pooled verb record and its payload
	one()
	if allocs := testing.AllocsPerRun(100, one); allocs != 0 {
		t.Errorf("a short-value Update allocates %v objects in steady state", allocs)
	}
	if i%2 == 1 {
		one() // end on the short value
	}
	want := append([]byte("short"), make([]byte, 64-5)...)
	if v, ok := store.Get(7); !ok || !bytes.Equal(v, want) {
		t.Errorf("record after a 40-byte then a 5-byte Update = %x", v)
	}
}
