package rdma

import (
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// dispatchBed builds a client-bound dispatcher plus two servers with
// connected QPs, the multi-server client shape the scoped routes serve.
func dispatchBed(t *testing.T) (*sim.Kernel, *Dispatcher, *Node, *Node, *QP, *QP) {
	t.Helper()
	k := sim.New(7)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, err := NewFabric(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := f.AddServer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.AddServer("s2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.AddClient("c")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(c)
	qp1, err := f.Connect(s1, c)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := f.Connect(s2, c)
	if err != nil {
		t.Fatal(err)
	}
	return k, d, s1, s2, qp1, qp2
}

// TestDispatcherScopedPrecedence: a sender-scoped handler wins over the
// catch-all for the same kind, whichever was registered first; unscoped
// senders fall through to it.
func TestDispatcherScopedPrecedence(t *testing.T) {
	for _, scopedFirst := range []bool{true, false} {
		k, d, s1, _, qp1, qp2 := dispatchBed(t)
		var scoped, catchall int
		handleAny := func() {
			if err := d.Handle("x", func(*Node, any) { catchall++ }); err != nil {
				t.Fatal(err)
			}
		}
		if !scopedFirst {
			handleAny()
		}
		if err := d.HandleFrom("x", s1, func(*Node, any) { scoped++ }); err != nil {
			t.Fatal(err)
		}
		if scopedFirst {
			handleAny()
		}
		_ = qp1.Send(Message{Kind: "x", Body: 1}, 8, nil) // scoped wins
		_ = qp2.Send(Message{Kind: "x", Body: 2}, 8, nil) // falls through
		k.Run()
		if scoped != 1 || catchall != 1 {
			t.Errorf("scoped registered first = %v: scoped/catchall = %d/%d, want 1/1", scopedFirst, scoped, catchall)
		}
	}
}

// TestDispatcherDuplicates: a (kind, sender) pair registers once; the same
// kind may have a catch-all and one route per sender side by side.
func TestDispatcherDuplicates(t *testing.T) {
	_, d, s1, s2, _, _ := dispatchBed(t)
	h := func(*Node, any) {}
	for _, reg := range []func() error{
		func() error { return d.Handle("x", h) },
		func() error { return d.HandleFrom("x", s1, h) },
		func() error { return d.HandleFrom("x", s2, h) },
		func() error { return d.Handle("y", h) },
	} {
		if err := reg(); err != nil {
			t.Fatalf("first registration: %v", err)
		}
		if err := reg(); err == nil {
			t.Error("duplicate registration accepted")
		}
	}
	if err := d.HandleFrom("x", nil, h); err == nil {
		t.Error("HandleFrom without a sender accepted")
	}
	if d.UnhandleFrom("x", nil) {
		t.Error("UnhandleFrom without a sender removed the catch-all")
	}
}

// TestDispatcherHandlerRemovesItself: a handler may unregister itself (and
// others) while it runs; the message in hand is still delivered to it once,
// later ones follow the routes it left.
func TestDispatcherHandlerRemovesItself(t *testing.T) {
	k, d, s1, _, qp1, _ := dispatchBed(t)
	var scoped, catchall int
	if err := d.Handle("pad", func(*Node, any) {}); err != nil {
		t.Fatal(err)
	}
	err := d.HandleFrom("x", s1, func(*Node, any) {
		scoped++
		if !d.UnhandleFrom("x", s1) || !d.Unhandle("pad") {
			t.Error("handler could not remove routes from inside dispatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Handle("x", func(*Node, any) { catchall++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = qp1.Send(Message{Kind: "x"}, 8, nil)
	}
	k.Run()
	if scoped != 1 || catchall != 2 {
		t.Errorf("scoped/catchall = %d/%d, want 1/2", scoped, catchall)
	}
}

// TestDispatcherFootprint: a fleet has one dispatcher per tenant and routes
// every control message through it, so routing allocates nothing and a
// tenant's table (an engine's three scoped routes) stays a few words.
func TestDispatcherFootprint(t *testing.T) {
	_, d, s1, _, _, _ := dispatchBed(t)
	var handled int
	h := func(*Node, any) { handled++ }
	kinds := []string{"period-start", "report-on", "alert"}
	for _, kind := range kinds {
		if err := d.HandleFrom(kind, s1, h); err != nil {
			t.Fatal(err)
		}
	}
	var payload any = Message{Kind: "alert"}
	if allocs := testing.AllocsPerRun(100, func() { d.dispatch(s1, payload) }); allocs != 0 || handled != 101 {
		t.Errorf("dispatch allocated %v times per message, handled %d of 101", allocs, handled)
	}

	const n = 4096
	keep := make([]*Dispatcher, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewDispatcher(d.node)
		for _, kind := range kinds {
			if err := keep[i].HandleFrom(kind, s1, h); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := float64(after.HeapAlloc-before.HeapAlloc) / n; per > 320 {
		t.Errorf("a 3-handler dispatcher holds %.0f B, want <= 320", per)
	}
	runtime.KeepAlive(keep)
}

// TestDispatcherUnhandle covers catch-all unregistration: delivery
// stops, repeat removal reports false, and the kind can be re-bound.
func TestDispatcherUnhandle(t *testing.T) {
	k, d, _, _, qp1, _ := dispatchBed(t)
	var first, second int
	if err := d.Handle("x", func(*Node, any) { first++ }); err != nil {
		t.Fatal(err)
	}
	_ = qp1.Send(Message{Kind: "x"}, 8, nil)
	k.Run()

	if !d.Unhandle("x") {
		t.Error("Unhandle of a registered kind reported false")
	}
	if d.Unhandle("x") {
		t.Error("repeat Unhandle reported true")
	}
	if d.Unhandle("never-bound") {
		t.Error("Unhandle of an unknown kind reported true")
	}
	_ = qp1.Send(Message{Kind: "x"}, 8, nil) // now unrouted: dropped
	k.Run()

	if err := d.Handle("x", func(*Node, any) { second++ }); err != nil {
		t.Fatalf("re-register after Unhandle: %v", err)
	}
	_ = qp1.Send(Message{Kind: "x"}, 8, nil)
	k.Run()
	if first != 1 || second != 1 {
		t.Errorf("first/second handler counts = %d/%d, want 1/1", first, second)
	}
}

// TestDispatcherUnhandleFrom covers scoped unregistration: only the
// removed sender's route disappears, removal is idempotent, and the
// (kind, sender) slot can be re-bound.
func TestDispatcherUnhandleFrom(t *testing.T) {
	k, d, s1, s2, qp1, qp2 := dispatchBed(t)
	var from1, from2, rebound int
	if err := d.HandleFrom("x", s1, func(*Node, any) { from1++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.HandleFrom("x", s2, func(*Node, any) { from2++ }); err != nil {
		t.Fatal(err)
	}

	if !d.UnhandleFrom("x", s1) {
		t.Error("UnhandleFrom of a registered route reported false")
	}
	if d.UnhandleFrom("x", s1) {
		t.Error("repeat UnhandleFrom reported true")
	}
	if d.UnhandleFrom("never-bound", s1) {
		t.Error("UnhandleFrom of an unknown kind reported true")
	}
	_ = qp1.Send(Message{Kind: "x"}, 8, nil) // s1 route removed: dropped
	_ = qp2.Send(Message{Kind: "x"}, 8, nil) // s2 route intact
	k.Run()
	if from1 != 0 || from2 != 1 {
		t.Errorf("from1/from2 = %d/%d, want 0/1", from1, from2)
	}

	if err := d.HandleFrom("x", s1, func(*Node, any) { rebound++ }); err != nil {
		t.Fatalf("re-register after UnhandleFrom: %v", err)
	}
	// Removing the last scoped route for a kind clears the kind entry.
	if !d.UnhandleFrom("x", s2) {
		t.Error("UnhandleFrom of the second route reported false")
	}
	_ = qp1.Send(Message{Kind: "x"}, 8, nil)
	k.Run()
	if rebound != 1 {
		t.Errorf("rebound handler count = %d, want 1", rebound)
	}
}

// TestDispatcherDropsUnrouted: non-Message payloads and unknown kinds
// are silently dropped, like a recv completion the application ignores.
func TestDispatcherDropsUnrouted(t *testing.T) {
	k, d, _, _, qp1, _ := dispatchBed(t)
	var handled int
	if err := d.Handle("known", func(*Node, any) { handled++ }); err != nil {
		t.Fatal(err)
	}
	_ = qp1.Send("bare string payload", 8, nil)
	_ = qp1.Send(Message{Kind: "unknown"}, 8, nil)
	_ = qp1.Send(Message{Kind: "known"}, 8, nil)
	k.Run()
	if handled != 1 {
		t.Errorf("handled = %d, want 1", handled)
	}
}
