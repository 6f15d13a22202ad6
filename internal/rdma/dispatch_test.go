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
