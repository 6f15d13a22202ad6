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
			if err := d.Handle(kindX, func(*Node, Message) { catchall++ }); err != nil {
				t.Fatal(err)
			}
		}
		if !scopedFirst {
			handleAny()
		}
		if err := d.HandleFrom(kindX, s1, func(*Node, Message) { scoped++ }); err != nil {
			t.Fatal(err)
		}
		if scopedFirst {
			handleAny()
		}
		_ = qp1.Send(Message{Kind: kindX, A: 1}, 8, nil) // scoped wins
		_ = qp2.Send(Message{Kind: kindX, A: 2}, 8, nil) // falls through
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
	h := func(*Node, Message) {}
	for _, reg := range []func() error{
		func() error { return d.Handle(kindX, h) },
		func() error { return d.HandleFrom(kindX, s1, h) },
		func() error { return d.HandleFrom(kindX, s2, h) },
		func() error { return d.Handle(kindY, h) },
	} {
		if err := reg(); err != nil {
			t.Fatalf("first registration: %v", err)
		}
		if err := reg(); err == nil {
			t.Error("duplicate registration accepted")
		}
	}
	if err := d.HandleFrom(kindX, nil, h); err == nil {
		t.Error("HandleFrom without a sender accepted")
	}
}

// Kinds for the dispatcher tests, past the protocols' list.
const (
	kindX MsgKind = 100 + iota
	kindY
	kindZ
)

// TestDispatcherFootprint: a fleet has one dispatcher per tenant and routes
// every control message through it, so a steady-state SEND — posted,
// carried through both NICs, routed and handled — allocates nothing, and
// a tenant's table (an engine's three scoped routes) stays a few words.
func TestDispatcherFootprint(t *testing.T) {
	k, d, s1, _, qp1, _ := dispatchBed(t)
	var handled int
	var last Message
	h := func(_ *Node, m Message) { handled++; last = m }
	kinds := []MsgKind{kindX, kindY, kindZ}
	for _, kind := range kinds {
		if err := d.HandleFrom(kind, s1, h); err != nil {
			t.Fatal(err)
		}
	}
	msg := Message{Kind: kindZ, Flag: true, Seq: 7, A: -1, B: 1 << 40}
	send := func() {
		if err := qp1.Send(msg, 24, nil); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	send() // warm-up: the record pool and the kernel's event pool
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 || handled != 102 || last != msg {
		t.Errorf("a posted SEND allocated %v times, handled %d of 102, last %+v, want %+v", allocs, handled, last, msg)
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

// TestDispatcherDropsUnrouted: messages of no kind or an unknown one are
// silently dropped, like a recv completion the application ignores.
func TestDispatcherDropsUnrouted(t *testing.T) {
	k, d, _, _, qp1, _ := dispatchBed(t)
	var handled int
	if err := d.Handle(kindX, func(*Node, Message) { handled++ }); err != nil {
		t.Fatal(err)
	}
	_ = qp1.Send(Message{}, 8, nil)
	_ = qp1.Send(Message{Kind: kindY}, 8, nil)
	_ = qp1.Send(Message{Kind: kindX}, 8, nil)
	k.Run()
	if handled != 1 {
		t.Errorf("handled = %d, want 1", handled)
	}
}
