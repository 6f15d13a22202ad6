package rdma

import (
	"math/rand"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestRoundRobinFairness: initiators with always-full pipelines share the
// target equally regardless of how unequal their posted backlogs are.
func TestRoundRobinFairness(t *testing.T) {
	k := sim.New(2)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, _ := NewFabric(k, cfg)
	server, _ := f.AddServer("dn")
	r, _ := server.RegisterRegion("data", DataIOSize)

	counts := make([]uint64, 4)
	for i := 0; i < 4; i++ {
		i := i
		c, _ := f.AddClient(nodeName(i))
		qp, _ := f.Connect(c, server)
		// Client i posts i+1 times more work per completion, but keeps a
		// closed loop so its pipeline is always busy.
		var issue func()
		issue = func() {
			_ = qp.Read(r, 0, DataIOSize, func([]byte) {
				counts[i]++
				issue()
			})
		}
		for w := 0; w < 16*(i+1); w++ {
			issue()
		}
	}
	k.RunUntil(sim.Second / 2)
	for i := 1; i < 4; i++ {
		ratio := float64(counts[i]) / float64(counts[0])
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("client %d got %.2fx of client 0's service (%v); RR should equalize", i, ratio, counts)
		}
	}
}

// TestFlowControlBoundsServerQueue: the per-QP credit window caps how much
// of one initiator's work can sit past its NIC at once, so the server-side
// backlog stays shallow even when the initiator posts a deep burst.
func TestFlowControlBoundsServerQueue(t *testing.T) {
	k := sim.New(3)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	cfg.FlowControlWindow = 8
	f, _ := NewFabric(k, cfg)
	server, _ := f.AddServer("dn")
	r, _ := server.RegisterRegion("data", DataIOSize)
	c, _ := f.AddClient("c")
	qp, _ := f.Connect(c, server)

	for i := 0; i < 1000; i++ {
		if err := qp.Read(r, 0, DataIOSize, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Step through the simulation and watch the QP's in-flight counter.
	for k.Step() {
		if qp.inFlight > 8 {
			t.Fatalf("inFlight = %d exceeds window 8 at %v", qp.inFlight, k.Now())
		}
	}
	if qp.inFlight != 0 {
		t.Errorf("inFlight = %d after drain", qp.inFlight)
	}
	if qp.waiting.size() != 0 {
		t.Errorf("waiting = %d after drain", qp.waiting.size())
	}
}

// TestFlowControlDisabled: window 0 admits everything immediately.
func TestFlowControlDisabled(t *testing.T) {
	k := sim.New(3)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	cfg.FlowControlWindow = 0
	f, _ := NewFabric(k, cfg)
	server, _ := f.AddServer("dn")
	r, _ := server.RegisterRegion("data", DataIOSize)
	c, _ := f.AddClient("c")
	qp, _ := f.Connect(c, server)
	done := 0
	for i := 0; i < 100; i++ {
		_ = qp.Read(r, 0, DataIOSize, func([]byte) { done++ })
	}
	k.Run()
	if done != 100 {
		t.Errorf("completed %d of 100 with flow control off", done)
	}
}

// TestControlBypassesDataBacklog: an atomic issued behind a deep data
// backlog completes in microseconds (priority path), not after the
// backlog drains.
func TestControlBypassesDataBacklog(t *testing.T) {
	k := sim.New(4)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, _ := NewFabric(k, cfg)
	server, _ := f.AddServer("dn")
	data, _ := server.RegisterRegion("data", DataIOSize)
	cell, _ := server.RegisterRegion("cell", 8)
	c, _ := f.AddClient("c")
	qp, _ := f.Connect(c, server)
	for i := 0; i < 500; i++ {
		_ = qp.Read(data, 0, DataIOSize, func([]byte) {})
	}
	var atomicDone sim.Time
	_ = qp.FetchAdd(cell, 0, 1, func(int64) { atomicDone = k.Now() })
	k.Run()
	// 500 reads take ~1.25ms at the client NIC alone; the atomic must not
	// wait for them.
	if atomicDone > 200*sim.Microsecond {
		t.Errorf("atomic completed at %v; control path not prioritized", atomicDone)
	}
}

// size counts the records queued in q by walking its links.
func (q *opFIFO) size() int {
	n := 0
	for op := q.head; op != nil; op = op.next {
		n++
	}
	return n
}

// TestStageQueueMatchesSliceFIFO moves records at random between several
// linked queues — a verb's life: one stage queue after another, never two
// at once — and holds each against a slice FIFO: same order, same
// emptiness, same length, and every popped record leaves with its link
// cleared.
func TestStageQueueMatchesSliceFIFO(t *testing.T) {
	const queues, records, steps = 5, 64, 20_000
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var qs [queues]opFIFO
		var ref [queues][]*flowOp
		// Records outside every queue, as the pool or a wire hop holds them.
		idle := make([]*flowOp, records)
		for i := range idle {
			idle[i] = &flowOp{off: i}
		}
		check := func(step int) {
			for i := range qs {
				if qs[i].empty() != (len(ref[i]) == 0) {
					t.Fatalf("seed %d step %d: queue %d empty=%v with %d records in the reference",
						seed, step, i, qs[i].empty(), len(ref[i]))
				}
				if got := qs[i].size(); got != len(ref[i]) {
					t.Fatalf("seed %d step %d: queue %d links %d records, reference holds %d",
						seed, step, i, got, len(ref[i]))
				}
			}
		}
		for step := 0; step < steps; step++ {
			from := rng.Intn(queues + 1) // queues = take an idle record
			var op *flowOp
			switch {
			case from == queues && len(idle) > 0:
				op, idle = idle[len(idle)-1], idle[:len(idle)-1]
			case from < queues && !qs[from].empty():
				op = qs[from].pop()
				if want := ref[from][0]; op != want {
					t.Fatalf("seed %d step %d: queue %d popped record %d, reference %d",
						seed, step, from, op.off, want.off)
				}
				ref[from] = ref[from][1:]
			default:
				continue
			}
			if op.next != nil {
				t.Fatalf("seed %d step %d: record %d outside a queue still links to record %d",
					seed, step, op.off, op.next.off)
			}
			if to := rng.Intn(queues + 1); to == queues {
				idle = append(idle, op)
			} else {
				qs[to].push(op)
				ref[to] = append(ref[to], op)
			}
			check(step)
		}
		// Drain: a queue emptied and refilled must still be FIFO.
		for i := range qs {
			for _, want := range ref[i] {
				if op := qs[i].pop(); op != want || op.next != nil {
					t.Fatalf("seed %d drain: queue %d popped record %d (linked: %v), reference %d",
						seed, i, op.off, op.next != nil, want.off)
				}
			}
			ref[i] = nil
		}
		check(steps)
	}
}

// TestDispatcherHandleFrom covers sender-scoped routing.
func TestDispatcherHandleFrom(t *testing.T) {
	k := sim.New(5)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, _ := NewFabric(k, cfg)
	s1, _ := f.AddServer("s1")
	s2, _ := f.AddServer("s2")
	c, _ := f.AddClient("c")
	d := NewDispatcher(c)

	var from1, from2, catchall int
	if err := d.HandleFrom(kindX, s1, func(*Node, Message) { from1++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.HandleFrom(kindX, s2, func(*Node, Message) { from2++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.HandleFrom(kindX, s1, func(*Node, Message) {}); err == nil {
		t.Error("duplicate scoped handler accepted")
	}
	if err := d.HandleFrom(kindX, nil, func(*Node, Message) {}); err == nil {
		t.Error("nil sender accepted")
	}
	if err := d.Handle(kindY, func(*Node, Message) { catchall++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.Handle(kindY, func(*Node, Message) {}); err == nil {
		t.Error("duplicate catch-all accepted")
	}

	qp1, _ := f.Connect(s1, c)
	qp2, _ := f.Connect(s2, c)
	_ = qp1.Send(Message{Kind: kindX, A: 1}, 8, nil)
	_ = qp2.Send(Message{Kind: kindX, A: 2}, 8, nil)
	_ = qp1.Send(Message{Kind: kindY, A: 3}, 8, nil)
	_ = qp1.Send(Message{}, 8, nil) // no kind: dropped
	_ = qp1.Send(Message{Kind: kindZ, A: 4}, 8, nil)
	k.Run()
	if from1 != 1 || from2 != 1 || catchall != 1 {
		t.Errorf("routing counts = %d/%d/%d, want 1/1/1", from1, from2, catchall)
	}
}
