package rdma

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestFleetHotPathNoAlloc pins the tentpole claim of the fleet-scale
// refactor: with 10^5 clients each running a closed loop of one-sided
// 4 KB READs, the steady-state data path allocates nothing per operation.
// Nodes and queue pairs live in slab chunks, pipeline stages complete
// through tag dispatch instead of per-op closures, and every queue
// involved compacts in place — so after warm-up, Mallocs stays flat while
// hundreds of thousands of READs execute.
func TestFleetHotPathNoAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet no-alloc run is not -short")
	}
	const clients = 100_000
	k := sim.New(1)
	f, err := NewFabric(k, NewDefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.AddServer("datanode")
	if err != nil {
		t.Fatal(err)
	}
	const regionSize = 1 << 20
	region, err := server.RegisterRegion("records", regionSize)
	if err != nil {
		t.Fatal(err)
	}

	var reads uint64
	for i := 0; i < clients; i++ {
		node, err := f.AddClient(fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		qp, err := f.Connect(node, server)
		if err != nil {
			t.Fatal(err)
		}
		off := (i * DataIOSize) % regionSize
		// One bound completion per client, created at setup and reused by
		// every iteration of its closed loop.
		var loop func([]byte)
		loop = func([]byte) {
			reads++
			if err := qp.Read(region, off, DataIOSize, loop); err != nil {
				t.Error(err)
			}
		}
		if err := qp.Read(region, off, DataIOSize, loop); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up: let every FIFO reach its high-water mark and the server
	// scheduler visit every queue at least once (10^5 4 KB READs at the
	// server's ~1.57M ops/sec take ~64 virtual ms per full round).
	k.RunUntil(200 * sim.Millisecond)
	warmReads := reads
	if warmReads == 0 {
		t.Fatal("no reads completed during warm-up")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	k.RunUntil(300 * sim.Millisecond)
	runtime.ReadMemStats(&after)

	window := reads - warmReads
	if window < 50_000 {
		t.Fatalf("measure window completed only %d reads", window)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(window)
	if perOp > 0.01 {
		t.Errorf("steady state allocates %.4f objects/op over %d reads (want 0)", perOp, window)
	}
}

// TestSlabsGrowWithTheFabric: the node and QP slabs open small chunks
// first, so past the first chunk a slab has room for at most twice what
// it holds — a 10-client fabric (11 nodes, 20 QPs: one each way per
// client) for 16 nodes and 32 QPs — and a fleet's chunks
// stop at the per-kind caps. No chunk is ever reallocated: every node and
// QP handed out, on either side of each chunk boundary, is still the
// element of its chunk after 600 more of each.
func TestSlabsGrowWithTheFabric(t *testing.T) {
	f, err := NewFabric(sim.New(1), NewDefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.AddServer("datanode")
	if err != nil {
		t.Fatal(err)
	}
	nodes, qps := []*Node{server}, []*QP(nil)
	for i := 0; i < 600; i++ {
		client, err := f.AddClient(fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Connect(client, server)
		if err != nil {
			t.Fatal(err)
		}
		back, err := f.Connect(server, client)
		if err != nil {
			t.Fatal(err)
		}
		nodes, qps = append(nodes, client), append(qps, out, back)
		nodeCap, qpCap := slabCap(f.nodeChunks), slabCap(f.qpChunks)
		if nodeCap > max(firstChunk, 2*len(nodes)) || qpCap > max(firstChunk, 2*len(qps)) {
			t.Fatalf("%d clients: slabs hold %d nodes in room for %d and %d QPs in room for %d, want at most twice (or the first chunk)",
				i+1, len(nodes), nodeCap, len(qps), qpCap)
		}
		if i+1 == 10 && (nodeCap != 16 || qpCap != 32) {
			t.Errorf("10 clients: room for %d nodes and %d QPs, want 16 and 32", nodeCap, qpCap)
		}
	}
	for _, c := range f.nodeChunks {
		if cap(c) > nodeChunkSize {
			t.Errorf("a node chunk of %d, want at most %d", cap(c), nodeChunkSize)
		}
	}
	for _, c := range f.qpChunks {
		if cap(c) > qpChunkSize {
			t.Errorf("a QP chunk of %d, want at most %d", cap(c), qpChunkSize)
		}
	}
	if i := slabIndex(f.nodeChunks, nodes); i >= 0 {
		t.Fatalf("node %d (%s) is no longer its slab element", i, nodes[i].Name())
	}
	if i := slabIndex(f.qpChunks, qps); i >= 0 {
		t.Fatalf("QP %d is no longer its slab element", i)
	}
	for i, n := range nodes {
		if n.id != i || f.nodes[i] != n {
			t.Fatalf("node %d: id %d, fabric index %p, handed out %p", i, n.id, f.nodes[i], n)
		}
	}
	for i, qp := range qps {
		if qp.id != i+1 || f.qps[i+1] != qp {
			t.Fatalf("QP %d: id %d, fabric index %p, handed out %p", i+1, qp.id, f.qps[i+1], qp)
		}
	}
}

// slabCap is the number of elements a slab has room for.
func slabCap[T any](chunks [][]T) int {
	n := 0
	for _, c := range chunks {
		n += cap(c)
	}
	return n
}

// slabIndex returns the first of the pointers handed out, in creation
// order, that is not the address of the slab element at its position,
// or -1 when all are.
func slabIndex[T any](chunks [][]T, handed []*T) int {
	i := 0
	for _, c := range chunks {
		for j := range c {
			if i >= len(handed) || &c[j] != handed[i] {
				return i
			}
			i++
		}
	}
	if i != len(handed) {
		return i
	}
	return -1
}
