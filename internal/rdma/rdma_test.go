package rdma

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// testFabric returns a fabric with no jitter and the paper-calibrated
// rates, plus a connected client and server.
func testFabric(t *testing.T) (*sim.Kernel, *Fabric, *Node, *Node) {
	t.Helper()
	k := sim.New(1)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, err := NewFabric(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.AddServer("dn")
	if err != nil {
		t.Fatal(err)
	}
	client, err := f.AddClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	return k, f, client, server
}

func TestConfigValidate(t *testing.T) {
	base := NewDefaultConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero client 1-sided", func(c *Config) { c.ClientOneSidedRate = 0 }},
		{"zero client 2-sided", func(c *Config) { c.ClientTwoSidedRate = 0 }},
		{"zero server 1-sided", func(c *Config) { c.ServerOneSidedRate = 0 }},
		{"zero server 2-sided", func(c *Config) { c.ServerTwoSidedRate = 0 }},
		{"negative prop", func(c *Config) { c.PropagationDelay = -1 }},
		{"jitter 1", func(c *Config) { c.Jitter = 1 }},
		{"negative jitter", func(c *Config) { c.Jitter = -0.1 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := base
			m.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestConfigScaled(t *testing.T) {
	c := NewDefaultConfig().Scaled(10)
	if c.ClientOneSidedRate != 40e3 || c.ServerOneSidedRate != 157e3 {
		t.Errorf("Scaled(10) rates wrong: %+v", c)
	}
	// Ratios preserved.
	d := NewDefaultConfig()
	if c.ServerOneSidedRate/c.ClientOneSidedRate != d.ServerOneSidedRate/d.ClientOneSidedRate {
		t.Error("Scaled changed rate ratio")
	}
	// Non-positive factor is identity.
	e := NewDefaultConfig().Scaled(0)
	if e.ClientOneSidedRate != d.ClientOneSidedRate {
		t.Error("Scaled(0) modified rates")
	}
}

func TestConfigSizeWeight(t *testing.T) {
	if w := sizeWeight(4096); w != 1.0 {
		t.Errorf("sizeWeight(4096) = %v, want 1", w)
	}
	if w := sizeWeight(8); w != MinVerbWeight {
		t.Errorf("sizeWeight(8) = %v, want floor %v", w, MinVerbWeight)
	}
	if w := sizeWeight(8192); w != 2.0 {
		t.Errorf("sizeWeight(8192) = %v, want 2", w)
	}
}

func TestDuplicateNodeAndRegion(t *testing.T) {
	_, f, _, server := testFabric(t)
	if _, err := f.AddClient("c1"); err == nil {
		t.Error("duplicate node name accepted")
	}
	if _, err := server.RegisterRegion("r", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := server.RegisterRegion("r", 64); err == nil {
		t.Error("duplicate region name accepted")
	}
	if _, err := server.RegisterRegion("bad", 0); err == nil {
		t.Error("zero-size region accepted")
	}
}

func TestNodeKindString(t *testing.T) {
	if ClientNode.String() != "client" || ServerNode.String() != "server" {
		t.Error("NodeKind.String wrong")
	}
	if NodeKind(99).String() != "NodeKind(99)" {
		t.Error("unknown NodeKind.String wrong")
	}
}

func TestReadRoundTrip(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, err := server.RegisterRegion("data", 8192)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("haechi-token-qos")
	if err := r.CopyIn(100, want); err != nil {
		t.Fatal(err)
	}
	qp, err := f.Connect(client, server)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var doneAt sim.Time
	err = qp.Read(r, 100, len(want), func(data []byte) {
		got = append([]byte(nil), data...)
		doneAt = k.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if string(got) != string(want) {
		t.Errorf("Read returned %q, want %q", got, want)
	}
	if doneAt <= 0 {
		t.Error("Read completed instantaneously")
	}
}

func TestReadLatencyModel(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("data", DataIOSize)
	qp, _ := f.Connect(client, server)
	var doneAt sim.Time
	if err := qp.Read(r, 0, DataIOSize, func([]byte) { doneAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Expected: client NIC 1/400K = 2.5µs + prop 1µs + server NIC
	// 1/1570K ≈ 0.637µs + prop 1µs ≈ 5.14µs.
	want := sim.Time(2500 + 1000 + 637 + 1000)
	tol := sim.Time(10)
	if doneAt < want-tol || doneAt > want+tol {
		t.Errorf("unloaded Read latency = %v, want ≈%v", doneAt, want)
	}
}

func TestWriteAppliesAtServer(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("data", 64)
	qp, _ := f.Connect(client, server)
	payload := []byte{1, 2, 3, 4}
	if err := qp.Write(r, 8, payload, nil); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99 // caller reuses its buffer: must not affect the write
	k.Run()
	got, _ := copyOut(r, 8, 4)
	if got[0] != 1 || got[3] != 4 {
		t.Errorf("Write result %v, want [1 2 3 4]", got)
	}
}

func TestWriteUint64(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("data", 64)
	qp, _ := f.Connect(client, server)
	done := false
	if err := qp.WriteUint64(r, 16, 0xDEADBEEF12345678, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done {
		t.Error("completion callback not invoked")
	}
	v, err := r.Uint64(16)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF12345678 {
		t.Errorf("Uint64 = %x", v)
	}
}

func TestFetchAddSemantics(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("tokens", 8)
	if err := r.PutUint64(0, 500); err != nil {
		t.Fatal(err)
	}
	qp, _ := f.Connect(client, server)
	var olds []int64
	for i := 0; i < 3; i++ {
		if err := qp.FetchAdd(r, 0, -200, func(old int64) { olds = append(olds, old) }); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	// FAA returns the pre-add value and may drive the cell negative,
	// exactly the semantics Haechi's batched token claim relies on.
	want := []int64{500, 300, 100}
	for i := range want {
		if olds[i] != want[i] {
			t.Errorf("FAA %d returned %d, want %d", i, olds[i], want[i])
		}
	}
	v, _ := r.Uint64(0)
	if int64(v) != -100 {
		t.Errorf("cell after 3 FAA(-200) = %d, want -100", int64(v))
	}
}

func TestLoopbackAtomic(t *testing.T) {
	k, f, _, server := testFabric(t)
	r, _ := server.RegisterRegion("cell", 8)
	_ = r.PutUint64(0, 7)
	qp, err := f.Connect(server, server)
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	var old int64
	_ = qp.FetchAdd(r, 0, 1, func(o int64) { old, at = o, k.Now() })
	k.Run()
	if old != 7 {
		t.Errorf("loopback FAA old = %d, want 7", old)
	}
	// Loopback skips the wire: only one NIC service (0.25 weight).
	if at > 2*sim.Microsecond {
		t.Errorf("loopback atomic took %v, expected sub-2µs", at)
	}
}

func TestVerbValidation(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("data", 64)
	foreign, _ := client.RegisterRegion("local", 64)
	qp, _ := f.Connect(client, server)

	if err := qp.Read(nil, 0, 8, func([]byte) {}); err == nil {
		t.Error("Read of nil region accepted")
	}
	if err := qp.Read(foreign, 0, 8, func([]byte) {}); err == nil {
		t.Error("Read of region not owned by target accepted")
	}
	if err := qp.Read(r, 60, 8, func([]byte) {}); err == nil {
		t.Error("out-of-range Read accepted")
	}
	if err := qp.Write(r, -1, []byte{1}, nil); err == nil {
		t.Error("negative-offset Write accepted")
	}
	if err := qp.FetchAdd(r, 61, 1, nil); err == nil {
		t.Error("out-of-range FetchAdd accepted")
	}
	if err := qp.Send(Message{}, -1, nil); err == nil {
		t.Error("negative-size Send accepted")
	}
	if err := qp.Send(Message{}, 8, nil); err == nil {
		t.Error("Send to node without recv handler accepted")
	}
	// A record keeps a verb's length in 32 bits: a READ that its region
	// could hold but the record could not is refused, not truncated. The
	// region is paged, so its 8 GiB cost a page directory, not memory. An
	// int reaches 4 GiB only on a 64-bit platform.
	if fourGiB := int64(1) << 32; int64(math.MaxInt) >= fourGiB {
		huge, err := server.RegisterPagedRegion("huge", 1<<21, 4096, func(int) uint64 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if err := qp.Read(huge, 0, int(fourGiB), func([]byte) {}); err == nil {
			t.Error("Read of 4 GiB accepted")
		}
		server.SetRecvHandler(func(*Node, Message) {})
		if err := qp.Send(Message{}, int(fourGiB), nil); err == nil {
			t.Error("Send of 4 GiB accepted")
		}
	}
	k.Run()
}

func TestRegionLocalAccessors(t *testing.T) {
	_, _, _, server := testFabric(t)
	r, _ := server.RegisterRegion("data", 32)
	if err := r.PutUint64(0, math.MaxUint64-4); err != nil { // -5 in two's complement
		t.Fatal(err)
	}
	v, err := r.Uint64(0)
	if err != nil || int64(v) != -5 {
		t.Errorf("Uint64 = %d as int64, %v", int64(v), err)
	}
	if _, err := r.Uint64(25); err == nil {
		t.Error("out-of-range Uint64 accepted")
	}
	if err := r.PutUint64(8, 9); err != nil {
		t.Fatal(err)
	}
	u, _ := r.Uint64(8)
	if u != 9 {
		t.Errorf("Uint64 = %d", u)
	}
	if _, err := copyOut(r, 30, 4); err == nil {
		t.Error("out-of-range Window accepted")
	}
	if err := r.CopyIn(30, []byte{1, 2, 3, 4}); err == nil {
		t.Error("out-of-range CopyIn accepted")
	}
	if r.Size() != 32 {
		t.Error("Size wrong")
	}
}

// An offset near math.MaxInt makes off+size wrap negative; the range
// check must reject it as an error, not let it through to a slice panic.
func TestRegionRangeOverflow(t *testing.T) {
	_, _, _, server := testFabric(t)
	r, _ := server.RegisterRegion("data", 32)
	for _, off := range []int{math.MaxInt, math.MaxInt - 7, math.MaxInt - 8, 33} {
		if _, err := r.Uint64(off); err == nil {
			t.Errorf("Uint64 at offset %d accepted", off)
		}
		if err := r.PutUint64(off, 1); err == nil {
			t.Errorf("PutUint64 at offset %d accepted", off)
		}
		if err := r.CopyIn(off, make([]byte, 8)); err == nil {
			t.Errorf("CopyIn at offset %d accepted", off)
		}
		if _, err := r.View(off, 8); err == nil {
			t.Errorf("View at offset %d accepted", off)
		}
	}
	if _, err := copyOut(r, 8, math.MaxInt); err == nil {
		t.Error("Window of MaxInt bytes accepted")
	}
	// The last cell and the empty window at the end stay legal.
	if _, err := r.Uint64(24); err != nil {
		t.Errorf("last cell rejected: %v", err)
	}
	if v, err := r.View(32, 0); err != nil || len(v) != 0 {
		t.Errorf("empty view at the end = %v, %v", v, err)
	}
}

// The owner-side view aliases the region: what the owner stores through it
// is what a one-sided READ returns, a remote WRITE shows through it once
// applied, and it cannot grow into the bytes behind it.
func TestRegionView(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("data", 64)
	for _, w := range [][2]int{{-1, 8}, {0, -1}, {60, 8}, {0, 65}} {
		if _, err := r.View(w[0], w[1]); err == nil {
			t.Errorf("View(%d, %d) accepted", w[0], w[1])
		}
	}
	v, err := r.View(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 16 || cap(v) != 16 {
		t.Fatalf("view len %d cap %d, want 16/16", len(v), cap(v))
	}
	binary.LittleEndian.PutUint64(v, 77)
	if got, _ := r.Uint64(16); got != 77 {
		t.Errorf("store through the view not in the region: cell = %d", got)
	}
	_ = append(v, 0xff) // reallocates: capacity ends with the window
	if got, _ := copyOut(r, 32, 1); got[0] != 0 {
		t.Error("append to a view wrote past its window")
	}

	qp, _ := f.Connect(client, server)
	var read []byte
	if err := qp.Read(r, 16, 8, func(b []byte) { read = append(read, b...) }); err != nil {
		t.Fatal(err)
	}
	if err := qp.WriteUint64(r, 24, 99, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(read) != 8 || binary.LittleEndian.Uint64(read) != 77 {
		t.Errorf("one-sided READ of an owner-stored cell = %v", read)
	}
	if got := binary.LittleEndian.Uint64(v[8:]); got != 99 {
		t.Errorf("remote WRITE not visible through the view: %d", got)
	}
}

func TestSendToServerUsesCPU(t *testing.T) {
	k, f, client, server := testFabric(t)
	var gotFrom *Node
	var gotMsg Message
	server.SetRecvHandler(func(from *Node, m Message) {
		gotFrom, gotMsg = from, m
	})
	qp, _ := f.Connect(client, server)
	delivered := false
	hello := Message{Kind: kindX, A: 42}
	if err := qp.Send(hello, 32, func() { delivered = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if gotFrom != client || gotMsg != hello {
		t.Errorf("recv got (%v, %+v)", gotFrom, gotMsg)
	}
	if !delivered {
		t.Error("Send completion not invoked")
	}
	if server.Stats().SendsReceived != 1 {
		t.Errorf("server SendsReceived = %d", server.Stats().SendsReceived)
	}
	if server.cpu.Served() != 1 {
		t.Errorf("server CPU served %d ops, want 1 (two-sided must hit CPU)", server.cpu.Served())
	}
}

func TestSendToClientSkipsCPU(t *testing.T) {
	k, f, client, server := testFabric(t)
	got := false
	client.SetRecvHandler(func(*Node, Message) { got = true })
	qp, _ := f.Connect(server, client)
	if err := qp.Send(Message{Kind: kindX, A: 100}, 8, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !got {
		t.Error("client did not receive token push")
	}
}

func TestOneSidedSkipsServerCPU(t *testing.T) {
	k, f, client, server := testFabric(t)
	r, _ := server.RegisterRegion("data", DataIOSize)
	qp, _ := f.Connect(client, server)
	for i := 0; i < 10; i++ {
		if err := qp.Read(r, 0, DataIOSize, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if served := server.cpu.Served(); served != 0 {
		t.Errorf("one-sided reads consumed %d CPU services; silence violated", served)
	}
	if server.Stats().OneSidedTargeted != 10 {
		t.Errorf("OneSidedTargeted = %d, want 10", server.Stats().OneSidedTargeted)
	}
}

func TestConnectValidation(t *testing.T) {
	k1 := sim.New(1)
	cfg := NewDefaultConfig()
	f1, _ := NewFabric(k1, cfg)
	f2, _ := NewFabric(sim.New(2), cfg)
	a, _ := f1.AddClient("a")
	b, _ := f2.AddServer("b")
	if _, err := f1.Connect(a, b); err == nil {
		t.Error("cross-fabric Connect accepted")
	}
	if _, err := f1.Connect(nil, a); err == nil {
		t.Error("nil Connect accepted")
	}
	// A station tag holds the QP id above the stage in 31 bits.
	f1.qpSeq = 1<<(31-stageBits) - 2
	if qp, err := f1.Connect(a, a); err != nil || qp.tag(stageSched)>>31 != 0 {
		t.Fatalf("the last QP id that fits a tag: %v", err)
	}
	if _, err := f1.Connect(a, a); err == nil {
		t.Error("Connect past the tag's id space accepted")
	}
}

func TestFabricInvalidConfig(t *testing.T) {
	cfg := NewDefaultConfig()
	cfg.Jitter = 2
	if _, err := NewFabric(sim.New(1), cfg); err == nil {
		t.Error("NewFabric accepted invalid config")
	}
}

// closedLoopThroughput drives n clients, each keeping window one-sided 4 KB
// reads outstanding for dur, and returns total and per-client completions.
func closedLoopThroughput(t *testing.T, n, window int, dur sim.Time, twoSided bool) (total uint64, per []uint64) {
	t.Helper()
	k := sim.New(7)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, err := NewFabric(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, _ := f.AddServer("dn")
	r, _ := server.RegisterRegion("data", DataIOSize)
	server.SetRecvHandler(func(from *Node, m Message) {
		// Two-sided GET: reply with the 4 KB record.
		qp, _ := f.Connect(server, from)
		_ = qp.Send(m, DataIOSize, nil)
	})

	per = make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		c, _ := f.AddClient(nodeName(i))
		qp, _ := f.Connect(c, server)
		var issue func()
		c.SetRecvHandler(func(*Node, Message) { // the reply completes the GET
			per[i]++
			issue()
		})
		issue = func() {
			if twoSided {
				_ = qp.Send(Message{Kind: kindX}, 32, nil)
			} else {
				_ = qp.Read(r, 0, DataIOSize, func([]byte) {
					per[i]++
					issue()
				})
			}
		}
		for w := 0; w < window; w++ {
			issue()
		}
	}
	k.RunUntil(dur)
	for _, p := range per {
		total += p
	}
	return total, per
}

func nodeName(i int) string { return string(rune('a'+i%26)) + "-client" }

// TestSingleClientSaturation reproduces the Fig. 6 calibration point: one
// client with 64 outstanding one-sided reads reaches ~400 KIOPS.
func TestSingleClientSaturation(t *testing.T) {
	total, _ := closedLoopThroughput(t, 1, 64, sim.Second, false)
	if total < 390_000 || total > 410_000 {
		t.Errorf("single-client one-sided throughput = %d, want ≈400K", total)
	}
}

// TestServerSaturation reproduces the Fig. 7 calibration point: ten burst
// clients saturate the server at ~1570 KIOPS, shared ~equally.
func TestServerSaturation(t *testing.T) {
	total, per := closedLoopThroughput(t, 10, 64, sim.Second, false)
	if total < 1_500_000 || total > 1_600_000 {
		t.Errorf("10-client one-sided throughput = %d, want ≈1570K", total)
	}
	for i, p := range per {
		if p < 140_000 || p > 175_000 {
			t.Errorf("client %d got %d I/Os, want ≈157K (fair FIFO share)", i, p)
		}
	}
}

// TestScalingKnee: throughput grows ~linearly to 4 clients, then saturates.
func TestScalingKnee(t *testing.T) {
	t2, _ := closedLoopThroughput(t, 2, 64, sim.Second/2, false)
	t4, _ := closedLoopThroughput(t, 4, 64, sim.Second/2, false)
	t8, _ := closedLoopThroughput(t, 8, 64, sim.Second/2, false)
	if float64(t2)*2 < 1.45e6/2*0.9 {
		// 2 clients * 400K = 800K < C_G: linear region.
		if t2 < uint64(0.95*800_000/2) {
			t.Errorf("2-client throughput %d below linear expectation", t2)
		}
	}
	if float64(t8) > float64(t4)*1.1 {
		t.Errorf("throughput still rising past the knee: 4->%d, 8->%d", t4, t8)
	}
}

// TestTwoSidedSaturation reproduces the two-sided curve of Fig. 7: a
// single client reaches ~320 KIOPS and the server CPU caps the aggregate
// at ~430 KIOPS regardless of client count.
func TestTwoSidedSaturation(t *testing.T) {
	t1, _ := closedLoopThroughput(t, 1, 64, sim.Second/2, true)
	t4, _ := closedLoopThroughput(t, 4, 64, sim.Second/2, true)
	one := float64(t1) * 2
	four := float64(t4) * 2
	if one < 290_000 || one > 345_000 {
		t.Errorf("single-client two-sided throughput = %.0f, want ≈320K", one)
	}
	if four < 400_000 || four > 450_000 {
		t.Errorf("4-client two-sided throughput = %.0f, want ≈430K", four)
	}
}

func TestBackgroundJob(t *testing.T) {
	k := sim.New(3)
	cfg := NewDefaultConfig()
	cfg.Jitter = 0
	f, _ := NewFabric(k, cfg)
	server, _ := f.AddServer("dn")
	if _, err := NewBackgroundJob(f, "j", nil, 64); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewBackgroundJob(f, "j", server, 0); err == nil {
		t.Error("zero window accepted")
	}
	job, err := NewBackgroundJob(f, "j1", server, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Nodes()) != 1 {
		t.Errorf("background initiator leaked into node list: %d nodes", len(f.Nodes()))
	}
	job.Start()
	job.Start() // idempotent
	if !job.running {
		t.Error("job not running after Start")
	}
	k.RunUntil(sim.Second / 2)
	// The target's scheduler counts each background I/O it serves.
	done := f.ExecProfiles()[0].Funcs
	if done < 190_000 || done > 210_000 {
		t.Errorf("background job served %d in 0.5s, want ≈200K (client-NIC capped)", done)
	}
	job.Stop()
	k.RunUntil(sim.Second)
	after := f.ExecProfiles()[0].Funcs
	if after-done > 64 {
		t.Errorf("job served %d I/Os after Stop, want <= window", after-done)
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, FetchAdds: 3, SendsSent: 2, BytesRead: 100}
	b := Stats{Reads: 4, Writes: 1, FetchAdds: 1, SendsSent: 1, BytesRead: 40}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 4 || d.FetchAdds != 2 || d.SendsSent != 1 || d.BytesRead != 60 {
		t.Errorf("Sub = %+v", d)
	}
	if s := a.String(); s == "" {
		t.Error("empty String()")
	}
}
