package bench

// The cost ladder: one saturating closed loop (10 clients x window 64,
// zipfian keys over 4096 records) run on progressively taller stacks
// built only from exported constructors. Each rung reports the whole
// stack's host nanoseconds per completed I/O; a module's self time is
// its rung minus the rung below.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/workload"
)

// rungOrder is the ladder bottom to top. The first three rungs are
// driven by the harness's own closed loop; the rest by cluster.New.
var rungOrder = append([]string{"sim", "rdma", "kvstore"}, ClusterRungs...)

// rungRun is one timed drive of one rung.
type rungRun struct {
	ios    uint64
	events uint64
	wallS  float64
}

func (r rungRun) nsPerIO() float64 { return r.wallS * 1e9 / float64(r.ios) }

// closedLoop keeps window I/Os outstanding per client until target have
// been issued. Keys come from the generator's own chooser so every
// harness-driven rung pays the same key-draw cost.
type closedLoop struct {
	target, issued, done uint64
	keys                 workload.KeyChooser
	rngs                 []*rand.Rand
	issue                func(client int, key uint64)
}

func newClosedLoop(seed int64, target uint64) (*closedLoop, error) {
	keys, err := workload.NewScrambledZipfian(ladderRecords)
	if err != nil {
		return nil, err
	}
	l := &closedLoop{target: target, keys: keys, rngs: make([]*rand.Rand, ladderClients)}
	for c := range l.rngs {
		l.rngs[c] = rand.New(rand.NewSource(seed + int64(c)*7919))
	}
	return l, nil
}

func (l *closedLoop) next(c int) {
	if l.issued >= l.target {
		return
	}
	l.issued++
	l.issue(c, l.keys.Next(l.rngs[c]))
}

func (l *closedLoop) complete(c int) {
	l.done++
	l.next(c)
}

// drive fills every client's window, runs the kernel dry and times it.
func (l *closedLoop) drive(tr *tracer, parent int, k *sim.Kernel) (rungRun, error) {
	runtime.GC()
	sp := tr.begin("drive", parent)
	t0 := time.Now()
	for c := 0; c < ladderClients; c++ {
		for w := 0; w < ladderWindow; w++ {
			l.next(c)
		}
	}
	k.Run()
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	if l.done != l.target {
		return rungRun{}, fmt.Errorf("closed loop completed %d of %d I/Os", l.done, l.target)
	}
	return rungRun{ios: l.done, events: k.Executed(), wallS: wall}, nil
}

// skeleton is the per-I/O job and event shape of a one-sided READ as the
// rdma rung's ExecProfile reports it: station jobs at the initiator and
// target NICs and wire hops out and back.
type skeleton struct {
	initJobs, hopsOut, targetJobs, hopsBack int
}

func skeletonFrom(p rdma.ExecProfile) (skeleton, error) {
	if p.Reads == 0 {
		return skeleton{}, fmt.Errorf("rdma rung executed no READs")
	}
	per := func(c uint64) int { return int(math.Round(float64(c) / float64(p.Reads))) }
	sk := skeleton{
		initJobs:   per(p.InitNICDone),
		hopsOut:    per(p.WireArrivals),
		targetJobs: per(p.SchedDispatches),
		hopsBack:   per(p.Deliveries),
	}
	if sk.initJobs+sk.hopsOut+sk.targetJobs+sk.hopsBack == 0 {
		return sk, fmt.Errorf("rdma rung's ExecProfile reports no pipeline stages")
	}
	return sk, nil
}

const (
	stClientNIC = iota
	stServerNIC
	stWire
)

// simRung replays sk on a bare kernel and stations: no rdma code.
func simRung(tr *tracer, parent int, seed int64, ios uint64, scale float64, sk skeleton) (rungRun, error) {
	sp := tr.begin("build", parent)
	cfg := rdma.NewDefaultConfig().Scaled(scale)
	k := sim.New(seed)
	var stages []int
	for _, part := range []struct{ n, kind int }{
		{sk.initJobs, stClientNIC}, {sk.hopsOut, stWire}, {sk.targetJobs, stServerNIC}, {sk.hopsBack, stWire},
	} {
		for i := 0; i < part.n; i++ {
			stages = append(stages, part.kind)
		}
	}
	l, err := newClosedLoop(seed, ios)
	if err != nil {
		return rungRun{}, err
	}
	server, err := sim.NewStation(k, "datanode/nic", cfg.ServerOneSidedRate, cfg.Jitter)
	if err != nil {
		return rungRun{}, err
	}
	clients := make([]*sim.Station, ladderClients)
	wires := make([][]func(), ladderClients)
	var advance func(c, idx int)
	advance = func(c, idx int) {
		if idx == len(stages) {
			l.complete(c)
			return
		}
		tag := uint32(c)<<8 | uint32(idx)
		switch stages[idx] {
		case stClientNIC:
			clients[c].SubmitTagged(1, tag)
		case stServerNIC:
			server.SubmitTagged(1, tag)
		case stWire:
			k.Schedule(cfg.PropagationDelay, wires[c][idx])
		}
	}
	dispatch := func(tag uint32) { advance(int(tag>>8), int(tag&0xff)+1) }
	server.SetDispatch(dispatch)
	for c := range clients {
		clients[c], err = sim.NewStation(k, fmt.Sprintf("client-%02d/nic", c), cfg.ClientOneSidedRate, cfg.Jitter)
		if err != nil {
			return rungRun{}, err
		}
		clients[c].SetDispatch(dispatch)
		wires[c] = make([]func(), len(stages))
		for idx := range stages {
			c, idx := c, idx
			wires[c][idx] = func() { advance(c, idx+1) }
		}
	}
	l.issue = func(c int, _ uint64) { advance(c, 0) }
	tr.end(sp)
	return l.drive(tr, parent, k)
}

// ladderFabric is the bare fabric the rdma and kvstore rungs share: one
// data node and the ladder's client nodes.
func ladderFabric(seed int64, scale float64) (*sim.Kernel, *rdma.Fabric, *rdma.Node, []*rdma.Node, error) {
	k := sim.New(seed)
	f, err := rdma.NewFabric(k, rdma.NewDefaultConfig().Scaled(scale))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	server, err := f.AddServer("datanode")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	nodes := make([]*rdma.Node, ladderClients)
	for c := range nodes {
		if nodes[c], err = f.AddClient(fmt.Sprintf("client-%02d", c)); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return k, f, server, nodes, nil
}

// rdmaRung issues 4 KB one-sided READs straight on queue pairs.
func rdmaRung(tr *tracer, parent int, seed int64, ios uint64, scale float64) (rungRun, rdma.ExecProfile, error) {
	var prof rdma.ExecProfile
	sp := tr.begin("build", parent)
	k, f, server, nodes, err := ladderFabric(seed, scale)
	if err != nil {
		return rungRun{}, prof, err
	}
	region, err := server.RegisterRegion("ladder-data", ladderRecords*rdma.DataIOSize)
	if err != nil {
		return rungRun{}, prof, err
	}
	l, err := newClosedLoop(seed, ios)
	if err != nil {
		return rungRun{}, prof, err
	}
	qps := make([]*rdma.QP, ladderClients)
	done := make([]func([]byte), ladderClients)
	for c, node := range nodes {
		if qps[c], err = f.Connect(node, server); err != nil {
			return rungRun{}, prof, err
		}
		c := c
		done[c] = func([]byte) { l.complete(c) }
	}
	var issueErr error
	l.issue = func(c int, key uint64) {
		if err := qps[c].Read(region, int(key)*rdma.DataIOSize, rdma.DataIOSize, done[c]); err != nil && issueErr == nil {
			issueErr = err
		}
	}
	tr.end(sp)
	run, err := l.drive(tr, parent, k)
	if err == nil {
		err = issueErr
	}
	for _, p := range f.ExecProfiles() {
		p := p
		prof.Add(&p)
	}
	return run, prof, err
}

// ladderValue is the populate function of the kvstore rung; GETs are
// verified against it.
func ladderValue(key uint64) []byte {
	v := make([]byte, rdma.DataIOSize)
	binary.LittleEndian.PutUint64(v, key)
	return v
}

// kvstoreRung issues Client.Get (or Client.Update) through attached,
// primed store clients and checks every returned value.
func kvstoreRung(tr *tracer, parent int, seed int64, ios uint64, scale float64, update bool) (rungRun, error) {
	sp := tr.begin("build", parent)
	k, _, server, nodes, err := ladderFabric(seed, scale)
	if err != nil {
		return rungRun{}, err
	}
	store, err := kvstore.NewStore(server, rdma.NewDispatcher(server), kvstore.Options{Capacity: ladderRecords, RecordSize: rdma.DataIOSize})
	if err != nil {
		return rungRun{}, err
	}
	if err := store.Populate(ladderRecords, ladderValue); err != nil {
		return rungRun{}, err
	}
	l, err := newClosedLoop(seed, ios)
	if err != nil {
		return rungRun{}, err
	}
	kvs := make([]*kvstore.Client, ladderClients)
	onGet := make([]func([]byte, error), ladderClients)
	onPut := make([]func(error), ladderClients)
	// A client's completions arrive in issue order (one QP, one class),
	// so the key each value must match is the head of a per-client ring.
	pending := make([][ladderWindow]uint64, ladderClients)
	head := make([]uint64, ladderClients)
	tail := make([]uint64, ladderClients)
	var bad uint64
	for c, node := range nodes {
		if kvs[c], err = kvstore.Attach(node, rdma.NewDispatcher(node), store); err != nil {
			return rungRun{}, err
		}
		kvs[c].PrimeCache(ladderRecords)
		c := c
		onGet[c] = func(v []byte, err error) {
			want := pending[c][head[c]%ladderWindow]
			head[c]++
			if err != nil || len(v) != rdma.DataIOSize || binary.LittleEndian.Uint64(v) != want {
				bad++
			}
			l.complete(c)
		}
		onPut[c] = func(err error) {
			if err != nil {
				bad++
			}
			l.complete(c)
		}
	}
	value := make([]byte, rdma.DataIOSize)
	var issueErr error
	l.issue = func(c int, key uint64) {
		var err error
		if update {
			// Keep the record's key prefix so later GETs still verify.
			binary.LittleEndian.PutUint64(value, key)
			err = kvs[c].Update(key, value, onPut[c])
		} else {
			pending[c][tail[c]%ladderWindow] = key
			tail[c]++
			err = kvs[c].Get(key, onGet[c])
		}
		if err != nil && issueErr == nil {
			issueErr = err
		}
	}
	tr.end(sp)
	run, err := l.drive(tr, parent, k)
	switch {
	case err != nil:
		return run, err
	case issueErr != nil:
		return run, issueErr
	case bad != 0:
		return run, fmt.Errorf("kvstore rung: %d of %d I/Os failed or returned the wrong value", bad, run.ios)
	}
	return run, nil
}

// clusterRun builds and drives one plan through cluster.New/Run and
// counts every I/O its generators completed (warm-up included: the
// wall time covers the whole run).
func clusterRun(tr *tracer, parent int, plan Plan) (rungRun, error) {
	sp := tr.begin("build", parent)
	cl, err := cluster.New(plan.Config, plan.Specs)
	tr.end(sp)
	if err != nil {
		return rungRun{}, err
	}
	runtime.GC()
	sp = tr.begin("drive", parent)
	t0 := time.Now()
	res, err := cl.Run(plan.Warmup, plan.Measure)
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return rungRun{}, err
	}
	run := rungRun{events: res.EventsExecuted, wallS: wall}
	for _, c := range cl.Clients() {
		run.ios += c.Gen.Completed()
	}
	return run, nil
}

// runLadder measures every rung reps times, interleaved so a slow
// phase of the machine hits all rungs alike, and reports medians.
func runLadder(tr *tracer, parent int, seed int64, quick bool, reps int) (Metrics, error) {
	scale := ladderScale(quick)
	ios := ladderIOs(quick)
	root := tr.begin("ladder", parent)
	defer tr.end(root)

	// Untimed pass over the rdma rung: warms the process and yields the
	// ExecProfile the sim rung replays.
	sp := tr.begin("rdma (profile)", root)
	_, prof, err := rdmaRung(tr, sp, seed, ios, scale)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("ladder: rdma: %w", err)
	}
	sk, err := skeletonFrom(prof)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	nsPerIO := make(map[string][]float64, len(rungOrder))
	var updateNs, overhead []float64
	for rep := 0; rep < reps; rep++ {
		perEvent := make(map[string]float64, len(rungOrder))
		for _, rung := range rungOrder {
			sp := tr.begin(rung, root)
			var run rungRun
			switch rung {
			case "sim":
				run, err = simRung(tr, sp, seed, ios, scale, sk)
			case "rdma":
				run, _, err = rdmaRung(tr, sp, seed, ios, scale)
			case "kvstore":
				run, err = kvstoreRung(tr, sp, seed, ios, scale, false)
			default:
				var plan Plan
				if plan, err = LadderPlan(rung, seed, quick); err == nil {
					run, err = clusterRun(tr, sp, plan)
				}
			}
			tr.end(sp)
			if err == nil && run.ios == 0 {
				err = fmt.Errorf("completed no I/O")
			}
			if err != nil {
				return nil, fmt.Errorf("ladder: %s: %w", rung, err)
			}
			nsPerIO[rung] = append(nsPerIO[rung], run.nsPerIO())
			perEvent[rung] = run.wallS / float64(run.events)
		}
		sp := tr.begin("kvstore (update)", root)
		run, err := kvstoreRung(tr, sp, seed, ios, scale, true)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("ladder: kvstore update: %w", err)
		}
		updateNs = append(updateNs, run.nsPerIO())
		// Observed over blind events per second: the quantity CI gates
		// as observe_overhead (blind = the core rung; observed adds the
		// sanitizer, spans and metrics sampling).
		overhead = append(overhead, perEvent["core"]/perEvent["observe"])
	}

	var m Metrics
	below := 0.0
	for _, rung := range rungOrder {
		ns := Median(nsPerIO[rung])
		m.add(rung+".rung_ns_per_io", "ns/io", Host, ns)
		m.add(rung+".self_ns_per_io", "ns/io", Host, ns-below)
		below = ns
	}
	m.add("kvstore.update_rung_ns_per_io", "ns/io", Host, Median(updateNs))
	m.add("observe.overhead_ratio", "ratio", Host, Median(overhead))

	// One fleet rung pair: what core costs per tenant-period when the
	// per-client working set no longer fits the caches.
	var walls [2]float64
	var tenants, periods int
	for i, mode := range []cluster.Mode{cluster.Bare, cluster.Haechi} {
		plan := FleetRungPlan(mode, seed, quick)
		sp := tr.begin("fleet "+mode.String(), root)
		run, err := clusterRun(tr, sp, plan)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("ladder: fleet %s: %w", mode, err)
		}
		walls[i] = run.wallS
		tenants, periods = len(plan.Specs), plan.Warmup+plan.Measure
	}
	m.add("core.fleet_self_ns_per_client_period", "ns", Host, (walls[1]-walls[0])*1e9/float64(tenants*periods))
	return m, nil
}
