// Package multiserver extends Haechi to multiple data nodes — the paper's
// stated future work (Section V: "we plan to extend Haechi to
// environments with multiple servers and distributed clients, similar to
// that for conventional distributed storage [bQueue, pShift, pTrans]").
//
// The design follows the cited token-shifting line of work: every data
// node runs an unmodified Haechi monitor over its own capacity; a client
// holds one QoS engine per server, its records are sharded across the
// servers (key mod S), and its total reservation is split into per-server
// reservations. A lightweight rebalancer periodically moves reservation
// between a client's per-server slices toward its observed demand split
// (bounded per round, and only where the target server's admission
// control accepts the shift) — the dynamic token allocation idea of
// pShift/pTrans applied to Haechi's reservations.
package multiserver

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/workload"
)

// Config assembles a multi-server testbed.
type Config struct {
	// Servers is the number of data nodes (>= 1).
	Servers int
	// Fabric and Params follow the single-server cluster conventions;
	// zero values take the calibrated defaults.
	Fabric rdma.Config
	Params core.Params
	// Scale divides fabric rates and rescales control constants
	// (rdma.Config.Scaled, core.Params.Scaled).
	Scale float64
	// RecordsPerServer is the number of records populated on each shard.
	RecordsPerServer int
	// RebalanceEvery moves reservations toward observed demand every N
	// periods (0 disables rebalancing — static equal splits).
	RebalanceEvery int
	// RebalanceStep is the fraction of the imbalance corrected per round
	// (0 defaults to 0.5).
	RebalanceStep float64
	// ProfiledPerServer is each node's per-period capacity (0 derives
	// from the fabric rate).
	ProfiledPerServer int64
	// Sigma is the profiled deviation (0 derives 1%).
	Sigma float64
	// Seed drives all randomness.
	Seed int64
}

// ClientSpec describes one distributed client.
type ClientSpec struct {
	// TotalReservation is the client's reservation across the whole
	// cluster, initially split equally over the servers.
	TotalReservation int64
	// DemandPerPeriod is the total requests per period (posted at period
	// start, the QoS burst form).
	DemandPerPeriod uint64
	// Keys chooses keys over the global keyspace
	// [0, Servers*RecordsPerServer); nil means scrambled zipfian.
	Keys workload.KeyChooser
}

// server is one data node: store + monitor.
type server struct {
	node    *rdma.Node
	store   *kvstore.Store
	monitor *core.Monitor
}

// client is one distributed client's runtime state.
type client struct {
	spec    ClientSpec
	node    *rdma.Node
	engines []*core.Engine
	kvs     []*kvstore.Client
	gen     *workload.Generator
	// perServerRes is the current reservation split.
	perServerRes []int64
	// routed counts requests routed to each server since the last
	// rebalance round.
	routed []uint64
	// queues[s] holds the requests routed to server s that its engine has
	// not posted yet; it is that engine's source.
	queues []routedFIFO

	// Periods logs total completions per period once measuring.
	Periods   metrics.PeriodLog
	measuring bool
	skipNext  bool
}

// Cluster is the assembled multi-server testbed.
type Cluster struct {
	cfg     Config
	kernel  *sim.Kernel
	fabric  *rdma.Fabric
	servers []*server
	clients []*client
	ran     bool
}

func (c Config) normalize() (Config, error) {
	if c.Servers <= 0 {
		return c, fmt.Errorf("multiserver: Servers must be positive, got %d", c.Servers)
	}
	if c.Fabric == (rdma.Config{}) {
		c.Fabric = rdma.NewDefaultConfig()
	}
	if c.Params == (core.Params{}) {
		c.Params = core.NewDefaultParams()
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Scale > 1 {
		c.Fabric = c.Fabric.Scaled(c.Scale)
		c.Params = c.Params.Scaled(c.Scale)
	}
	if c.RecordsPerServer == 0 {
		c.RecordsPerServer = 1024
	}
	if c.RebalanceStep == 0 {
		c.RebalanceStep = 0.5
	}
	if c.RebalanceStep < 0 || c.RebalanceStep > 1 {
		return c, fmt.Errorf("multiserver: RebalanceStep must be in (0,1], got %v", c.RebalanceStep)
	}
	if c.ProfiledPerServer == 0 {
		c.ProfiledPerServer = int64(c.Fabric.ServerOneSidedRate * c.Params.Period.Seconds())
	}
	if c.Sigma == 0 {
		c.Sigma = 0.01 * float64(c.ProfiledPerServer)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if err := c.Fabric.Validate(); err != nil {
		return c, err
	}
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// New assembles the topology: S data nodes, each with a sharded store and
// its own Haechi monitor, plus one node per client holding S engines.
func New(cfg Config, specs []ClientSpec) (*Cluster, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("multiserver: at least one client required")
	}
	k := sim.New(cfg.Seed)
	fabric, err := rdma.NewFabric(k, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	mc := &Cluster{cfg: cfg, kernel: k, fabric: fabric}

	// Keep shard tables at most half full so probes of absent keys
	// terminate quickly.
	storeCap := kvstore.CapacityFor(cfg.RecordsPerServer * 2)
	for s := 0; s < cfg.Servers; s++ {
		node, err := fabric.AddServer(fmt.Sprintf("datanode-%d", s))
		if err != nil {
			return nil, err
		}
		disp := rdma.NewDispatcher(node)
		store, err := kvstore.NewStore(node, disp, kvstore.Options{Capacity: storeCap, RecordSize: rdma.DataIOSize})
		if err != nil {
			return nil, err
		}
		// Shard s holds the global keys k with k mod Servers == s, stored
		// under their global ids.
		val := make([]byte, 64)
		for i := 0; i < cfg.RecordsPerServer; i++ {
			globalKey := uint64(i*cfg.Servers + s)
			if err := store.Put(globalKey, val); err != nil {
				return nil, err
			}
		}
		est, err := core.NewCapacityEstimator(cfg.Params, cfg.ProfiledPerServer, cfg.Sigma)
		if err != nil {
			return nil, err
		}
		adm, err := core.NewAdmissionController(cfg.ProfiledPerServer,
			int64(cfg.Fabric.ClientOneSidedRate*cfg.Params.Period.Seconds()))
		if err != nil {
			return nil, err
		}
		mon, err := core.NewMonitor(cfg.Params, node, est, adm)
		if err != nil {
			return nil, err
		}
		mc.servers = append(mc.servers, &server{node: node, store: store, monitor: mon})
	}

	for i, spec := range specs {
		if err := mc.addClient(i, spec); err != nil {
			return nil, fmt.Errorf("multiserver: client %d: %w", i, err)
		}
	}
	return mc, nil
}

func (mc *Cluster) addClient(i int, spec ClientSpec) error {
	if spec.TotalReservation < 0 {
		return fmt.Errorf("negative reservation")
	}
	cfg := mc.cfg
	// The client initiates all its I/O through one NIC regardless of how
	// many servers it spans: its total reservation is bounded by the
	// local capacity C_L*T, the multi-server form of Definition 2's
	// local constraint.
	clientCap := int64(cfg.Fabric.ClientOneSidedRate * cfg.Params.Period.Seconds())
	if spec.TotalReservation > clientCap {
		return fmt.Errorf("total reservation %d exceeds the client's local capacity %d (C_L*T)",
			spec.TotalReservation, clientCap)
	}
	node, err := mc.fabric.AddClient(fmt.Sprintf("client-%02d", i))
	if err != nil {
		return err
	}
	disp := rdma.NewDispatcher(node)

	cl := &client{
		spec:         spec,
		node:         node,
		perServerRes: splitEqually(spec.TotalReservation, cfg.Servers),
		routed:       make([]uint64, cfg.Servers),
		queues:       make([]routedFIFO, cfg.Servers),
	}
	for s, srv := range mc.servers {
		kv, err := kvstore.Attach(node, nil, srv.store)
		if err != nil {
			return err
		}
		kv.PrimeCache(cfg.RecordsPerServer * cfg.Servers)
		grant, err := srv.monitor.Admit(node, cl.perServerRes[s])
		if err != nil {
			return err
		}
		// The engine passes its one bound completion as done for every I/O
		// (see core.IOSender), so the GET callback is built once.
		var ioDone func()
		onGet := func([]byte, error) { ioDone() }
		sender := func(key uint64, done func()) {
			ioDone = done
			_ = kv.Get(key, onGet)
		}
		// Engines register sender-scoped handlers, so all S engines share
		// this client node's dispatcher without clashing.
		eng, err := core.NewEngine(cfg.Params, grant, node, disp, 0, core.IOSender(sender))
		if err != nil {
			return err
		}
		queue := &cl.queues[s]
		eng.SetSource(func(sim.Time) (uint64, func()) { return queue.pop() })
		cl.engines = append(cl.engines, eng)
		cl.kvs = append(cl.kvs, kv)
	}

	// The generator announces the client's whole demand. Picking a server
	// needs the key, so the router pulls every request as it arrives (which
	// also stamps its latency start), queues it for its shard's engine and
	// announces it there; the engine takes it back off the queue when it
	// holds a token for it.
	keys := spec.Keys
	if keys == nil {
		z, err := workload.NewScrambledZipfian(uint64(cfg.RecordsPerServer * cfg.Servers))
		if err != nil {
			return err
		}
		keys = z
	}
	route := func(n uint64) {
		for now := mc.kernel.Now(); n > 0; n-- {
			key, done := cl.gen.Next(now)
			s := int(key % uint64(cfg.Servers))
			cl.routed[s]++
			cl.queues[s].push(routedReq{key: key, done: done})
			cl.engines[s].Arrive(1)
		}
	}
	gen, err := workload.NewGenerator(mc.kernel, cfg.Seed+int64(i)*104729, keys, workload.Burst{}, cfg.Params.Period, route)
	if err != nil {
		return err
	}
	cl.gen = gen
	// Drive the per-period demand from the first server's period starts.
	cl.engines[0].OnPeriodStart = func(period int) {
		mc.harvest(cl)
		gen.BeginPeriod(spec.DemandPerPeriod)
	}
	mc.clients = append(mc.clients, cl)
	return nil
}

// routedReq is a request whose key has been drawn and routed to a server
// but which that server's engine has not posted yet.
type routedReq struct {
	key  uint64
	done func()
}

// routedFIFO is a queue of routed requests backed by a reusable slice (the
// pooled-FIFO idiom of core, sim and rdma).
type routedFIFO struct {
	reqs []routedReq
	head int
}

func (q *routedFIFO) push(r routedReq) { q.reqs = append(q.reqs, r) }

func (q *routedFIFO) pop() (uint64, func()) {
	r := q.reqs[q.head]
	q.reqs[q.head] = routedReq{}
	q.head++
	if q.head == len(q.reqs) {
		q.reqs, q.head = q.reqs[:0], 0
	} else if q.head > 64 && q.head*2 > len(q.reqs) {
		q.reqs = q.reqs[:copy(q.reqs, q.reqs[q.head:])]
		q.head = 0
	}
	return r.key, r.done
}

func splitEqually(total int64, n int) []int64 {
	out := make([]int64, n)
	base := total / int64(n)
	rem := total % int64(n)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

func (mc *Cluster) harvest(cl *client) {
	done := cl.gen.TakePeriodCompleted()
	if !cl.measuring {
		return
	}
	if cl.skipNext {
		cl.skipNext = false
		return
	}
	cl.Periods.Observe(done)
}

// rebalance is the pTrans-style reservation shift: move each client's
// per-server reservations toward its observed demand distribution,
// bounded by RebalanceStep per round and by each target monitor's
// admission control.
func (mc *Cluster) rebalance() {
	for _, cl := range mc.clients {
		var total uint64
		for _, r := range cl.routed {
			total += r
		}
		if total == 0 || cl.spec.TotalReservation == 0 {
			continue
		}
		// Two passes conserve the client's total reservation: decreases
		// first (freeing capacity on cold servers), then increases on hot
		// servers bounded by what was actually freed plus any admission
		// headroom; an amount that no hot server accepts is handed back
		// to the slices it was taken from.
		var freed int64
		decreasedFrom := make([]int, 0, len(cl.routed))
		for s := range cl.routed {
			desired := int64(float64(cl.spec.TotalReservation) * float64(cl.routed[s]) / float64(total))
			if desired >= cl.perServerRes[s] {
				continue
			}
			next := cl.perServerRes[s] + int64(float64(desired-cl.perServerRes[s])*mc.cfg.RebalanceStep)
			if next < 0 {
				next = 0
			}
			if err := mc.servers[s].monitor.SetReservation(engineID(cl, s), next); err == nil {
				freed += cl.perServerRes[s] - next
				cl.perServerRes[s] = next
				decreasedFrom = append(decreasedFrom, s)
			}
		}
		for s := range cl.routed {
			if freed <= 0 {
				break
			}
			desired := int64(float64(cl.spec.TotalReservation) * float64(cl.routed[s]) / float64(total))
			if desired <= cl.perServerRes[s] {
				continue
			}
			grow := desired - cl.perServerRes[s]
			if grow > freed {
				grow = freed
			}
			// Binary back-off: try the full grow, then halves, so a
			// partially full server still absorbs what it can.
			for grow > 0 {
				if err := mc.servers[s].monitor.SetReservation(engineID(cl, s), cl.perServerRes[s]+grow); err == nil {
					cl.perServerRes[s] += grow
					freed -= grow
					break
				}
				grow /= 2
			}
		}
		// Return any unplaced amount to the slices it came from so the
		// total reservation is conserved.
		for _, s := range decreasedFrom {
			if freed <= 0 {
				break
			}
			if err := mc.servers[s].monitor.SetReservation(engineID(cl, s), cl.perServerRes[s]+freed); err == nil {
				cl.perServerRes[s] += freed
				freed = 0
			}
		}
		for s := range cl.routed {
			cl.routed[s] = 0
		}
	}
}

// engineID recovers the client's id on server s (admission order is the
// same on every server: client index).
func engineID(cl *client, s int) int {
	return cl.engines[s].ID()
}

// Results summarizes a run.
type Results struct {
	// PerClient holds each client's measured per-period totals.
	PerClient []ClientResult
	// TotalCompleted sums all clients over the measure window.
	TotalCompleted uint64
}

// ClientResult is one client's outcome.
type ClientResult struct {
	TotalReservation int64
	Periods          []uint64
	Total            uint64
	MinPeriod        uint64
	MeanPeriod       float64
	MetReservation   bool
	// FinalSplit is the reservation split after any rebalancing.
	FinalSplit []int64
}

// Run executes warmup + measure periods and returns per-client results.
func (mc *Cluster) Run(warmupPeriods, measurePeriods int) (*Results, error) {
	if mc.ran {
		return nil, fmt.Errorf("multiserver: cluster already ran")
	}
	if warmupPeriods < 0 || measurePeriods <= 0 {
		return nil, fmt.Errorf("multiserver: invalid windows %d/%d", warmupPeriods, measurePeriods)
	}
	mc.ran = true
	for _, srv := range mc.servers {
		if err := srv.monitor.Start(); err != nil {
			return nil, err
		}
	}
	if mc.cfg.RebalanceEvery > 0 {
		interval := sim.Time(mc.cfg.RebalanceEvery) * mc.cfg.Params.Period
		// Rebalance between periods: just before each boundary the routed
		// counters hold the window's demand split.
		if _, err := mc.kernel.Every(interval-mc.cfg.Params.CheckInterval, interval, mc.rebalance); err != nil {
			return nil, err
		}
	}
	T := mc.cfg.Params.Period
	warmEnd := mc.kernel.Now() + sim.Time(warmupPeriods)*T
	measureEnd := warmEnd + sim.Time(measurePeriods)*T
	mc.kernel.At(warmEnd, func() {
		for _, cl := range mc.clients {
			cl.measuring = true
			cl.skipNext = true
		}
	})
	mc.kernel.At(measureEnd+T/2, func() {
		for _, cl := range mc.clients {
			cl.measuring = false
		}
	})
	mc.kernel.RunUntil(measureEnd + 3*T/4)
	for _, srv := range mc.servers {
		srv.monitor.Stop()
	}

	out := &Results{}
	for _, cl := range mc.clients {
		cr := ClientResult{
			TotalReservation: cl.spec.TotalReservation,
			Periods:          cl.Periods.Completed,
			Total:            cl.Periods.Total(),
			MinPeriod:        cl.Periods.Min(),
			MeanPeriod:       cl.Periods.Mean(),
			FinalSplit:       append([]int64(nil), cl.perServerRes...),
		}
		cr.MetReservation = len(cr.Periods) > 0 && int64(cr.MinPeriod) >= cl.spec.TotalReservation
		out.PerClient = append(out.PerClient, cr)
		out.TotalCompleted += cr.Total
	}
	return out, nil
}

// Kernel exposes the simulation kernel.
func (mc *Cluster) Kernel() *sim.Kernel { return mc.kernel }

// Servers returns the number of data nodes.
func (mc *Cluster) Servers() int { return len(mc.servers) }
