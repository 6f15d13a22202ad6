package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"github.com/haechi-qos/haechi/internal/chaos"
	"github.com/haechi-qos/haechi/internal/core"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sanitize"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/sim/shard"
	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// Client is one tenant's runtime state in the cluster.
type Client struct {
	Spec ClientSpec
	Node *rdma.Node
	Gen  *workload.Generator
	// KV and Engine (nil in Bare mode) are the tenant's link to data node 0
	// — at Servers == 1, its only link.
	KV     *kvstore.Client
	Engine *core.Engine
	// links holds the tenant's link to every data node, node 0's included,
	// when there are several; nil at Servers == 1, so a single-server
	// tenant pays one pointer for the topology.
	links *[]link
	// wire is what the link to data node 0 has posted and not seen complete.
	wire *wire

	// Periods logs completions per period inside the measure window.
	Periods metrics.PeriodLog
	// Timeline records (period start time, completions) for every period
	// from t=0, for the paper's timeline figures.
	Timeline metrics.Series

	measuring  bool
	skipNext   bool
	lastPeriod int

	// Per measured-period bookkeeping parallel to Periods: the absolute
	// period number each entry closed and its real [from, to] span.
	// Monitor outages stretch a period's wall time, so fault reporting
	// must not reconstruct these from index arithmetic.
	periodIdx     []int
	periodFrom    []sim.Time
	periodTo      []sim.Time
	lastHarvestAt sim.Time
}

// Cluster is the assembled testbed.
type Cluster struct {
	cfg     Config
	kernel  *sim.Kernel
	fabric  *rdma.Fabric
	nodes   []dataNode // Config.Servers of them, all on shard 0
	clients []*Client

	// kernels[s] drives shard s (kernels[0] == kernel, the data node's),
	// group is their quantum coordinator and byShard[s] lists the clients
	// whose nodes live on shard s. The shard count is data, not a mode: a
	// run without Config.Shards is the one-shard case of the same code.
	kernels []*sim.Kernel
	group   *shard.Group
	byShard [][]*Client

	// updateValues[s] is the buffer every updating tenant on shard s builds
	// its UPDATE value in, nil until the shard has one: kvstore.Update
	// captures the value when called, so one buffer serves them all.
	updateValues [][]byte

	// skipHandBack makes the rebalancer lose what no hot node accepted;
	// only the sanitizer's mutation test sets it.
	skipHandBack bool

	// ran guards Run, which consumes the cluster.
	ran bool

	// flights and registries are the observability layer (nil unless
	// cfg.Observe enables them): one flight recorder and one metrics
	// registry per shard. Each instance is stamped or sampled only from
	// its own shard's kernel — single-writer by construction, like the
	// sanitizer's per-shard checkers — and they merge deterministically into
	// Results at run end; see observe.go and DESIGN.md §11.
	flights    []*trace.FlightRecorder
	registries []*metrics.Registry
	// sampleSlots is the sample count Run reserves in every registry:
	// one per metrics tick from start to the horizon.
	sampleSlots int

	// san holds one invariant checker per shard, nil unless cfg.Sanitize.
	// Per-shard checkers keep the sanitizer lock-free: shards run
	// concurrently but each checker is only touched by its own shard's
	// events, and the checkers merge in shard order after the run.
	san []*sanitize.Checker

	// sharedKeys is the default scrambled-zipfian chooser, built once and
	// shared by every client that does not bring its own: Next is a pure
	// function of the caller's RNG, so one chooser serves 10^6 tenants
	// (each holds its own rand.Rand) instead of 10^6 identical zeta tables.
	sharedKeys *workload.ScrambledZipfian

	// chaos is the compiled fault scenario (nil unless cfg.Chaos);
	// runStart is stashed at Run time so fault reporting can resolve
	// scenario event times to absolute instants.
	chaos    *chaos.Scenario
	runStart sim.Time
}

// New assembles a cluster for the given tenant specs. In QoS modes every
// client passes admission control before its engine is created.
func New(cfg Config, specs []ClientSpec) (_ *Cluster, err error) {
	cfg, err = cfg.ApplyScale()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: at least one client spec required")
	}
	k := sim.New(cfg.Seed)
	fabric, err := rdma.NewFabric(k, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	// Every shard needs at least one node: shard 0 is the data node's,
	// the rest split the clients.
	shards := cfg.Shards
	if shards > len(specs)+1 {
		shards = len(specs) + 1
	}
	if shards < 1 {
		shards = 1
	}
	kernels := make([]*sim.Kernel, shards)
	kernels[0] = k
	for s := 1; s < shards; s++ {
		// Distinct deterministic per-shard seeds; shard 0 keeps the
		// config seed.
		kernels[s] = sim.New(cfg.Seed + int64(s)*1_000_003)
	}
	group, err := shard.New(kernels, cfg.Fabric.PropagationDelay, cfg.ShardWorkers)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			group.Close() // a rejected cluster must not strand the pool's workers
		}
	}()
	assign := func(name string, kind rdma.NodeKind) int {
		// Background initiators ("bg/…") inject at the data node's
		// scheduler directly and must share its kernel.
		if shards == 1 || kind == rdma.ServerNode || strings.HasPrefix(name, "bg/") {
			return 0
		}
		// Hash the stable node name, not insertion order: a client must
		// land on the same shard regardless of the order tenants were
		// declared in, or re-ordering a spec list silently reshuffles
		// every placement (and with it the per-shard event streams).
		return 1 + int(fnv32(name)%uint32(shards-1))
	}
	if err := fabric.EnableSharding(kernels, assign, group.Post); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:          cfg,
		kernel:       k,
		fabric:       fabric,
		kernels:      kernels,
		group:        group,
		byShard:      make([][]*Client, shards),
		updateValues: make([][]byte, shards),
	}

	if cfg.Sanitize {
		c.san = make([]*sanitize.Checker, shards)
		for s, sk := range kernels {
			c.san[s] = sanitize.New()
			armEventOrder(sk, s, c.san[s])
		}
		// inject runs on the coordinating goroutine between quanta;
		// the pool barrier orders it against shard 0's quantum work.
		group.SetSanitizer(c.san[0])
	}

	var monitorOpts []core.MonitorOption
	if cfg.Mode == BasicHaechi {
		monitorOpts = append(monitorOpts, core.WithoutConversion())
	}
	if cfg.Chaos != "" {
		sc, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		if err := sc.Validate(len(specs), cfg.Mode != Bare); err != nil {
			return nil, err
		}
		c.chaos = sc
		if sc.Count().Crashes > 0 {
			// See Config.Chaos: without detection a crashed reservation
			// stays stranded.
			monitorOpts = append(monitorOpts, core.WithFailureDetection())
		}
	}

	for s := 0; s < cfg.Servers; s++ {
		if err := c.addDataNode(s, len(specs), monitorOpts); err != nil {
			return nil, err
		}
	}
	for i, spec := range specs {
		if err := c.addClient(i, spec); err != nil {
			return nil, fmt.Errorf("cluster: client %d: %w", i, err)
		}
	}
	if c.san != nil {
		// After the nodes exist: the fabric's structural checks (QP-cache
		// occupancy among them) attach per shard like every other checker.
		if err := fabric.SetSanitizers(c.san); err != nil {
			return nil, err
		}
	}
	if err := c.setupObserve(); err != nil {
		return nil, err
	}
	return c, nil
}

// dataNode is one data node: the store holding its shard of the records
// and, in QoS modes, an unmodified Haechi monitor over its own capacity.
type dataNode struct {
	node    *rdma.Node
	store   *kvstore.Store
	monitor *core.Monitor // nil in Bare mode
}

// nth names the s-th of several like-named things: the first keeps the
// bare name, so one data node (or one link) is named as it always was.
func nth(name string, s int) string {
	if s == 0 {
		return name
	}
	return fmt.Sprintf("%s-%d", name, s)
}

// addDataNode builds data node s: its store, loaded with the records whose
// key ≡ s mod Servers under their global keys, and in QoS modes its
// estimator, admission controller and monitor. Every data node admits
// all tenants clients, so its report table has that many slots.
func (c *Cluster) addDataNode(s, tenants int, monitorOpts []core.MonitorOption) error {
	cfg := c.cfg
	node, err := c.fabric.AddServer(nth("datanode", s))
	if err != nil {
		return err
	}
	store, err := kvstore.NewStore(node, rdma.NewDispatcher(node), cfg.Store)
	if err != nil {
		return err
	}
	// A nil value function loads recordValue's record, which the paged data
	// region serves without a write: loading writes the index only.
	if err := store.PopulateShard(s, cfg.Servers, cfg.Records, nil); err != nil {
		return err
	}
	dn := dataNode{node: node, store: store}
	if cfg.Mode != Bare {
		est, err := core.NewCapacityEstimator(cfg.Params, cfg.ProfiledCapacityPerPeriod(), cfg.Sigma)
		if err != nil {
			return err
		}
		adm, err := core.NewAdmissionController(cfg.ProfiledCapacityPerPeriod(), cfg.LocalCapacityPerPeriod())
		if err != nil {
			return err
		}
		dn.monitor, err = core.NewMonitor(cfg.Params, node, tenants, est, adm, monitorOpts...)
		if err != nil {
			return err
		}
		dn.monitor.SetSanitizer(c.sanFor(0))
	}
	c.nodes = append(c.nodes, dn)
	return nil
}

// recordValue stores key's record in buf: the key in the first 8 bytes,
// zeros after — what the store's paged data region holds without memory
// and what PopulateShard loads without a value function. The update
// senders write it, so a one-sided UPDATE writes the bytes its record
// already reads as and the record stays unwritten.
func recordValue(buf []byte, key uint64) []byte {
	binary.LittleEndian.PutUint64(buf, key)
	return buf
}

// link is a tenant's path to one data node: its KV client, the sender
// that posts a request there, what it has posted and, in QoS modes, the
// engine holding that node's slice of the tenant's reservation.
type link struct {
	kv     *kvstore.Client
	engine *core.Engine
	send   core.IOSender
	wire   *wire
	// queue holds the keys the router drew and sent this way that the engine
	// has not posted yet; it is that engine's source. Unlike the pulled
	// source of Servers == 1, which holds a backlog as counts, a routed
	// request has drawn its key: it costs 8 bytes while it waits.
	queue sim.FIFO[uint64]
	// routed counts the requests routed this way since the last rebalance
	// round: the tenant's observed demand split.
	routed uint64
}

// wire is the one place a posted request's completion cookie waits: the
// arrival instants of the I/Os a link has on the wire, oldest first. A
// link's data I/Os ride one QP in one service class (GETs and record
// WRITEs are both bulk; two-sided responses are served FIFO by the server
// CPU), so they complete in issue order and the oldest instant is the
// completing request's — per link, so completions that cross between a
// tenant's links to several data nodes stay matched.
type wire struct {
	pending sim.FIFO[sim.Time]
	// complete is the engine's OnIODone in QoS modes, the generator's
	// Complete in Bare; depth the engine's send-queue depth, which bounds
	// pending (0 in Bare mode, where nothing does).
	complete func(arrivedAt sim.Time)
	depth    int
	node     *rdma.Node        // the tenant's, for its name and clock
	san      *sanitize.Checker // nil unless Config.Sanitize
}

// done completes the link's oldest posted I/O. Under the sanitizer it
// first checks the "completion-cookie" invariant: the request's arrival
// instant is waiting and not ahead of the clock, and no more wait than the
// engine may keep posted (a queue's high-water mark lasts until its next
// pop, so a completion sees it).
func (w *wire) done() {
	if w.san != nil {
		now, n := w.node.Kernel().Now(), w.pending.Len()
		switch {
		case n == 0:
			w.san.Reportf("completion-cookie", int64(now), "%s: a data I/O completed with none posted", w.node.Name())
			return
		case w.depth > 0 && n > w.depth:
			w.san.Reportf("completion-cookie", int64(now), "%s: %d I/Os posted, send queue depth %d", w.node.Name(), n, w.depth)
		case *w.pending.Peek(0) > now:
			w.san.Reportf("completion-cookie", int64(now), "%s: the completing request arrived at t=%d, after now", w.node.Name(), int64(*w.pending.Peek(0)))
		}
	}
	w.complete(w.pending.Pop())
}

// link returns the tenant's KV client and engine (nil in Bare mode) at
// data node s.
func (rt *Client) link(s int) (*kvstore.Client, *core.Engine) {
	if rt.links == nil {
		return rt.KV, rt.Engine
	}
	return (*rt.links)[s].kv, (*rt.links)[s].engine
}

// slice is data node s's share of total split equally over n nodes, the
// remainder going to the first nodes.
func slice(total int64, n, s int) int64 {
	share := total / int64(n)
	if int64(s) < total%int64(n) {
		share++
	}
	return share
}

func (c *Cluster) addClient(i int, spec ClientSpec) error {
	servers := len(c.nodes)
	if servers > 1 && c.cfg.Mode != Bare {
		// A tenant initiates all its I/O through one NIC however many data
		// nodes it spans, so C_L*T bounds its total reservation — the
		// multi-server form of Definition 2's local constraint. The
		// per-node admission controllers only ever see a slice.
		if local := c.cfg.LocalCapacityPerPeriod(); spec.Reservation < 0 || spec.Reservation > local {
			return fmt.Errorf("total reservation %d outside [0, %d] (the client's local capacity C_L*T)", spec.Reservation, local)
		}
		if spec.Limit != 0 {
			return fmt.Errorf("a limit is enforced by one engine; Limit needs Servers == 1, got %d", servers)
		}
	}
	node, err := c.fabric.AddClient(fmt.Sprintf("client-%02d", i))
	if err != nil {
		return err
	}
	disp := rdma.NewDispatcher(node)

	rt := &Client{Spec: spec, Node: node}
	rt.Timeline.Name = fmt.Sprintf("client-%02d", i)

	if spec.Keys == nil {
		if c.sharedKeys == nil {
			n := uint64(c.cfg.Records)
			if n == 0 {
				n = 1
			}
			z, err := workload.NewScrambledZipfian(n)
			if err != nil {
				return err
			}
			c.sharedKeys = z
		}
		rt.Spec.Keys = c.sharedKeys
	}
	if rt.Spec.Demand == nil {
		rt.Spec.Demand = UnlimitedDemand()
	}
	if rt.Spec.Pattern == nil {
		// Finite demand defaults to the paper's QoS-experiment form
		// (whole demand at period start); unlimited demand uses the
		// closed-loop window of the profiling experiments — posting an
		// unbounded demand up front is meaningless.
		if rt.Spec.Demand(1) >= workload.InfiniteDemand {
			rt.Spec.Pattern = workload.Burst{Window: 64}
		} else {
			rt.Spec.Pattern = workload.Burst{}
		}
	}
	if _, isPostAll := rt.Spec.Pattern.(workload.Burst); isPostAll &&
		rt.Spec.Pattern.(workload.Burst).Window <= 0 && rt.Spec.Demand(1) >= workload.InfiniteDemand {
		return fmt.Errorf("unlimited demand cannot use the post-all burst pattern; set Burst{Window: n}")
	}

	// Update state is lazy: a pure GET tenant (the fleet default) carries
	// no RNG, and a shard with no updating tenant no value buffer.
	var rng *rand.Rand
	var updateValue []byte
	if spec.UpdateFraction > 0 {
		rng = rand.New(rand.NewSource(c.cfg.Seed ^ int64(i)<<17))
		s := node.Shard()
		if c.updateValues[s] == nil {
			c.updateValues[s] = make([]byte, rdma.DataIOSize) // the loader's value, see addDataNode
		}
		updateValue = c.updateValues[s]
	}
	first, err := c.connect(rt, disp, 0, rng, updateValue)
	if err != nil {
		return err
	}
	rt.KV, rt.Engine, rt.wire = first.kv, first.engine, first.wire
	if servers > 1 {
		links := make([]link, servers)
		links[0] = first
		for s := 1; s < servers; s++ {
			if links[s], err = c.connect(rt, disp, s, rng, updateValue); err != nil {
				return err
			}
		}
		rt.links = &links
	}

	// The generator announces arrivals as counts and is asked for each
	// request's key when it is posted. With one data node the QoS engine asks
	// once it holds a token and a send-queue slot; Bare mode has no gate,
	// so it asks on arrival. With several, picking the node needs the key,
	// so the router asks on arrival, queues the key for its node's engine
	// and announces the request there; that engine takes the key back off
	// the queue when it holds a token for it.
	k := node.Kernel()
	var arrive workload.Arrive
	switch {
	case servers > 1:
		links := *rt.links
		arrive = func(n uint64) {
			for now := k.Now(); n > 0; n-- {
				key := rt.Gen.Next(now)
				ln := &links[key%uint64(servers)]
				ln.routed++
				if ln.engine == nil {
					ln.send(key, now)
					continue
				}
				ln.queue.Push(key)
				ln.engine.Arrive(1)
			}
		}
	case rt.Engine == nil:
		send := first.send
		arrive = func(n uint64) {
			for now := k.Now(); n > 0; n-- {
				send(rt.Gen.Next(now), now)
			}
		}
	default:
		arrive = rt.Engine.Arrive
	}

	// The generator lives on the client's own kernel so sharded runs keep
	// each tenant's RNG stream and period events on its shard.
	gen, err := workload.NewGenerator(k, c.cfg.Seed+int64(i)*7919, rt.Spec.Keys, rt.Spec.Pattern, c.cfg.Params.Period, arrive)
	if err != nil {
		return err
	}
	rt.Gen = gen
	// Completions end at the generator: straight off the wire in Bare mode,
	// through the engine that posted the I/O otherwise.
	complete := gen.Complete
	switch {
	case servers > 1:
		for s := range *rt.links {
			ln := &(*rt.links)[s]
			if ln.engine == nil {
				ln.wire.complete = complete
				continue
			}
			ln.engine.SetSource(func(sim.Time) uint64 { return ln.queue.Pop() }, complete)
		}
	case rt.Engine == nil:
		rt.wire.complete = complete
	default:
		rt.Engine.SetSource(gen.Next, complete)
	}
	if rt.Engine != nil {
		// Bare clients are driven by Run's per-shard period tickers; a QoS
		// tenant's periods are those of its engine at data node 0.
		rt.Engine.OnPeriodStart = func(period int) {
			c.harvest(rt, period)
			rt.Gen.BeginPeriod(rt.Spec.Demand(period))
		}
	}
	c.clients = append(c.clients, rt)
	c.byShard[node.Shard()] = append(c.byShard[node.Shard()], rt)
	return nil
}

// connect builds tenant rt's link to data node s: a KV client on the
// tenant's dispatcher, the data-path sender and, in QoS modes, admission
// at that node's monitor for the node's slice of the reservation and the
// engine that holds it. Engines and KV clients register handlers scoped to
// their data node, so a tenant's links share its dispatcher, as they share
// its update draw rng and its shard's UPDATE value buffer (nil for a pure
// reader).
func (c *Cluster) connect(rt *Client, disp *rdma.Dispatcher, s int, rng *rand.Rand, updateValue []byte) (link, error) {
	dn := &c.nodes[s]
	kv, err := kvstore.Attach(rt.Node, disp, dn.store)
	if err != nil {
		return link{}, err
	}
	kv.PrimeCache(c.cfg.Records) // steady-state location cache (post warm-up)

	// The data path: one-sided GET (or two-sided RPC for the comparison
	// curves), with a fraction of one-sided record WRITEs when the spec
	// requests a YCSB-style update mix. The completions handed to kv are
	// bound once, so a steady-state I/O allocates no closure.
	w := &wire{node: rt.Node, san: c.sanFor(rt.Node.Shard())}
	onGet := func([]byte, error) { w.done() }
	onPut := func(error) { w.done() }
	ln := link{kv: kv, wire: w}
	ln.send = func(key uint64, arrivedAt sim.Time) {
		var err error
		switch {
		case c.cfg.TwoSided:
			err = kv.GetTwoSided(key, onGet)
		case updateValue != nil && rng.Float64() < rt.Spec.UpdateFraction:
			err = kv.Update(key, recordValue(updateValue, key), onPut)
		default:
			err = kv.Get(key, onGet)
		}
		// A completion is a kernel event, never a call from inside the
		// issue, so queueing the cookie after a successful issue is in time. On
		// an error kv never calls back and the request is dropped (errors
		// cannot occur for primed in-range keys).
		if err == nil {
			w.pending.Push(arrivedAt)
		}
	}
	if dn.monitor != nil {
		grant, err := dn.monitor.Admit(rt.Node, slice(rt.Spec.Reservation, len(c.nodes), s))
		if err != nil {
			return link{}, err
		}
		ln.engine, err = core.NewEngine(c.cfg.Params, grant, rt.Node, disp, rt.Spec.Limit, ln.send)
		if err != nil {
			return link{}, err
		}
		ln.engine.SetSanitizer(w.san)
		w.complete, w.depth = ln.engine.OnIODone, c.cfg.Params.SendQueueDepth
	}
	return ln, nil
}

// harvest folds the previous period's completions into the client's logs.
func (c *Cluster) harvest(rt *Client, period int) {
	now := rt.Node.Kernel().Now()
	if period <= 1 {
		rt.lastPeriod = period
		rt.lastHarvestAt = now
		return
	}
	done := rt.Gen.TakePeriodCompleted()
	rt.Timeline.Add(now, float64(done))
	if rt.measuring {
		if rt.skipNext {
			rt.skipNext = false
		} else {
			rt.Periods.Observe(done)
			rt.periodIdx = append(rt.periodIdx, period-1)
			rt.periodFrom = append(rt.periodFrom, rt.lastHarvestAt)
			rt.periodTo = append(rt.periodTo, now)
		}
	}
	rt.lastPeriod = period
	rt.lastHarvestAt = now
}

// Fabric exposes the fabric.
func (c *Cluster) Fabric() *rdma.Fabric { return c.fabric }

// Server returns the data node (the first of Config.Servers).
func (c *Cluster) Server() *rdma.Node { return c.nodes[0].node }

// Store returns the first data node's KV store.
func (c *Cluster) Store() *kvstore.Store { return c.nodes[0].store }

// Monitor returns the first data node's QoS monitor (nil in Bare mode).
func (c *Cluster) Monitor() *core.Monitor { return c.nodes[0].monitor }

// Clients returns the tenants.
func (c *Cluster) Clients() []*Client { return c.clients }

// Config returns the normalized configuration.
func (c *Cluster) Config() Config { return c.cfg }

// sanFor returns shard s's invariant checker, or nil when sanitizing is
// off (component hooks treat nil as disabled).
func (c *Cluster) sanFor(s int) *sanitize.Checker {
	if c.san == nil {
		return nil
	}
	return c.san[s]
}

// sanErr merges the per-shard checkers in shard order and summarizes
// any violations; nil when sanitizing is off or the run was clean.
func (c *Cluster) sanErr() error {
	if c.san == nil {
		return nil
	}
	return sanitize.Merge(c.san...).Err()
}

// SanitizeViolations returns the invariant violations recorded so far
// (shard order), empty when sanitizing is off or the run was clean.
func (c *Cluster) SanitizeViolations() []sanitize.Violation {
	if c.san == nil {
		return nil
	}
	return sanitize.Merge(c.san...).Violations()
}

// armEventOrder installs the (at, seq) monotonicity probe on one shard
// kernel: the timing wheel must pop events in strictly increasing
// lexicographic order. The closure owns its own state (one probe per
// kernel) and builds no arguments unless the invariant breaks.
func armEventOrder(k *sim.Kernel, shard int, san *sanitize.Checker) {
	var seen bool
	var lastAt sim.Time
	var lastSeq uint64
	k.SetEventCheck(func(at sim.Time, seq uint64) {
		if seen && (at < lastAt || (at == lastAt && seq <= lastSeq)) {
			san.Reportf("kernel-order", int64(at),
				"shard %d: event (at=%v, seq=%d) fired after (at=%v, seq=%d)",
				shard, at, seq, lastAt, lastSeq)
		}
		seen = true
		lastAt, lastSeq = at, seq
	})
}

// fnv32 is FNV-1a over the node name, used for stable shard placement.
func fnv32(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}
