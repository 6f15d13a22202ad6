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
	Spec   ClientSpec
	Node   *rdma.Node
	KV     *kvstore.Client
	Gen    *workload.Generator
	Engine *core.Engine // nil in Bare mode

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
	server  *rdma.Node
	store   *kvstore.Store
	monitor *core.Monitor // nil in Bare mode
	clients []*Client

	// kernels[s] drives shard s (kernels[0] == kernel, the data node's),
	// group is their quantum coordinator and byShard[s] lists the clients
	// whose nodes live on shard s. The shard count is data, not a mode: a
	// run without Config.Shards is the one-shard case of the same code.
	kernels []*sim.Kernel
	group   *shard.Group
	byShard [][]*Client

	bgJobs map[string]*rdma.BackgroundJob
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
	// warmupPeriods and runStart are stashed at Run time so fault
	// reporting can map measured-period indices back to absolute period
	// numbers and resolve scenario event times to absolute instants.
	chaos         *chaos.Scenario
	warmupPeriods int
	runStart      sim.Time
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
	if cfg.Params.MaxClients < len(specs) {
		// Fleet runs exceed the default report-table width; the table is
		// sized per admitted client, so growing it does not perturb timing.
		cfg.Params.MaxClients = len(specs)
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
	server, err := fabric.AddServer("datanode")
	if err != nil {
		return nil, err
	}
	serverDisp := rdma.NewDispatcher(server)
	store, err := kvstore.NewStore(server, serverDisp, cfg.Store)
	if err != nil {
		return nil, err
	}
	// One buffer serves every record, and loading writes the index only.
	value := make([]byte, rdma.DataIOSize)
	err = store.Populate(cfg.Records, func(key uint64) []byte { return recordValue(value, key) })
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:     cfg,
		kernel:  k,
		fabric:  fabric,
		server:  server,
		store:   store,
		bgJobs:  make(map[string]*rdma.BackgroundJob),
		kernels: kernels,
		group:   group,
		byShard: make([][]*Client, shards),
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

	if cfg.Chaos != "" {
		sc, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		if err := sc.Validate(len(specs), cfg.Mode != Bare); err != nil {
			return nil, err
		}
		c.chaos = sc
		if sc.Count().Crashes > 0 && cfg.FailureGrace == 0 {
			// Crash injection needs failure detection or the crashed
			// reservation stays stranded; default to the shortest grace
			// that tolerates one missed end-of-period report.
			cfg.FailureGrace = 2
			c.cfg.FailureGrace = 2
		}
	}

	if cfg.Mode != Bare {
		est, err := core.NewCapacityEstimator(cfg.Params, cfg.ProfiledCapacity, cfg.Sigma)
		if err != nil {
			return nil, err
		}
		adm, err := core.NewAdmissionController(cfg.ProfiledCapacity, cfg.LocalCapacityPerPeriod())
		if err != nil {
			return nil, err
		}
		var opts []core.MonitorOption
		if cfg.Mode == BasicHaechi {
			opts = append(opts, core.WithoutConversion())
		}
		if cfg.FailureGrace > 0 {
			opts = append(opts, core.WithFailureDetection(cfg.FailureGrace))
		}
		c.monitor, err = core.NewMonitor(cfg.Params, server, est, adm, opts...)
		if err != nil {
			return nil, err
		}
		c.monitor.SetSanitizer(c.sanFor(0))
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

// recordValue stores key's record in buf: the key in the first 8 bytes,
// zeros after — what the store's paged data region holds without memory.
// The loader and the update senders share it, so a one-sided UPDATE writes
// the bytes its record already reads as and the record stays unwritten.
func recordValue(buf []byte, key uint64) []byte {
	binary.LittleEndian.PutUint64(buf, key)
	return buf
}

func (c *Cluster) addClient(i int, spec ClientSpec) error {
	node, err := c.fabric.AddClient(fmt.Sprintf("client-%02d", i))
	if err != nil {
		return err
	}
	disp := rdma.NewDispatcher(node)
	kv, err := kvstore.Attach(node, disp, c.store)
	if err != nil {
		return err
	}
	kv.PrimeCache(c.cfg.Records) // steady-state location cache (post warm-up)

	rt := &Client{Spec: spec, Node: node, KV: kv}
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

	// The data path: one-sided GET (or two-sided RPC for the comparison
	// curves), with a fraction of one-sided record WRITEs when the spec
	// requests a YCSB-style update mix. The per-client adapter queues the
	// done callback and hands kv a completion method bound once, so a
	// steady-state I/O allocates no closure. Update state is lazy: a pure
	// GET tenant (the fleet default) carries no per-client RNG or value
	// buffer.
	ad := &ioAdapter{}
	ad.onGetFn = func([]byte, error) { ad.complete() }
	ad.onPutFn = func(error) { ad.complete() }
	var rng *rand.Rand
	var updateValue []byte
	if spec.UpdateFraction > 0 {
		rng = rand.New(rand.NewSource(c.cfg.Seed ^ int64(i)<<17))
		updateValue = make([]byte, rdma.DataIOSize) // the loader's value, see New
	}
	sender := func(key uint64, done func()) {
		ad.push(done)
		var err error
		switch {
		case c.cfg.TwoSided:
			err = kv.GetTwoSided(key, ad.onGetFn)
		case updateValue != nil && rng.Float64() < spec.UpdateFraction:
			err = kv.Update(key, recordValue(updateValue, key), ad.onPutFn)
		default:
			err = kv.Get(key, ad.onGetFn)
		}
		if err != nil {
			// The kv layer never invokes the callback when it returns an
			// error, so the just-pushed done is still the newest entry.
			// Dropping it preserves the old behaviour (errors cannot occur
			// for primed in-range keys).
			ad.unpush()
		}
	}

	// The generator announces arrivals as counts and is asked for each
	// request when it is posted. The QoS engine asks once it holds a token
	// and a send-queue slot; Bare mode has no gate, so it asks on arrival.
	k := node.Kernel()
	var arrive workload.Arrive
	if c.cfg.Mode == Bare {
		arrive = func(n uint64) {
			for now := k.Now(); n > 0; n-- {
				sender(rt.Gen.Next(now))
			}
		}
	} else {
		grant, err := c.monitor.Admit(node, spec.Reservation)
		if err != nil {
			return err
		}
		engine, err := core.NewEngine(c.cfg.Params, grant, node, disp, spec.Limit, core.IOSender(sender))
		if err != nil {
			return err
		}
		rt.Engine = engine
		engine.SetSanitizer(c.sanFor(node.Shard()))
		arrive = engine.Arrive
	}

	// The generator lives on the client's own kernel so sharded runs keep
	// each tenant's RNG stream and period events on its shard.
	gen, err := workload.NewGenerator(k, c.cfg.Seed+int64(i)*7919, rt.Spec.Keys, rt.Spec.Pattern, c.cfg.Params.Period, arrive)
	if err != nil {
		return err
	}
	rt.Gen = gen
	if rt.Engine != nil {
		rt.Engine.SetSource(gen.Next)
	}

	onPeriod := func(period int) {
		c.harvest(rt, period)
		rt.Gen.BeginPeriod(rt.Spec.Demand(period))
	}
	if c.cfg.Mode != Bare { // Bare clients are driven by Run's per-shard period tickers
		rt.Engine.OnPeriodStart = onPeriod
	}
	c.clients = append(c.clients, rt)
	c.byShard[node.Shard()] = append(c.byShard[node.Shard()], rt)
	return nil
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

// Kernel exposes the simulation kernel (for scheduling experiment events
// such as congestion onset).
func (c *Cluster) Kernel() *sim.Kernel { return c.kernel }

// Fabric exposes the fabric.
func (c *Cluster) Fabric() *rdma.Fabric { return c.fabric }

// Server returns the data node.
func (c *Cluster) Server() *rdma.Node { return c.server }

// Store returns the KV store.
func (c *Cluster) Store() *kvstore.Store { return c.store }

// Monitor returns the QoS monitor (nil in Bare mode).
func (c *Cluster) Monitor() *core.Monitor { return c.monitor }

// Clients returns the tenants.
func (c *Cluster) Clients() []*Client { return c.clients }

// Config returns the normalized configuration.
func (c *Cluster) Config() Config { return c.cfg }

// AddBackgroundJob registers a named closed-loop background load against
// the data node (stopped; schedule Start/Stop with At).
func (c *Cluster) AddBackgroundJob(name string, window int) (*rdma.BackgroundJob, error) {
	if _, ok := c.bgJobs[name]; ok {
		return nil, fmt.Errorf("cluster: background job %q exists", name)
	}
	job, err := rdma.NewBackgroundJob(c.fabric, name, c.server, window)
	if err != nil {
		return nil, err
	}
	// Background initiators share the data node's shard (see New).
	job.SetSanitizer(c.sanFor(0))
	c.bgJobs[name] = job
	return job, nil
}

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

// At schedules fn at absolute virtual time t (e.g. congestion onset) on
// shard 0's kernel — correct for the usual experiment events
// (background-job start/stop touches the data node's shard only); with
// more than one shard fn must not mutate client-shard state.
func (c *Cluster) At(t sim.Time, fn func()) { c.kernel.At(t, fn) }

// FlightRecorder returns the per-I/O span recorder, nil unless enabled
// via Config.Observe. The per-shard recorders are merged on each call
// (deterministically; see trace.MergeFlightRecorders), so read it after
// Run, not per quantum.
func (c *Cluster) FlightRecorder() *trace.FlightRecorder {
	if c.flights == nil {
		return nil
	}
	return trace.MergeFlightRecorders(c.flights...)
}

// Metrics returns the sampled metrics registry, nil unless enabled via
// Config.Observe. The per-shard registries are merged on each call; read
// it after Run, when every shard has sampled the same instants.
func (c *Cluster) Metrics() *metrics.Registry {
	if c.registries == nil {
		return nil
	}
	m, err := metrics.MergeSharded(c.registries)
	if err != nil {
		// Shard sample timelines can only diverge mid-quantum; after Run
		// they coincide by construction (identical tickers, one horizon).
		return nil
	}
	return m
}

// EnableTrace attaches a shared protocol-event recorder (ring of the
// given capacity) to the monitor and every engine, and returns it. QoS
// modes only, and one shard only: the recorder is one ring shared by
// every engine, which a worker pool driving several shards cannot write
// without races (the public haechi.go API never shards, so this never
// constrains it).
func (c *Cluster) EnableTrace(capacity int) (*trace.Recorder, error) {
	if c.monitor == nil {
		return nil, fmt.Errorf("cluster: tracing requires a QoS mode")
	}
	if len(c.kernels) > 1 {
		return nil, fmt.Errorf("cluster: the protocol-event recorder is shared across engines and unsupported in sharded runs; use Observe span recording instead")
	}
	rec, err := trace.NewRecorder(capacity)
	if err != nil {
		return nil, err
	}
	c.monitor.Trace = rec
	for _, rt := range c.clients {
		if rt.Engine != nil {
			rt.Engine.Trace = rec
		}
	}
	return rec, nil
}

// ioAdapter bridges one client's kv completions back to workload done
// callbacks without a per-I/O closure. All of a client's data I/Os ride
// one QP in one service class (GETs and record WRITEs are both bulk;
// two-sided responses are served FIFO by the server CPU), so completions
// arrive in issue order and the oldest pending done always matches.
type ioAdapter struct {
	pending []func()
	head    int
	onGetFn func([]byte, error)
	onPutFn func(error)
}

func (a *ioAdapter) push(done func()) { a.pending = append(a.pending, done) }

// unpush removes the most recently pushed entry (issue-error path only).
func (a *ioAdapter) unpush() { a.pending = a.pending[:len(a.pending)-1] }

func (a *ioAdapter) complete() {
	done := a.pending[a.head]
	a.pending[a.head] = nil
	a.head++
	if a.head >= len(a.pending) {
		a.pending = a.pending[:0]
		a.head = 0
	} else if a.head > 64 && a.head*2 > len(a.pending) {
		n := copy(a.pending, a.pending[a.head:])
		a.pending = a.pending[:n]
		a.head = 0
	}
	done()
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
