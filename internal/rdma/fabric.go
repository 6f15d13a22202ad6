package rdma

import (
	"fmt"
	"math"

	"github.com/haechi-qos/haechi/internal/sanitize"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// Slab chunk sizes: nodes and queue pairs are allocated out of fixed-size
// chunks so element pointers stay stable while the arrays stay dense —
// struct-of-arrays locality at fleet scale (10^5+ clients) without the
// per-object heap litter of one allocation per node/QP.
const (
	nodeChunkSize = 256
	qpChunkSize   = 512
)

// NodeKind distinguishes the two roles in the performance model.
type NodeKind int

// Node kinds.
const (
	// ClientNode initiates verbs; its NIC station is calibrated to the
	// per-client caps (C_L).
	ClientNode NodeKind = iota + 1
	// ServerNode is a data node: its NIC station is calibrated to the
	// aggregate one-sided cap (C_G) and its CPU station to the two-sided
	// RPC cap.
	ServerNode
)

func (k NodeKind) String() string {
	switch k {
	case ClientNode:
		return "client"
	case ServerNode:
		return "server"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a machine attached to the fabric. Nodes live in the fabric's
// slab chunks — never hold one by value; the *Node returned at creation
// is stable for the fabric's lifetime.
type Node struct {
	fabric *Fabric
	name   string
	kind   NodeKind
	// id is the node's dense creation-order index (background-job
	// initiators included); it indexes fabric-wide per-node arrays.
	id int

	// k is the kernel every event local to this node runs on: the
	// fabric's kernels[shard]. All of the node's stations are built on it.
	k     *sim.Kernel
	shard int

	// nic processes every verb that transits this node (initiations and,
	// for servers, incoming one-sided targets).
	nic *sim.Station
	// cpu processes two-sided requests; nil for client nodes (client-side
	// receive processing is folded into the initiator weight, see Send).
	cpu *sim.Station

	recv    func(from *Node, payload any)
	regions map[string]*Region
	stats   Stats
	// sched arbitrates incoming bulk operations round-robin across
	// initiators (per-QP fairness).
	sched rrScheduler

	// flight is this node's shard's flight recorder (nil when recording
	// is off). Cached per node so the hot stamping sites index nothing:
	// every stamp runs on the node's own kernel, so each recorder keeps
	// a single writer even when shards run concurrently.
	flight *trace.FlightRecorder
	// prof is this node's shard's attribution profile (always non-nil).
	// Same single-writer argument: every increment runs on the node's
	// kernel.
	prof *ExecProfile
	// san is this node's shard's invariant checker (nil when sanitizing
	// is off); structural fabric invariants report here.
	san *sanitize.Checker
	// pool is this node's shard's freelists of verb records and payload
	// buffers (always non-nil); verbs this node initiates are taken from
	// and returned to it, on the node's kernel only.
	pool *opPool

	// qpCache models the NIC's connection cache (Config.QPCacheSize);
	// disabled (zero capacity) by default.
	qpCache qpCache
}

// ID returns the node's dense creation-order index.
func (n *Node) ID() int { return n.id }

// ctxEnd returns which end of qp this node is, as an index into
// QP.ctxSlot: 0 for the initiator — a loopback QP's one context on its
// one NIC — and 1 for the target.
func (n *Node) ctxEnd(qp *QP) uint8 {
	if qp.initiator != n {
		return 1
	}
	return 0
}

// qpPenalty charges one touch of qp's context at this node's NIC and
// returns the extra service weight the touch costs: 0 on a cache hit (or
// with the model disabled), the configured miss penalty when the context
// must be fetched from host memory.
func (n *Node) qpPenalty(qp *QP) float64 {
	c := &n.qpCache
	if c.cap == 0 {
		return 0
	}
	end := n.ctxEnd(qp)
	hit, evicted := c.touch(qp, end)
	if hit {
		n.prof.QPCacheHits++
		return 0
	}
	n.prof.QPCacheMisses++
	if n.san != nil {
		switch {
		case c.used > c.cap:
			n.san.Reportf("qp-cache", int64(n.k.Now()),
				"node %s: qp cache occupancy %d exceeds capacity %d", n.name, c.used, c.cap)
		case !c.holds(qp, end):
			n.san.Reportf("qp-cache", int64(n.k.Now()),
				"node %s: qp %d missed into slot word %d, whose slot does not point back",
				n.name, qp.id, qp.ctxSlot[end])
		case evicted != nil && evicted.ctxSlot[n.ctxEnd(evicted)] != 0:
			n.san.Reportf("qp-cache", int64(n.k.Now()),
				"node %s: evicted qp %d still holds slot word %d",
				n.name, evicted.id, evicted.ctxSlot[n.ctxEnd(evicted)])
		}
	}
	return c.penalty
}

// dispatchTag resolves a station completion tag — (queue pair, stage)
// packed into 32 bits, or stageSched for the node's own scheduler — to
// the tagged stage handler. One bound instance per node replaces the
// eight per-QP completion closures the pipeline stages used to hold, so
// connecting a queue pair no longer allocates per-stage callbacks and
// station completions dispatch through a dense table instead of
// per-object funcs.
func (n *Node) dispatchTag(tag uint32) {
	qp := n.fabric.qps[tag>>stageBits]
	switch tag & stageMask {
	case stageCtrlInit:
		qp.ctrlInitDone()
	case stageCtrlServe:
		qp.ctrlServed()
	case stageBulkInit:
		qp.bulkInitDone()
	case stageSendBulk:
		qp.sendBulkServed()
	case stageSendSrv:
		qp.sendSrvServed()
	case stageSendCPU:
		qp.sendCPUServed()
	case stageLoopCtrl:
		qp.loopCtrlServed()
	case stageLoopBulk:
		qp.loopBulkServed()
	case stageSched:
		n.sched.onServed()
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Fabric returns the fabric the node is attached to.
func (n *Node) Fabric() *Fabric { return n.fabric }

// Kernel returns the kernel the node's events run on (its shard's).
// Components owned by one node (engines, generators, the monitor) must
// schedule on this kernel, never on Fabric.Kernel directly.
func (n *Node) Kernel() *sim.Kernel { return n.k }

// Shard returns the node's shard index (0 on a one-shard fabric).
func (n *Node) Shard() int { return n.shard }

// Flight returns the node's shard's flight recorder, or nil when
// recording is off. Code running on the node's kernel — its monitor or
// engines — marks protocol events there, keeping the recorder
// single-writer at any worker count.
func (n *Node) Flight() *trace.FlightRecorder { return n.flight }

// Kind returns the node kind.
func (n *Node) Kind() NodeKind { return n.kind }

// Stats returns a snapshot of the node's verb counters.
func (n *Node) Stats() Stats { return n.stats }

// NIC exposes the node's NIC station (e.g. to adjust rates in fault or
// congestion scenarios).
func (n *Node) NIC() *sim.Station { return n.nic }

// CPU exposes the node's two-sided processing station; nil for client
// nodes.
func (n *Node) CPU() *sim.Station { return n.cpu }

// SetRecvHandler installs the handler invoked when a two-sided SEND is
// delivered to this node. For server nodes the handler runs after CPU
// processing; for client nodes it runs on NIC delivery.
func (n *Node) SetRecvHandler(h func(from *Node, payload any)) { n.recv = h }

// RegisterRegion registers size bytes of memory under name and returns the
// region capability. Registering a duplicate name is an error.
func (n *Node) RegisterRegion(name string, size int) (*Region, error) {
	if err := n.checkRegistration(name, size); err != nil {
		return nil, err
	}
	r := &Region{name: name, owner: n, size: size, buf: make([]byte, size)}
	n.regions[name] = r
	return r, nil
}

// RegisterPagedRegion registers pages*pageSize bytes under name as a paged
// region (see Region): no page holds memory until it is written, and an
// unwritten page reads as the 8-byte little-endian prefix(page) followed
// by zeros. prefix runs on the owner's kernel on every access to an
// unwritten page, so it must be cheap and, like any owner-side store,
// change its answer for a page only when the owner means to write it.
func (n *Node) RegisterPagedRegion(name string, pages, pageSize int, prefix func(page int) uint64) (*Region, error) {
	if pageSize < prefixSize || prefix == nil {
		return nil, fmt.Errorf("rdma: node %s: paged region %q needs a prefix function and pages of at least %d bytes, got %d",
			n.name, name, prefixSize, pageSize)
	}
	if pages > 0 && pageSize > math.MaxInt/pages {
		return nil, fmt.Errorf("rdma: node %s: region %q of %d pages of %d bytes overflows", n.name, name, pages, pageSize)
	}
	if err := n.checkRegistration(name, pages*pageSize); err != nil {
		return nil, err
	}
	r := &Region{
		name: name, owner: n, size: pages * pageSize,
		pageSize: pageSize, prefix: prefix,
		dir:     make([]*[chunkPages][]byte, (pages+chunkPages-1)/chunkPages),
		scratch: make([]byte, pageSize),
	}
	n.regions[name] = r
	return r, nil
}

func (n *Node) checkRegistration(name string, size int) error {
	if size <= 0 {
		return fmt.Errorf("rdma: node %s: region %q size must be positive, got %d", n.name, name, size)
	}
	if _, ok := n.regions[name]; ok {
		return fmt.Errorf("rdma: node %s: region %q already registered", n.name, name)
	}
	return nil
}

// Region looks up a registered region by name.
func (n *Node) Region(name string) (*Region, bool) {
	r, ok := n.regions[name]
	return r, ok
}

// Fabric is the simulated network: it owns the nodes and the performance
// model and schedules all verb processing on the simulation kernel.
type Fabric struct {
	cfg   Config
	nodes []*Node

	// nodeChunks and qpChunks are the slab backing stores for nodes and
	// queue pairs (see the chunk-size constants); byName indexes nodes for
	// O(1) duplicate detection, and qps indexes queue pairs by
	// their dense 1-based id (qps[0] is nil) for tag dispatch. All four
	// grow only during setup: on a sharded fabric, nodes and connections
	// must exist before the run starts (the assignment is fixed at
	// EnableSharding time), so concurrent shard kernels only ever read
	// these slices.
	nodeChunks [][]Node
	qpChunks   [][]QP
	byName     map[string]*Node
	qps        []*QP

	// flights holds one flight recorder per shard, or nil when recording
	// is off. Each recorder receives spans only from code running on its
	// shard's kernel — Begin on the initiator's shard, Finish on the shard
	// of the stamping site — so concurrent shards never share a recorder.
	// Recording only stamps
	// timestamps inside callbacks the fabric executes anyway, so the
	// kernel event sequence is unchanged (DESIGN.md §7, §11).
	flights []*trace.FlightRecorder
	// profs holds one attribution profile per shard; always non-nil. See
	// ExecProfile.
	profs []*ExecProfile
	// pools holds one pair of record/buffer freelists per shard, each
	// touched only from its shard's kernel. They start empty: nothing is
	// preallocated at setup. See opPool.
	pools []*opPool
	// qpSeq numbers queue pairs in creation order; the id is the span
	// track within the initiator's process in Chrome trace exports
	// (fabric-wide unique, so sharded exports can use it as a thread id
	// directly).
	qpSeq int

	// kernels[s] drives shard s, assign maps a node name to its shard,
	// and post hands a cross-shard event to the coordinator's mailboxes.
	// NewFabric starts with the one-shard topology ([k], everything on
	// shard 0, no post: nothing can be cross-shard); EnableSharding
	// replaces all three.
	kernels []*sim.Kernel
	assign  func(name string, kind NodeKind) int
	post    func(src, dst int, at sim.Time, fn func())

	// storms holds armed link-jitter windows (see AddLinkStorm).
	// Immutable once the run starts; empty in every non-chaos run.
	storms []wireStorm
}

// NewFabric creates a fabric on kernel k with the given performance model.
func NewFabric(k *sim.Kernel, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Fabric{
		cfg:     cfg,
		kernels: []*sim.Kernel{k},
		assign:  func(string, NodeKind) int { return 0 },
		profs:   []*ExecProfile{{}},
		pools:   []*opPool{{}},
		byName:  make(map[string]*Node),
		qps:     []*QP{nil},
	}, nil
}

// Kernel returns shard 0's kernel (the one NewFabric was given);
// per-node work must use Node.Kernel instead.
func (f *Fabric) Kernel() *sim.Kernel { return f.kernels[0] }

// EnableSharding sets the fabric's shard topology: each node is
// built on the shard kernel assign selects for it, and cross-shard
// verb traffic is routed through post (the shard coordinator's mailbox
// Post) instead of being scheduled directly — the wire latency
// PropagationDelay is the coordinator's lookahead, so every cross-shard
// hop is a legal mailbox message by construction. kernels[0] must be
// the kernel NewFabric was given. Must be called before any node is
// added; the assignment is then fixed for the fabric's lifetime, which
// keeps a sharded run replayable from its config alone.
func (f *Fabric) EnableSharding(kernels []*sim.Kernel, assign func(name string, kind NodeKind) int, post func(src, dst int, at sim.Time, fn func())) error {
	if len(f.nodes) > 0 {
		return fmt.Errorf("rdma: EnableSharding must be called before nodes are added (%d exist)", len(f.nodes))
	}
	if len(kernels) == 0 || assign == nil || post == nil {
		return fmt.Errorf("rdma: EnableSharding requires kernels, an assignment, and a post function")
	}
	if kernels[0] != f.kernels[0] {
		return fmt.Errorf("rdma: EnableSharding: kernels[0] must be the fabric's kernel")
	}
	f.kernels = kernels
	f.assign = assign
	f.post = post
	f.profs = make([]*ExecProfile, len(kernels))
	f.pools = make([]*opPool, len(kernels))
	for s := range f.profs {
		f.profs[s] = &ExecProfile{}
		f.pools[s] = &opPool{}
	}
	return nil
}

// SetFlightRecorders attaches one flight recorder per shard; every verb
// initiated from now on records a span. Each recorder is only ever
// touched by code running on its shard's kernel (spans begin on the
// initiator's recorder and finish on the recorder of the shard executing
// the final stamp), so shards may run concurrently without locks.
func (f *Fabric) SetFlightRecorders(frs []*trace.FlightRecorder) error {
	if len(frs) != len(f.kernels) {
		return fmt.Errorf("rdma: SetFlightRecorders: got %d recorders for %d shards", len(frs), len(f.kernels))
	}
	f.flights = frs
	for _, n := range f.nodes {
		n.flight = f.flightFor(n.shard)
	}
	return nil
}

// flightFor returns shard s's recorder, or nil when recording is off.
func (f *Fabric) flightFor(s int) *trace.FlightRecorder {
	if f.flights == nil {
		return nil
	}
	return f.flights[s]
}

// ExecProfiles returns a copy of the per-shard attribution profiles in
// shard order. The counters are always on — they increment alongside
// event execution and are exactly as deterministic as the event sequence
// itself.
func (f *Fabric) ExecProfiles() []ExecProfile {
	out := make([]ExecProfile, len(f.profs))
	for s, p := range f.profs {
		out[s] = *p
	}
	return out
}

// Config returns the fabric's performance model.
func (f *Fabric) Config() Config { return f.cfg }

// Nodes returns all nodes attached to the fabric.
func (f *Fabric) Nodes() []*Node { return f.nodes }

// AddClient attaches a client node.
func (f *Fabric) AddClient(name string) (*Node, error) {
	return f.addNode(name, ClientNode)
}

// AddServer attaches a data node.
func (f *Fabric) AddServer(name string) (*Node, error) {
	return f.addNode(name, ServerNode)
}

func (f *Fabric) addNode(name string, kind NodeKind) (*Node, error) {
	if _, ok := f.byName[name]; ok {
		return nil, fmt.Errorf("rdma: node %q already exists", name)
	}
	if kind != ClientNode && kind != ServerNode {
		return nil, fmt.Errorf("rdma: unknown node kind %v", kind)
	}
	shard := f.assign(name, kind)
	if shard < 0 || shard >= len(f.kernels) {
		return nil, fmt.Errorf("rdma: node %q assigned to shard %d, have %d shards", name, shard, len(f.kernels))
	}
	// Allocate the node out of the current slab chunk; chunks never grow
	// past their fixed capacity, so &chunk[i] stays valid forever.
	if len(f.nodeChunks) == 0 || len(f.nodeChunks[len(f.nodeChunks)-1]) == nodeChunkSize {
		f.nodeChunks = append(f.nodeChunks, make([]Node, 0, nodeChunkSize))
	}
	chunk := &f.nodeChunks[len(f.nodeChunks)-1]
	*chunk = append(*chunk, Node{
		fabric:  f,
		name:    name,
		kind:    kind,
		id:      len(f.byName),
		k:       f.kernels[shard],
		shard:   shard,
		regions: make(map[string]*Region),
	})
	n := &(*chunk)[len(*chunk)-1]
	n.flight = f.flightFor(n.shard)
	n.prof = f.profs[n.shard]
	n.pool = f.pools[n.shard]
	n.sched.node = n
	n.qpCache.init(f.cfg.QPCacheSize, f.cfg.QPCacheMissPenalty)
	var err error
	switch kind {
	case ClientNode:
		n.nic, err = sim.NewStation(n.k, name+"/nic", f.cfg.ClientOneSidedRate, f.cfg.Jitter)
	case ServerNode:
		n.nic, err = sim.NewStation(n.k, name+"/nic", f.cfg.ServerOneSidedRate, f.cfg.Jitter)
		if err == nil {
			n.cpu, err = sim.NewStation(n.k, name+"/cpu", f.cfg.ServerTwoSidedRate, f.cfg.Jitter)
		}
	}
	if err != nil {
		*chunk = (*chunk)[:len(*chunk)-1]
		return nil, err
	}
	dispatch := n.dispatchTag
	n.nic.SetDispatch(dispatch)
	if n.cpu != nil {
		n.cpu.SetDispatch(dispatch)
	}
	f.byName[name] = n
	f.nodes = append(f.nodes, n)
	return n, nil
}

// SetSanitizers attaches one invariant checker per shard to the fabric's
// structural checks, or detaches them with nil. Must be called after the
// nodes exist and before the run starts.
func (f *Fabric) SetSanitizers(cs []*sanitize.Checker) error {
	if cs != nil && len(cs) != len(f.kernels) {
		return fmt.Errorf("rdma: SetSanitizers: got %d checkers for %d shards", len(cs), len(f.kernels))
	}
	for _, n := range f.nodes {
		if cs == nil {
			n.san = nil
		} else {
			n.san = cs[n.shard]
		}
	}
	return nil
}

// Connect creates a queue pair from initiator to target. Queue pairs are
// slab-allocated and indexed by their dense id for tag dispatch; on a
// sharded fabric all connections must be made before the run starts (the
// index is then read concurrently by the shard kernels).
func (f *Fabric) Connect(initiator, target *Node) (*QP, error) {
	if initiator == nil || target == nil {
		return nil, fmt.Errorf("rdma: Connect requires two non-nil nodes")
	}
	if initiator.fabric != f || target.fabric != f {
		return nil, fmt.Errorf("rdma: Connect across fabrics (%s -> %s)", initiator.name, target.name)
	}
	f.qpSeq++
	if len(f.qpChunks) == 0 || len(f.qpChunks[len(f.qpChunks)-1]) == qpChunkSize {
		f.qpChunks = append(f.qpChunks, make([]QP, 0, qpChunkSize))
	}
	chunk := &f.qpChunks[len(f.qpChunks)-1]
	*chunk = append(*chunk, QP{
		fabric:    f,
		id:        f.qpSeq,
		initiator: initiator,
		target:    target,
		window:    f.cfg.FlowControlWindow,
		cross:     initiator.shard != target.shard,
	})
	qp := &(*chunk)[len(*chunk)-1]
	qp.bindStages()
	f.qps = append(f.qps, qp)
	return qp, nil
}

// wireStorm is a jitter window on every wire hop: while the virtual
// clock is inside [from, to) each hop pays a uniformly drawn extra delay
// in [0, extra] on top of PropagationDelay. Storms are armed before the
// run starts and never mutated afterwards, so concurrent shard kernels
// may read the slice without synchronization; the random draw itself
// always comes from the executing kernel's own RNG, which keeps sharded
// runs byte-replayable.
type wireStorm struct {
	from, to sim.Time
	extra    sim.Time
}

// AddLinkStorm arms a link-jitter storm: between from and to every wire
// hop is stretched by a per-hop uniform extra delay in [0, extra]. Must
// be called before the run starts (fault scenarios compile their storms
// at cluster setup).
func (f *Fabric) AddLinkStorm(from, to, extra sim.Time) error {
	if extra <= 0 {
		return fmt.Errorf("rdma: link storm extra delay must be positive, got %v", extra)
	}
	if to <= from {
		return fmt.Errorf("rdma: link storm window [%v, %v) is empty", from, to)
	}
	f.storms = append(f.storms, wireStorm{from: from, to: to, extra: extra})
	return nil
}

// wireExtra returns the extra wire delay active at k.Now(), drawing from
// the executing kernel's RNG. With no storms armed it returns 0 without
// touching the RNG, so runs without chaos keep their exact event and
// random sequences.
func (f *Fabric) wireExtra(k *sim.Kernel) sim.Time {
	if len(f.storms) == 0 {
		return 0
	}
	now := k.Now()
	var extra sim.Time
	for _, s := range f.storms {
		if now >= s.from && now < s.to {
			extra += sim.Time(k.Rand().Int63n(int64(s.extra) + 1))
		}
	}
	return extra
}

// twoSidedExtraWeight is the additional initiation cost of a two-sided
// operation at a client NIC, derived from the calibrated one- and
// two-sided per-client rates: a closed-loop two-sided 4 KB GET should cost
// ClientOneSidedRate/ClientTwoSidedRate service units end to end.
func (f *Fabric) twoSidedExtraWeight() float64 {
	w := f.cfg.ClientOneSidedRate/f.cfg.ClientTwoSidedRate - 1
	if w < 0 {
		w = 0
	}
	return w
}
