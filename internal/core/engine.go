package core

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sanitize"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// IOSender performs the actual one-sided data I/O once the engine has a
// token for it (e.g. a kvstore one-sided GET). arrivedAt is the request's
// completion cookie: when the I/O completes the sender's owner hands it to
// Engine.OnIODone, exactly once per I/O and in post order.
type IOSender func(key uint64, arrivedAt sim.Time)

// ClientGrant is what admission hands a client: its identity and the
// capabilities needed to participate in the protocol.
type ClientGrant struct {
	// ID is the client's index in the monitor's report table.
	ID int
	// ServerNode is the data node.
	ServerNode *rdma.Node
	// QoSRegion holds the global token cell and report table.
	QoSRegion *rdma.Region
}

// Source hands the engine the key of its next request at the moment the
// engine posts it. arrivedAt is the instant that request was announced with
// Arrive; requests are pulled in arrival order.
type Source func(arrivedAt sim.Time) (key uint64)

// Engine is the client-side QoS engine (Section II-D): it admits
// application requests only when backed by a token, manages the
// reservation-token decay (the X counter), claims batched global tokens
// with one-sided FETCH_ADD, and silently reports usage statistics.
type Engine struct {
	// params is shared with every other engine of the deployment; nothing
	// writes it once the engine exists.
	params *Params
	id     int
	limit  int64

	k         *sim.Kernel
	node      *rdma.Node
	qp        *rdma.QP
	qos       *rdma.Region
	reportOff int
	sender    IOSender
	source    Source
	complete  func(arrivedAt sim.Time) // the source's completion entry point

	// Period state. open is the period's ledger row, the one record of its
	// token flow (its Period is the engine's period index); stats sums the
	// closed rows and the lifetime protocol counters.
	open        LedgerRow
	stats       EngineStats
	periodEnd   sim.Time
	resTokens   int64   // xi_reservation
	localGlobal int64   // claimed, unspent global tokens
	x           float64 // the X counter: upper bound on residual reservation
	faaInFlight bool
	crashed     bool
	// poolExhausted is set when a claim observed a non-positive pool;
	// until a probe sees tokens again, retries read the cell with a
	// zero-delta FETCH_ADD instead of digging it further negative.
	poolExhausted bool
	reporting     bool
	rejoinPending bool // restarted, waiting for the next period push
	degraded      bool // in local-token mode (see faultRecord)

	// Demand the engine has not posted yet is a count, not a list: waiting
	// holds arrivals not yet backed by a token, backed those that consumed
	// one and await a send-queue slot. A request becomes a key only when
	// pump pulls it from the source; once posted, the engine keeps nothing of
	// it but the count inflight (bounded by Params.SendQueueDepth) — its
	// arrival instant rides down with the I/O and comes back in OnIODone.
	// The count deliberately survives Crash: in-flight I/Os were on the wire
	// and may legally complete.
	waiting  sim.Instants
	backed   sim.Instants
	inflight int

	// Bound callbacks and their per-issue state, created once so the
	// steady-state token path (claims, probes, retries, reports) schedules
	// no per-operation closures. faaInFlight guarantees at most one
	// claim/probe outstanding, so faaPI/faaProbe are unambiguous; the
	// jittered retry fires within its own tick, so at most one is
	// outstanding and retryPI is likewise single-slotted.
	reportFn     func()
	reportTickFn func()
	onFAAFn      func(int64)
	onProbeFn    func(int64)
	retryFn      func()
	faaPI        int32
	faaProbe     bool
	retryPI      int32

	// convert mirrors the monitor's conversion mode: when true, tokens
	// yielded by the X-counter decay are returned to the global pool
	// with a one-sided FETCH_ADD (+y); when false (Basic Haechi) they
	// are wasted.
	convert bool

	tick *sim.Ticker
	// reportTimer is the next periodic report once the monitor has asked
	// for them (see reportTick); finalReportTimer the end-of-period one.
	reportTimer      sim.Timer
	finalReportTimer sim.Timer

	// fault is the crash and degraded-mode state, nil until the engine
	// first crashes or degrades (see faultRecord): only chaos runs need
	// it.
	fault *faultRecord

	// OnPeriodStart, if set, is invoked when a new QoS period begins
	// (after tokens are installed) with the row the push closed; the
	// workload generator hooks it, and the cluster stores the rows.
	OnPeriodStart func(index int, closed LedgerRow)

	// san, when non-nil, checks completions after a crash and the order
	// of period pushes (internal/sanitize).
	san *sanitize.Checker
}

// faultRecord is an engine's crash/restart and degraded-mode state.
// Tokens held at crash time are quarantined — not vanished — so the
// per-period conservation identity keeps holding through the crash
// window; the quarantine is released when the expired period finally
// rolls over after a restart. Degraded local-token mode is entered when
// the monitor goes silent (no period push past the grace window): normal
// global-pool claims are suppressed — the stale period's pool must not
// be dug further — and the engine probes the pool on bounded doubling
// backoff instead, serving demand from whatever local tokens remain.
type faultRecord struct {
	stats         FaultStats
	crashInflight int // I/Os in flight at crash time (may legally complete)
	degradedSince sim.Time
	probeBackoff  sim.Time
	nextProbeAt   sim.Time
}

// faults returns the engine's fault record, allocating it on the first
// crash or degrade.
func (e *Engine) faults() *faultRecord {
	if e.fault == nil {
		e.fault = &faultRecord{}
	}
	return e.fault
}

// mark records a protocol event (claims, probes, yields, reports,
// throttling) in the client node's shard's flight recorder, when
// recording is on.
func (e *Engine) mark(k trace.Kind, a, b int64) {
	if fr := e.node.Flight(); fr != nil {
		fr.Mark(e.k.Now(), k, trace.EngineActor(e.id), a, b)
	}
}

// NewEngine creates and starts a QoS engine on node for the admitted
// client described by grant. limit is L_i, the per-period request cap
// (0 = unlimited). sender performs the one-sided data I/O. disp is the
// client node's dispatcher, used to receive the monitor's control
// messages. The engine keeps params, which the caller may share among
// engines and must not change afterwards.
func NewEngine(params *Params, grant ClientGrant, node *rdma.Node, disp *rdma.Dispatcher, limit int64, sender IOSender) (*Engine, error) {
	if params == nil {
		return nil, fmt.Errorf("core: NewEngine requires params")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if node == nil || disp == nil || sender == nil {
		return nil, fmt.Errorf("core: NewEngine requires node, dispatcher and sender")
	}
	if grant.ServerNode == nil || grant.QoSRegion == nil {
		return nil, fmt.Errorf("core: NewEngine requires a complete grant (was the client admitted?)")
	}
	if limit < 0 {
		return nil, fmt.Errorf("core: limit must be non-negative, got %d", limit)
	}
	qp, err := node.Fabric().Connect(node, grant.ServerNode)
	if err != nil {
		return nil, fmt.Errorf("core: connecting engine to data node: %w", err)
	}
	e := &Engine{
		params:    params,
		id:        grant.ID,
		limit:     limit,
		k:         node.Kernel(),
		node:      node,
		qp:        qp,
		qos:       grant.QoSRegion,
		reportOff: reportSlotOffset(grant.ID),
		sender:    sender,
	}
	// Handlers are scoped to this engine's data node, so several engines
	// (one per server in a multi-server deployment) can share one client
	// node's dispatcher.
	if err := disp.HandleFrom(msgPeriodStart, grant.ServerNode, e.handlePeriodStart); err != nil {
		return nil, err
	}
	if err := disp.HandleFrom(msgReportOn, grant.ServerNode, e.handleReportOn); err != nil {
		return nil, err
	}
	e.reportFn = e.report
	e.reportTickFn = e.reportTick
	e.onFAAFn = e.onFAA
	e.onProbeFn = e.onProbe
	e.retryFn = e.retryClaim
	e.tick, err = e.k.Every(params.Tick, params.Tick, e.onTick)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// ID returns the client's identity in the monitor's table.
func (e *Engine) ID() int { return e.id }

// SetSource installs the source the engine pulls keys from and the
// function it reports each completed request to (by arrival instant). Both
// must be set before the first Arrive.
func (e *Engine) SetSource(next Source, complete func(arrivedAt sim.Time)) {
	e.source, e.complete = next, complete
}

// Arrive announces n application I/Os arriving now. Each is posted as soon
// as the engine holds a token for it; until then it waits as part of a
// count ("The I/O sender function in the QoS engine will reject I/Os that
// are not backed by a token"). The dispatch path runs once per arrival, as
// if the n had been announced one by one, so claims, throttle counts and
// posts are those of n single arrivals; what n arrivals do not cost is n
// of anything stored.
func (e *Engine) Arrive(n uint64) {
	if e.crashed {
		return
	}
	e.stats.TotalRequested += n
	now := e.k.Now()
	for ; n > 0; n-- {
		e.waiting.Push(now)
		e.drain()
	}
}

// Pending returns the number of requests waiting for tokens.
func (e *Engine) Pending() int { return e.waiting.Len() }

// ReservationTokens returns the current xi_reservation.
func (e *Engine) ReservationTokens() int64 { return e.resTokens }

// LocalGlobalTokens returns claimed-but-unspent global tokens.
func (e *Engine) LocalGlobalTokens() int64 { return e.localGlobal }

// Stop halts the engine's tickers. Arrivals still waiting stay counted in
// Pending; without the tick nothing claims tokens for them any more.
func (e *Engine) Stop() {
	e.tick.Stop()
	e.reportTimer.Cancel()
	e.finalReportTimer.Cancel()
}

// Crash simulates a client failure for fault injection: the engine stops
// all protocol activity (ticks, reports, claims) and silently drops its
// unposted and future arrivals — they were counts, so nothing of them
// remains in the engine or its source. The monitor's failure detection
// should reclaim the client's reservation after its grace window. Held
// tokens move into quarantine so the conservation identity survives the
// crash window; I/Os already posted to the NIC may still complete (they
// were on the wire), but any completion beyond that count is a protocol
// violation (the "post-crash-completion" invariant).
func (e *Engine) Crash() {
	if e.crashed {
		return
	}
	e.crashed = true
	f := e.faults()
	f.stats.Crashes++
	f.stats.CrashAt = e.k.Now()
	e.Stop()
	if e.degraded {
		e.leaveDegraded()
	}
	f.stats.QuarantinedRes += e.resTokens
	f.stats.QuarantinedGlobal += e.localGlobal
	e.resTokens = 0
	e.localGlobal = 0
	f.crashInflight = e.inflight
	f.stats.PostCrashCompletions = 0
	e.waiting = sim.Instants{}
	e.backed = sim.Instants{}
}

// Row returns the open period's ledger row as of now, its held and
// quarantined reservation tokens filled in.
func (e *Engine) Row() LedgerRow {
	r := e.open
	r.Held, r.Quarantined = int32(e.resTokens), int32(e.FaultStats().QuarantinedRes)
	return r
}

// Restart revives a crashed engine (the recovery half of the chaos
// layer): the engine rejoins with no tokens, treats the stale global pool
// as exhausted until the monitor's next period push resynchronizes it,
// restarts its token-management tick, and writes one recovery heartbeat
// so the monitor's liveness scan reinstates the reservation at the next
// period end. The pre-crash period's row stays open, unchanged, until that
// rollover or the run's end, so the conservation identity — which now
// includes the quarantined tokens — stays exact.
func (e *Engine) Restart() error {
	if !e.crashed {
		return fmt.Errorf("core: Restart requires a crashed engine")
	}
	e.crashed = false
	f := e.faults()
	f.stats.Restarts++
	f.stats.RestartAt = e.k.Now()
	e.rejoinPending = true
	e.resTokens = 0
	e.localGlobal = 0
	e.x = 0
	e.poolExhausted = true // stale pool: probe, don't claim, until resync
	e.reporting = false
	t, err := e.k.Every(e.params.Tick, e.params.Tick, e.onTick)
	if err != nil {
		return err
	}
	e.tick = t
	// Recovery heartbeat: a flagged report word that cannot collide with
	// any seed, regular report, or tombstone, so the slot is guaranteed
	// to flip and the monitor reinstates the reservation at the next
	// period end (re-registration stays one-sided, like all
	// client-to-server traffic).
	done := int64(e.open.Completed)
	w := PackReport(0, clampUint32(done)|recoveryFlag)
	if err := e.qp.WriteUint64(e.qos, e.reportOff, w, nil); err == nil {
		e.stats.ReportsSent++
		e.mark(trace.Report, 0, done)
	}
	return nil
}

// EngineStats is a snapshot of protocol-overhead counters.
type EngineStats struct {
	TotalRequested  uint64
	TotalCompleted  uint64
	FAAIssued       uint64
	ReportsSent     uint64
	TokensYielded   int64
	TokensReturned  int64
	LimitThrottled  uint64
	ReservationUsed int64
	GlobalConsumed  int64
}

// Stats returns the engine's protocol counters: the lifetime ones, and
// the ledger columns summed over the closed rows and the open one.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.fold(e.open)
	return s
}

// fold adds ledger row r's columns to the totals they sum into.
func (s *EngineStats) fold(r LedgerRow) {
	s.TotalCompleted += uint64(r.Completed)
	s.TokensYielded += int64(r.Yielded)
	s.TokensReturned += int64(r.Returned)
	s.ReservationUsed += int64(r.ResUsed)
	s.GlobalConsumed += int64(r.PoolUsed)
}

// FaultStats is the engine's crash/recovery and degraded-mode accounting
// (all zero unless faults were injected). Results.Faults reports it per
// client as is (cluster.ClientFaults embeds it).
type FaultStats struct {
	// Crashes and Restarts count fault transitions; CrashAt, RestartAt and
	// RejoinAt are the most recent transition instants (0 = never).
	// RejoinAt is when the first post-restart period push arrived,
	// RejoinPeriod its period.
	Crashes      int
	Restarts     int
	CrashAt      sim.Time
	RestartAt    sim.Time
	RejoinPeriod int
	RejoinAt     sim.Time
	// QuarantineReleased counts crash-quarantined tokens released at
	// period rollovers after restarts; QuarantinedRes/QuarantinedGlobal are
	// tokens still held in quarantine (at run end: a run that ends
	// mid-crash).
	QuarantineReleased int64
	QuarantinedRes     int64
	QuarantinedGlobal  int64
	// PostCrashCompletions counts completions delivered while crashed
	// (legal up to the crash-time in-flight window).
	PostCrashCompletions int64
	// DegradedSpells, DegradedTime and DegradedProbes account local-token
	// mode during monitor silence.
	DegradedSpells int
	DegradedTime   sim.Time
	DegradedProbes uint64
}

// FaultStats returns the engine's crash/recovery counters.
func (e *Engine) FaultStats() FaultStats {
	if e.fault == nil {
		return FaultStats{}
	}
	return e.fault.stats
}

// drain admits waiting arrivals while tokens allow (Fig. 3 flowchart):
// each admitted request consumes one token — Example 1's accounting, where
// the residual reservation is R minus the demand already admitted — and
// moves to the token-backed count, which pump posts at send-queue pace.
func (e *Engine) drain() {
	defer e.pump()
	for e.waiting.Len() > 0 {
		if e.limit > 0 && int64(e.open.ResUsed+e.open.PoolUsed) >= e.limit {
			// Limit reached: throttle until the next period.
			e.stats.LimitThrottled++
			e.mark(trace.LimitThrottle, e.limit, 0)
			return
		}
		switch {
		case e.resTokens > 0:
			e.resTokens--
			e.open.ResUsed++
		case e.localGlobal > 0:
			e.localGlobal--
			e.open.PoolUsed++
		default:
			// While the pool is known-exhausted, only the tick's jittered
			// retry probes it (step T4: the client waits for returned
			// tokens or the next period); claiming on every arrival would
			// turn the data node's NIC into an atomics hot spot. In
			// degraded mode claims are suppressed entirely — the stale
			// period's pool must not be consumed.
			if !e.poolExhausted && !e.degraded {
				e.ensureFAA()
			}
			return
		}
		e.backed.Push(e.waiting.Pop())
	}
}

// pump posts token-backed I/Os to the NIC up to the send-queue depth. This
// is where a request materialises: the source draws its key here, so what
// is held per posted request is bounded by the send-queue depth.
func (e *Engine) pump() {
	for e.inflight < e.params.SendQueueDepth && e.backed.Len() > 0 {
		e.inflight++
		at := e.backed.Pop()
		e.sender(e.source(at), at)
	}
}

// OnIODone completes the in-flight I/O whose request arrived at arrivedAt
// (the cookie its IOSender call carried).
func (e *Engine) OnIODone(arrivedAt sim.Time) {
	e.inflight--
	if e.crashed {
		// I/Os on the wire at crash time complete at the server
		// regardless, but the dead client cannot observe them; any
		// completion beyond that in-flight count is a protocol
		// violation.
		e.noteCrashedCompletion()
		e.complete(arrivedAt)
		return
	}
	e.open.Completed++
	e.complete(arrivedAt)
	e.pump()
}

// noteCrashedCompletion accounts one I/O completion delivered to a
// crashed engine and checks the no-completion-after-crash invariant:
// only the I/Os in flight at crash time may legally complete.
func (e *Engine) noteCrashedCompletion() {
	f := e.faults()
	f.stats.PostCrashCompletions++
	if e.san != nil && f.stats.PostCrashCompletions > int64(f.crashInflight) {
		e.san.Reportf("post-crash-completion", int64(e.k.Now()),
			"engine-%d: %d completions after crash at t=%d exceed the %d in flight",
			e.id, f.stats.PostCrashCompletions, int64(f.stats.CrashAt), f.crashInflight)
	}
}

// DebugInjectPostCrashCompletion simulates a completion delivered to a
// crashed engine beyond its in-flight window — a deliberate break of the
// no-completion-after-crash invariant. It exists only so the sanitizer
// regression test can prove the violation is caught; nothing in the
// protocol calls it.
func (e *Engine) DebugInjectPostCrashCompletion() {
	e.faults().crashInflight = 0
	e.noteCrashedCompletion()
}

// ensureFAA claims a batch of global tokens with a single remote atomic,
// unless a claim is already in flight or no period has started.
func (e *Engine) ensureFAA() {
	if e.faaInFlight || e.open.Period == 0 {
		return
	}
	e.faaInFlight = true
	e.stats.FAAIssued++
	e.faaPI = e.open.Period
	delta := -e.params.Batch
	e.faaProbe = false
	if e.poolExhausted {
		// Probe only: a zero-delta FETCH_ADD reads the pool without
		// consuming it, so starved clients do not dig the cell negative
		// while waiting for conversion or the next period.
		delta = 0
		e.faaProbe = true
	}
	if err := e.qp.FetchAdd(e.qos, globalTokenOff, delta, e.onFAAFn); err != nil {
		e.faaInFlight = false
	}
}

// onFAA completes a global-token claim or exhaustion probe. faaInFlight
// admits one outstanding FETCH_ADD, so the bound-callback state
// (faaPI, faaProbe) is unambiguous and claiming allocates nothing.
func (e *Engine) onFAA(old int64) {
	e.faaInFlight = false
	if e.faaPI != e.open.Period {
		// The claim straddled a period boundary: its tokens belonged
		// to the previous period's budget and are void. Re-enter the
		// dispatch path so pending demand claims against the current
		// period instead of stalling until the next tick.
		e.drain()
		return
	}
	if old <= 0 {
		// Step T4: the unreserved capacity is exhausted; wait for
		// the monitor to convert tokens or for the next period. The
		// tick keeps probing while demand is pending.
		e.poolExhausted = true
		e.mark(trace.Probe, old, 0)
		return
	}
	if e.faaProbe {
		// The probe found tokens: switch back to claiming.
		e.poolExhausted = false
		e.mark(trace.Probe, old, 0)
		e.ensureFAA()
		return
	}
	granted := old
	if granted > e.params.Batch {
		granted = e.params.Batch
	} else {
		// Partial batch: the pool is in its conversion-trickle
		// regime. Back off to probing so one fast claim loop cannot
		// camp on the pool and starve other clients of converted
		// tokens (competition for global tokens stays fair).
		e.poolExhausted = true
	}
	e.localGlobal += granted
	e.open.Claimed += int32(granted)
	e.mark(trace.Claim, old, granted)
	e.drain()
}

// onTick is the token-management thread (Section II-D): decay X at rate
// r_i = R_i/T and yield reservation tokens the client is not earning with
// demand; also retry the global-token claim while requests wait.
func (e *Engine) onTick() {
	if e.open.Period == 0 {
		return
	}
	if !e.degraded && e.k.Now() > e.periodEnd+2*e.params.CheckInterval {
		// The monitor went silent: the period is overdue past the grace
		// window (a fresh push normally lands within a propagation delay
		// of the period end). Degrade to local-token mode — serve from
		// whatever reservation tokens remain, never claim from the stale
		// pool, and probe it on bounded backoff until the next push.
		e.degraded = true
		f := e.faults()
		f.degradedSince = e.k.Now()
		f.stats.DegradedSpells++
		f.probeBackoff = e.params.Tick
		f.nextProbeAt = e.k.Now()
	}
	e.x -= float64(e.params.Tick) / float64(e.params.Period) * float64(e.open.Granted)
	if e.x < 0 {
		e.x = 0
	}
	if xi := int64(e.x); e.resTokens > xi {
		y := e.resTokens - xi
		e.open.Yielded += int32(y)
		e.resTokens = xi
		returned := int64(0)
		if e.convert {
			// Return the yielded tokens to the global pool (Section
			// II-B: "clients ... return their reservation tokens to the
			// global pool") with a silent one-sided atomic.
			_ = e.qp.FetchAdd(e.qos, globalTokenOff, y, nil)
			e.open.Returned += int32(y)
			returned = y
		}
		e.mark(trace.Yield, y, returned)
	}
	if e.degraded {
		if f := e.fault; e.Pending() > 0 && e.k.Now() >= f.nextProbeAt {
			f.stats.DegradedProbes++
			e.probePool()
			f.probeBackoff *= 2
			if f.probeBackoff > e.params.Period {
				f.probeBackoff = e.params.Period
			}
			f.nextProbeAt = e.k.Now() + f.probeBackoff
		}
		return
	}
	if e.Pending() > 0 && e.resTokens == 0 && e.localGlobal == 0 {
		// Jitter the retry within the tick so competing clients probe the
		// pool in varying order rather than a fixed creation order. The
		// delay is strictly below the tick, so at most one retry is
		// outstanding and the bound retryFn's retryPI slot is unambiguous.
		delay := sim.Time(e.k.Rand().Int63n(int64(e.params.Tick)))
		e.retryPI = e.open.Period
		e.k.Schedule(delay, e.retryFn)
	}
}

// retryClaim is the tick's jittered claim retry; it re-checks the
// conditions at fire time (the period may have rolled or tokens arrived).
func (e *Engine) retryClaim() {
	if e.retryPI == e.open.Period && e.Pending() > 0 && e.resTokens == 0 && e.localGlobal == 0 {
		e.ensureFAA()
	}
}

// probePool reads the global-token cell with a zero-delta FETCH_ADD
// without acting on the result — the degraded-mode heartbeat against the
// data node while the monitor is silent.
func (e *Engine) probePool() {
	if e.faaInFlight || e.open.Period == 0 {
		return
	}
	e.faaInFlight = true
	e.stats.FAAIssued++
	if err := e.qp.FetchAdd(e.qos, globalTokenOff, 0, e.onProbeFn); err != nil {
		e.faaInFlight = false
	}
}

// onProbe completes a degraded-mode pool heartbeat.
func (e *Engine) onProbe(old int64) {
	e.faaInFlight = false
	e.mark(trace.Probe, old, 0)
}

// leaveDegraded closes a degraded-mode window and accounts its duration.
func (e *Engine) leaveDegraded() {
	e.degraded = false
	e.fault.stats.DegradedTime += e.k.Now() - e.fault.degradedSince
}

// report writes the packed (residual, completed) word silently to the
// monitor's table. The residual is "the number of remaining reservation
// I/Os for the rest of the period" — the unconsumed reservation tokens,
// exactly Example 1's accounting (R minus the greater of demand and the
// linear entitlement rho).
func (e *Engine) report() {
	done := int64(e.open.Completed)
	w := PackReport(clampUint32(e.resTokens), clampUint32(done))
	if err := e.qp.WriteUint64(e.qos, e.reportOff, w, nil); err == nil {
		e.stats.ReportsSent++
		e.mark(trace.Report, e.resTokens, done)
	}
}

// SetSanitizer installs the invariant checker consulted at period pushes
// and at completions after a crash. Nil (the default) disables the
// checks.
func (e *Engine) SetSanitizer(c *sanitize.Checker) { e.san = c }

// DebugDropReservationTokens silently discards up to n reservation
// tokens without recording them as used or yielded — a deliberate break
// of the conservation identity. It exists only so a regression test can
// prove the ledger check catches a real token leak; nothing in the
// protocol calls it.
func (e *Engine) DebugDropReservationTokens(n int64) {
	if n > e.resTokens {
		n = e.resTokens
	}
	if n > 0 {
		e.resTokens -= n
	}
}

func (e *Engine) handlePeriodStart(_ *rdma.Node, msg rdma.Message) {
	if e.crashed {
		return
	}
	m := periodStartOf(msg)
	if e.san != nil && m.Index <= int(e.open.Period) {
		// Rejoin monotonicity: the monitor's period pushes arrive in FIFO
		// order per QP and the period counter only ever increments, so a
		// repeated or regressed index means the recovery path replayed a
		// period.
		e.san.Reportf("rejoin-monotonic", int64(e.k.Now()),
			"engine-%d: period push %d not after current period %d",
			e.id, m.Index, e.open.Period)
	}
	// Close the finished period's row (before the first push, the empty
	// row of period 0).
	closed := e.Row()
	e.stats.fold(closed)
	if e.degraded {
		e.leaveDegraded()
	}
	if f := e.fault; f != nil && (f.stats.QuarantinedRes > 0 || f.stats.QuarantinedGlobal > 0) {
		// The quarantined tokens' period is over: they expired with it (the
		// monitor re-seeds reservations every period), so release them.
		f.stats.QuarantineReleased += f.stats.QuarantinedRes + f.stats.QuarantinedGlobal
		f.stats.QuarantinedRes, f.stats.QuarantinedGlobal = 0, 0
	}
	if e.rejoinPending { // set by Restart, after a crash made the record
		e.rejoinPending = false
		e.fault.stats.RejoinPeriod = m.Index
		e.fault.stats.RejoinAt = e.k.Now()
	}
	e.open = LedgerRow{Period: int32(m.Index), Granted: int32(m.Reservation)}
	e.periodEnd = sim.Time(m.EndAt)
	e.convert = m.Convert
	e.resTokens = m.Reservation // fresh tokens replace any leftovers
	e.localGlobal = 0           // unspent global tokens expire with the period
	e.x = float64(m.Reservation)
	e.poolExhausted = false
	e.reporting = false
	e.reportTimer.Cancel()
	// Schedule the end-of-period report that feeds Algorithm 1 (see
	// DESIGN.md note 1) one check interval before the period closes.
	e.finalReportTimer.Cancel()
	finalAt := sim.Time(m.EndAt) - e.params.CheckInterval
	e.finalReportTimer = e.k.At(finalAt, e.reportFn)
	if e.OnPeriodStart != nil {
		e.OnPeriodStart(m.Index, closed)
	}
	e.drain()
}

func (e *Engine) handleReportOn(_ *rdma.Node, m rdma.Message) {
	if e.crashed || int32(m.Seq) != e.open.Period || e.reporting {
		return
	}
	e.reporting = true
	e.report()
	e.reportTimer = e.k.Schedule(e.params.ReportInterval, e.reportTickFn)
}

// reportTick is one periodic report, re-armed every ReportInterval until
// the next period start or Stop cancels it. Reports are suppressed in the
// final check interval: the scheduled end-of-period report covers it, and
// a tick racing the next period's token push must not overwrite the
// monitor's freshly seeded report slot with stale last-period statistics.
func (e *Engine) reportTick() {
	if e.reporting && e.k.Now() < e.periodEnd-e.params.CheckInterval {
		e.report()
	}
	e.reportTimer = e.k.Schedule(e.params.ReportInterval, e.reportTickFn)
}
