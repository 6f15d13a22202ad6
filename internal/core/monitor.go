package core

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sanitize"
	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/trace"
)

// monitorClient is the monitor's bookkeeping for one admitted client.
type monitorClient struct {
	id          int
	node        *rdma.Node
	reservation int64
	qp          *rdma.QP // data node -> client, for token pushes

	// Failure detection: lastWord is the report slot's content at the
	// previous period end; stalePeriods counts consecutive periods
	// without any slot change; suspected marks a client presumed crashed.
	// suspectedAt/reinstatedAt are the most recent transition times
	// (zero if the transition never happened).
	lastWord     uint64
	stalePeriods int
	suspected    bool
	suspectedAt  sim.Time
	reinstatedAt sim.Time
	// violated marks that Definition 2's runtime local-capacity
	// condition failed for this client in the current period.
	violated bool
}

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// WithoutConversion disables step T2 (token conversion), producing the
// paper's "Basic Haechi" comparison system: unused reservation tokens are
// simply wasted.
func WithoutConversion() MonitorOption {
	return func(m *Monitor) { m.convert = false }
}

// failureGracePeriods is how many consecutive QoS periods a client's
// report slot may stay static before failure detection suspects it.
const failureGracePeriods = 2

// WithFailureDetection makes the monitor treat a client as failed after
// its report slot has been static for failureGracePeriods consecutive QoS
// periods (its end-of-period report is the heartbeat): the client stops
// receiving reservation tokens and its reservation returns to the pool
// until it reports again. This extends the paper (which assumes
// well-behaved clients) to tolerate client crashes without stranding
// reserved capacity.
func WithFailureDetection() MonitorOption {
	return func(m *Monitor) { m.detectFailures = true }
}

// Monitor is the data-node QoS monitor (Section II-E): per-period token
// generation and dispatch, global-pool monitoring, token conversion, and
// adaptive capacity estimation.
type Monitor struct {
	params Params
	k      *sim.Kernel
	node   *rdma.Node
	region *rdma.Region
	loop   *rdma.QP // loopback verbs on the token cell
	est    *CapacityEstimator
	adm    *AdmissionController

	convert        bool
	detectFailures bool

	// slots is the report table's length: how many clients Admit accepts.
	slots int
	// clients is a dense value slab indexed by client id: admission only
	// ever appends, nothing retains element pointers across an append, and
	// iteration walks one contiguous array even at fleet scale.
	clients []monitorClient

	running     bool
	periodStart sim.Time
	reporting   bool
	// rows is the monitor's ledger, one row per period from the first; the
	// last is the open period's, and the period index is its length.
	rows []MonitorRow

	// Pool samples (check) ride the loopback QP, whose control verbs
	// complete in issue order; a sample still in flight when a period
	// begins is stale. sampling counts the samples in flight and stale the
	// oldest of them that began before the current period, so the bound
	// completion needs no per-sample state however many are in flight.
	sampling, stale int
	// The loop callbacks, bound once so no period or check allocates.
	checkFn, endPeriodFn, resumeFn func()
	onSampleFn                     func(old int64)

	// Outage state (fault injection): while paused the period machine and
	// the check loop are stopped; one-sided client traffic against the QoS
	// region is unaffected (the data node's memory stays served).
	paused      bool
	outages     int
	outageSince sim.Time
	outageNs    int64

	checkTicker *sim.Ticker
	periodTimer sim.Timer

	// ConversionCount counts token-conversion writes (step T2).
	ConversionCount uint64
	// ReportSignals counts report-on broadcasts (step S3).
	ReportSignals uint64
	// FailureSuspicions and FailureRecoveries count failure-detection
	// transitions (WithFailureDetection).
	FailureSuspicions uint64
	FailureRecoveries uint64
	// LocalViolations counts client-periods in which Definition 2's
	// runtime local-capacity condition failed (the client could no
	// longer reach its reservation at rate C_L): a diagnostic for
	// burst-pattern reservation misses (Figs. 8(b), 13).
	LocalViolations uint64

	// san, when non-nil, checks the pool floor and admission headroom
	// invariants (internal/sanitize). Nil in production runs.
	san *sanitize.Checker
}

// mark records a protocol event in the data node's shard's flight
// recorder, when recording is on.
func (m *Monitor) mark(k trace.Kind, a, b int64) {
	if fr := m.node.Flight(); fr != nil {
		fr.Mark(m.k.Now(), k, trace.MonitorActor, a, b)
	}
}

// SetSanitizer installs the invariant checker consulted at period starts
// and pool samples. Nil (the default) disables the checks.
func (m *Monitor) SetSanitizer(c *sanitize.Checker) { m.san = c }

// NewMonitor creates a monitor on the data node with one report slot for
// each of the tenants clients its caller will admit. est provides the
// capacity estimate (from profiling); adm enforces admission control.
func NewMonitor(params Params, node *rdma.Node, tenants int, est *CapacityEstimator, adm *AdmissionController, opts ...MonitorOption) (*Monitor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if node == nil || est == nil || adm == nil {
		return nil, fmt.Errorf("core: NewMonitor requires node, estimator and admission controller")
	}
	if tenants <= 0 {
		return nil, fmt.Errorf("core: NewMonitor requires a positive tenant count, got %d", tenants)
	}
	if node.Kind() != rdma.ServerNode {
		return nil, fmt.Errorf("core: monitor must run on a server node, got %v", node.Kind())
	}
	region, err := node.RegisterRegion(QoSRegionName, reportTableOff+tenants*reportSlotSize)
	if err != nil {
		return nil, fmt.Errorf("core: registering QoS region: %w", err)
	}
	loop, err := node.Fabric().Connect(node, node)
	if err != nil {
		return nil, fmt.Errorf("core: creating loopback QP: %w", err)
	}
	m := &Monitor{
		params:  params,
		k:       node.Kernel(),
		node:    node,
		region:  region,
		loop:    loop,
		est:     est,
		adm:     adm,
		slots:   tenants,
		convert: true,
	}
	m.checkFn, m.endPeriodFn, m.resumeFn = m.check, m.endPeriod, m.resume
	m.onSampleFn = m.onSample
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// QoSRegion returns the region holding the token cell and report table.
func (m *Monitor) QoSRegion() *rdma.Region { return m.region }

// Estimator returns the capacity estimator.
func (m *Monitor) Estimator() *CapacityEstimator { return m.est }

// Admit runs admission control for clientNode with the given reservation
// (step T1's registration) and, on success, returns the client's grant.
func (m *Monitor) Admit(clientNode *rdma.Node, reservation int64) (ClientGrant, error) {
	if clientNode == nil {
		return ClientGrant{}, fmt.Errorf("core: Admit requires a client node")
	}
	id := len(m.clients)
	if id >= m.slots {
		return ClientGrant{}, fmt.Errorf("core: report table full (%d clients)", id)
	}
	if err := m.adm.Admit(id, reservation); err != nil {
		return ClientGrant{}, err
	}
	qp, err := m.node.Fabric().Connect(m.node, clientNode)
	if err != nil {
		m.adm.Release(id)
		return ClientGrant{}, err
	}
	m.clients = append(m.clients, monitorClient{
		id:          id,
		node:        clientNode,
		reservation: reservation,
		qp:          qp,
	})
	return ClientGrant{ID: id, ServerNode: m.node, QoSRegion: m.region}, nil
}

// SetReservation changes a client's reservation starting next period,
// re-running admission control for the delta.
func (m *Monitor) SetReservation(id int, reservation int64) error {
	if id < 0 || id >= len(m.clients) {
		return fmt.Errorf("core: no client %d", id)
	}
	m.adm.Release(id)
	if err := m.adm.Admit(id, reservation); err != nil {
		// Restore the previous reservation on failure.
		_ = m.adm.Admit(id, m.clients[id].reservation)
		return err
	}
	m.clients[id].reservation = reservation
	return nil
}

// Reservation returns client id's admitted reservation (0 for an unknown
// id): what the next period's token push will carry.
func (m *Monitor) Reservation(id int) int64 {
	if id < 0 || id >= len(m.clients) {
		return 0
	}
	return m.clients[id].reservation
}

// Start begins the first QoS period and the check-interval loop.
func (m *Monitor) Start() error {
	if m.running {
		return fmt.Errorf("core: monitor already started")
	}
	m.running = true
	t, err := m.k.Every(m.params.CheckInterval, m.params.CheckInterval, m.checkFn)
	if err != nil {
		return err
	}
	m.checkTicker = t
	m.startPeriod()
	return nil
}

// Stop halts the period loop and closes an outage window still open.
func (m *Monitor) Stop() {
	if m.paused {
		m.paused = false
		m.outageNs += int64(m.k.Now() - m.outageSince)
	}
	m.running = false
	if m.checkTicker != nil {
		m.checkTicker.Stop()
	}
	m.periodTimer.Cancel()
}

// Outage pauses the monitor process for d of virtual time (fault
// injection): the period machine and the check loop stop, so no tokens
// are pushed, no conversion runs and no liveness is observed until the
// window ends. One-sided client I/O and claims against the data node's
// memory keep being served — only the monitor is down. On resume an
// overdue period is closed (harvest, liveness, capacity update) and a
// fresh one starts, resynchronizing every engine's token state; a period
// whose end has not come yet runs to it.
func (m *Monitor) Outage(d sim.Time) {
	if !m.running || m.paused || d <= 0 {
		return
	}
	m.paused = true
	m.outages++
	m.outageSince = m.k.Now()
	if m.checkTicker != nil {
		m.checkTicker.Stop()
		m.checkTicker = nil
	}
	m.periodTimer.Cancel()
	m.k.Schedule(d, m.resumeFn)
}

// resume ends an outage window: restart the check loop and roll the
// period if its end passed during the outage, else re-arm its end.
func (m *Monitor) resume() {
	if !m.running || !m.paused {
		return
	}
	m.paused = false
	m.outageNs += int64(m.k.Now() - m.outageSince)
	t, err := m.k.Every(m.params.CheckInterval, m.params.CheckInterval, m.checkFn)
	if err == nil {
		m.checkTicker = t
	}
	if end := m.periodStart + m.params.Period; m.k.Now() < end {
		m.periodTimer = m.k.At(end, m.endPeriodFn)
		return
	}
	m.endPeriod()
}

// OutageStats returns how many outage windows were injected and their
// total duration in nanoseconds of virtual time; a window still open is
// counted up to Stop.
func (m *Monitor) OutageStats() (count int, ns int64) { return m.outages, m.outageNs }

// SuspectedAt returns when the client was most recently suspected by
// failure detection (0 if never).
func (m *Monitor) SuspectedAt(id int) sim.Time {
	if id < 0 || id >= len(m.clients) {
		return 0
	}
	return m.clients[id].suspectedAt
}

// ReinstatedAt returns when the client was most recently reinstated by
// failure detection (0 if never).
func (m *Monitor) ReinstatedAt(id int) sim.Time {
	if id < 0 || id >= len(m.clients) {
		return 0
	}
	return m.clients[id].reinstatedAt
}

// Ledger returns the monitor's rows, one per period, the open one last.
func (m *Monitor) Ledger() []MonitorRow { return m.rows }

// startPeriod implements Fig. 5 steps T1: generate Omega tokens, push
// reservations, initialize the global pool.
func (m *Monitor) startPeriod() {
	m.periodStart = m.k.Now()
	r := MonitorRow{Period: int32(len(m.rows) + 1), Omega: m.est.Current(), Admitted: m.adm.Reserved()}
	for i := range m.clients {
		// A suspected client's reservation is withheld from the period
		// budget, freeing the capacity for the pool.
		if c := &m.clients[i]; c.suspected {
			r.Suspended += c.reservation
		} else {
			r.Issued += c.reservation
		}
	}
	// An estimate below the admitted reservations (e.g. under injected
	// congestion) leaves reservations their tokens and best-effort
	// capacity zero.
	r.Pool = max(r.Omega-r.Issued, 0)
	m.rows = append(m.rows, r)
	m.stale = m.sampling
	m.reporting = false
	if m.san != nil {
		// Reservation floor under admission: the controller must never
		// admit more reservation than the capacity it believes in.
		if h := m.adm.Headroom(); h < 0 {
			m.san.Reportf("reservation-floor", int64(m.k.Now()),
				"period %d: admission headroom %d < 0", r.Period, h)
		}
		if err := r.Check(); err != nil {
			m.san.Reportf("reclamation-conservation", int64(m.k.Now()), "%v", err)
		}
	}
	m.mark(trace.PeriodStart, int64(r.Period), r.Omega)

	// Seed the report table with (R_i, 0) so conversion before the first
	// client report is conservative, then publish the pool and push
	// tokens.
	for i := range m.clients {
		c := &m.clients[i]
		if c.suspected {
			continue
		}
		seed := PackReport(clampUint32(c.reservation), 0)
		_ = m.region.PutUint64(reportSlotOffset(c.id), seed)
		// The seed doubles as the liveness baseline: any report this
		// period makes the slot differ from it (suspected clients keep
		// their previous baseline so a late report flips the slot).
		c.lastWord = seed
		c.violated = false
	}
	_ = m.loop.WriteUint64(m.region, globalTokenOff, uint64(r.Pool), nil)

	endAt := m.periodStart + m.params.Period
	for i := range m.clients {
		c := &m.clients[i]
		if c.suspected {
			continue
		}
		_ = c.qp.Send(periodStartMsg{
			Index:       int(r.Period),
			Reservation: c.reservation,
			EndAt:       int64(endAt),
			Convert:     m.convert,
		}.message(), periodStartMsgSize, nil)
		m.mark(trace.TokenPush, int64(c.id), c.reservation)
	}
	m.periodTimer = m.k.At(endAt, m.endPeriodFn)
}

// check implements Fig. 5 steps S1-S3 and T2 each check interval: sample
// the pool with a loop-back atomic; on the first decrease signal
// reporting; while reporting, convert unused reservations.
func (m *Monitor) check() {
	if !m.running || m.paused || len(m.rows) == 0 {
		return
	}
	if m.loop.FetchAdd(m.region, globalTokenOff, 0, m.onSampleFn) == nil {
		m.sampling++
	}
}

// onSample completes a check's pool sample; one issued before the current
// period began is void.
func (m *Monitor) onSample(old int64) {
	m.sampling--
	if m.stale > 0 {
		m.stale--
		return
	}
	if !m.running || m.paused {
		return
	}
	r := &m.rows[len(m.rows)-1]
	if m.san != nil {
		// Global-pool floor: each client can have at most one claim of
		// -Batch in flight, so the cell can never sink below
		// -(clients × Batch).
		if floor := -int64(len(m.clients)) * m.params.Batch; old < floor {
			m.san.Reportf("pool-floor", int64(m.k.Now()),
				"period %d: pool %d below floor %d (%d clients, batch %d)",
				r.Period, old, floor, len(m.clients), m.params.Batch)
		}
	}
	if !m.reporting && old < r.Pool {
		m.reporting = true
		m.ReportSignals++
		m.mark(trace.ReportSignal, int64(r.Period), 0)
		for i := range m.clients {
			_ = m.clients[i].qp.Send(reportOnMessage(int(r.Period)), reportOnMsgSize, nil)
		}
		// Do not cap on this wake-up: the report slots still hold the
		// period-start seeds (R_i, 0), which would wildly overstate L
		// when reporting starts late in the period. Fresh reports
		// land before the next check interval.
		return
	}
	if m.reporting {
		m.detectLocalViolations()
		if m.convert {
			m.capPool(r, old)
		}
	}
}

// detectLocalViolations evaluates Definition 2's runtime condition for
// each client from its latest report: the residual reservation must be
// servable at the per-client rate C_L in the remaining period,
// R_i − N_i(t) <= (T−t)·C_L. A violation means the client can no longer
// meet its reservation this period no matter what the schedulers do —
// the mechanism behind the paper's Experiment 1C / Set 3 misses. Each
// client is flagged at most once per period.
func (m *Monitor) detectLocalViolations() {
	elapsed := float64(m.k.Now()-m.periodStart) / float64(m.params.Period)
	if elapsed < 0 {
		elapsed = 0
	}
	if elapsed > 1 {
		elapsed = 1
	}
	for i := range m.clients {
		c := &m.clients[i]
		if c.suspected || c.violated {
			continue
		}
		w, err := m.region.Uint64(reportSlotOffset(c.id))
		if err != nil {
			continue
		}
		residual, raw := UnpackReport(w)
		completed := liveCompleted(raw)
		// Definition 2 guarantees only continuously backlogged clients; a
		// client still holding reservation tokens has insufficient demand
		// (it is yielding), so a completion shortfall is its own choice,
		// not a capacity violation.
		if int64(residual) > c.reservation/10 {
			continue
		}
		if v := m.adm.LocalViolation(c.reservation, int64(completed), elapsed); v > 0 {
			c.violated = true
			m.LocalViolations++
			m.mark(trace.LocalViolation, int64(c.id), v)
		}
	}
}

// capPool is step T2's safety bound. Token conversion itself is
// client-driven in this implementation — engines return yielded tokens
// with FETCH_ADD(+y), so the pool can only grow by genuinely released
// reservation capacity (Section II-B: "clients ... return their
// reservation tokens to the global pool"). The monitor enforces the
// paper's invariant that "the total number of tokens at any time is
// limited to the server capacity for the rest of the QoS period" by
// capping the pool at max{Omega*(T-t)/T - L, 0}, with L the sum of
// reported residual reservations. The cap only ever lowers the cell — a
// rewrite that raises it would re-mint tokens already claimed (see
// DESIGN.md).
func (m *Monitor) capPool(r *MonitorRow, current int64) {
	elapsed := m.k.Now() - m.periodStart
	if elapsed < 0 {
		elapsed = 0
	}
	if elapsed > m.params.Period {
		elapsed = m.params.Period
	}
	remaining := float64(r.Omega) * float64(m.params.Period-elapsed) / float64(m.params.Period)
	var outstanding int64
	for i := range m.clients {
		c := &m.clients[i]
		if c.suspected {
			continue
		}
		w, err := m.region.Uint64(reportSlotOffset(c.id))
		if err != nil {
			continue
		}
		residual, _ := UnpackReport(w)
		outstanding += int64(residual)
	}
	bound := int64(remaining) - outstanding
	if bound < 0 {
		bound = 0
	}
	if current > bound {
		m.ConversionCount++
		r.Caps++
		m.mark(trace.PoolCap, current, bound)
		_ = m.loop.WriteUint64(m.region, globalTokenOff, uint64(bound), nil)
	}
}

// endPeriod is step T3: harvest the final reports, recalibrate capacity
// (Algorithm 1), and roll into the next period.
func (m *Monitor) endPeriod() {
	if !m.running {
		return
	}
	var total int64
	for i := range m.clients {
		c := &m.clients[i]
		w, err := m.region.Uint64(reportSlotOffset(c.id))
		if err != nil {
			continue
		}
		m.observeLiveness(c, w)
		if c.suspected {
			continue
		}
		_, raw := UnpackReport(w)
		// A just-reinstated client's slot may hold its flagged restart
		// heartbeat rather than a regular report; strip the flag before
		// using the count.
		completed := liveCompleted(raw)
		total += int64(completed)
	}
	r := &m.rows[len(m.rows)-1]
	r.Usage, r.End = total, m.k.Now()
	m.est.Update(total)
	m.mark(trace.CapacityUpdate, total, m.est.Current())
	m.startPeriod()
}

// observeLiveness updates failure detection from a client's report slot
// at period end. The monitor re-seeds each live client's slot at period
// start, so any report during the period leaves the slot different from
// the seed; a slot still equal to its baseline is a missed heartbeat. A
// suspected client that reports again is immediately reinstated.
func (m *Monitor) observeLiveness(c *monitorClient, word uint64) {
	if !m.detectFailures {
		return
	}
	if word != c.lastWord {
		c.lastWord = word
		c.stalePeriods = 0
		if c.suspected {
			c.suspected = false
			c.reinstatedAt = m.k.Now()
			m.FailureRecoveries++
			m.mark(trace.FailureRecover, int64(c.id), 0)
		}
		return
	}
	c.stalePeriods++
	if !c.suspected && c.stalePeriods >= failureGracePeriods {
		c.suspected = true
		c.suspectedAt = m.k.Now()
		m.FailureSuspicions++
		// Tombstone the slot and the liveness baseline: the word is
		// unreachable by any honest report, so whatever a restarted
		// client writes — even a byte-identical repeat of its pre-crash
		// report — is observed as a change and reinstates it. Suspected
		// slots are excluded from harvesting, conversion and violation
		// scans, so the tombstone only ever feeds this comparison.
		_ = m.region.PutUint64(reportSlotOffset(c.id), tombstoneWord)
		c.lastWord = tombstoneWord
		m.mark(trace.FailureSuspect, int64(c.id), 0)
	}
}
