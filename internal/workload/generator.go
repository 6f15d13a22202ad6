package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/sim"
)

// InfiniteDemand makes a client backlogged for the whole run (used when
// profiling saturation throughput, Experiments 1A/1B).
const InfiniteDemand = uint64(math.MaxUint32)

// Arrive announces that n requests arrived at the I/O path (the Haechi QoS
// engine, or a bare sender) at the current instant. An arrival is only a
// count: the I/O path owns its arrival time, calls Generator.Next once per
// request when it is ready to post it, and Generator.Complete when it is done.
type Arrive func(n uint64)

// Pattern is a temporal request pattern: how a period's demand is spread
// over the period.
type Pattern interface {
	fmt.Stringer
	newDriver(g *Generator) driver
}

// driver is the per-generator issuing state machine for a pattern.
type driver interface {
	beginPeriod(demand uint64)
	onCompletion()
	stop()
}

// Interface compliance.
var (
	_ Pattern = Burst{}
	_ Pattern = ConstantRate{}
	_ Pattern = Poisson{}
)

// Burst is the paper's burst request pattern. With Window > 0 it is the
// closed-loop form used for saturation profiling (Experiment 1A: "a
// client sends an initial burst of 64 requests ... and subsequently keeps
// 64 requests outstanding at all times"). With Window == 0 the entire
// period demand arrives at the start of the period, the form the QoS
// experiments assume (Example 2: "all clients send a burst of R_i
// requests at t = 0") — announced as one number, which the QoS engine
// holds as a count until tokens back it. Window 0 requires finite demand
// (not InfiniteDemand).
type Burst struct {
	// Window is the number of outstanding requests (0 = the whole demand
	// arrives up front).
	Window int
}

// String names the pattern.
func (b Burst) String() string {
	if b.Window <= 0 {
		return "burst(all)"
	}
	return fmt.Sprintf("burst(%d)", b.Window)
}

func (b Burst) newDriver(g *Generator) driver {
	if b.Window <= 0 {
		return &burstAllDriver{g: g}
	}
	return &burstDriver{g: g, window: b.Window}
}

// burstAllDriver announces the period's entire demand in one call.
type burstAllDriver struct {
	g *Generator
}

func (d *burstAllDriver) beginPeriod(demand uint64) {
	d.g.announce(demand)
}

func (d *burstAllDriver) onCompletion() {}

func (d *burstAllDriver) stop() {}

type burstDriver struct {
	g           *Generator
	window      int
	target      uint64
	issued      uint64
	outstanding int
}

func (d *burstDriver) beginPeriod(demand uint64) {
	d.target = demand
	d.issued = 0
	d.fill()
}

func (d *burstDriver) fill() {
	for d.outstanding < d.window && d.issued < d.target {
		d.issued++
		d.outstanding++
		d.g.announce(1)
	}
}

func (d *burstDriver) onCompletion() {
	d.outstanding--
	d.fill()
}

func (d *burstDriver) stop() { d.target = 0 }

// ConstantRate is the paper's constant-rate request pattern: the period's
// demand is issued open-loop at equal time intervals across the period.
type ConstantRate struct{}

// String names the pattern.
func (ConstantRate) String() string { return "constant-rate" }

func (ConstantRate) newDriver(g *Generator) driver {
	return &constantRateDriver{g: g}
}

type constantRateDriver struct {
	g      *Generator
	ticker *sim.Ticker
	issued uint64
	target uint64
}

func (d *constantRateDriver) beginPeriod(demand uint64) {
	d.stop()
	if demand == 0 {
		return
	}
	d.issued = 0
	d.target = demand
	interval := d.g.periodLen / sim.Time(demand)
	if interval <= 0 {
		interval = 1
	}
	t, err := d.g.k.Every(0, interval, func() {
		if d.issued >= d.target {
			d.stop()
			return
		}
		d.issued++
		d.g.announce(1)
	})
	if err == nil {
		d.ticker = t
	}
}

func (d *constantRateDriver) onCompletion() {}

func (d *constantRateDriver) stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// Generator drives one client's workload: it announces arrivals according
// to its pattern, hands the I/O path one key at a time on demand (Next),
// and records completion latency (Complete: arrival to completion,
// including any token-wait queueing at the QoS engine — the paper's Fig. 15
// latencies include client-side queueing). It keeps nothing per request: the
// arrival instant is the request's whole identity, and the I/O path carries
// it from Arrive to Complete.
type Generator struct {
	k         *sim.Kernel
	rng       *rand.Rand
	keys      KeyChooser
	arrive    Arrive
	periodLen sim.Time

	drv driver

	Latency metrics.Histogram

	issuedTotal         uint64
	completedTotal      uint64
	completedThisPeriod uint64
}

// NewGenerator builds a generator. periodLen is the QoS period length T.
func NewGenerator(k *sim.Kernel, seed int64, keys KeyChooser, pattern Pattern, periodLen sim.Time, arrive Arrive) (*Generator, error) {
	if k == nil || keys == nil || pattern == nil || arrive == nil {
		return nil, fmt.Errorf("workload: NewGenerator requires kernel, keys, pattern and arrive")
	}
	if periodLen <= 0 {
		return nil, fmt.Errorf("workload: period length must be positive, got %v", periodLen)
	}
	// A key picks a record, never an instant, so the key stream is the
	// compact source. Poisson alone draws its arrival gaps from the same
	// stream as its keys, and those gaps are timestamps that digests and
	// TestDriversKeepPushContractArrivals pin: it keeps math/rand's source.
	rng := rand.New(NewKeySource(seed))
	if _, ok := pattern.(Poisson); ok {
		rng = rand.New(rand.NewSource(seed))
	}
	g := &Generator{
		k:         k,
		rng:       rng,
		keys:      keys,
		arrive:    arrive,
		periodLen: periodLen,
	}
	g.drv = pattern.newDriver(g)
	return g, nil
}

// BeginPeriod starts a new QoS period with the given demand (number of
// requests the client wants served this period).
func (g *Generator) BeginPeriod(demand uint64) {
	g.drv.beginPeriod(demand)
}

// Stop ceases announcing arrivals.
func (g *Generator) Stop() { g.drv.stop() }

// Issued returns the total number of requests announced as arrived.
func (g *Generator) Issued() uint64 { return g.issuedTotal }

// Completed returns the total number of requests completed.
func (g *Generator) Completed() uint64 { return g.completedTotal }

// TakePeriodCompleted returns and resets the completions since the last
// call; the cluster harvests it at each period boundary.
func (g *Generator) TakePeriodCompleted() uint64 {
	c := g.completedThisPeriod
	g.completedThisPeriod = 0
	return c
}

func (g *Generator) announce(n uint64) {
	g.issuedTotal += n
	g.arrive(n)
}

// Next hands out the key of the generator's next request. The I/O path
// calls it at the moment it posts the request; requests are handed out in
// arrival order, so the k-th call returns the k-th key. arrivedAt, the
// instant that request was announced, is where its latency starts: the
// I/O path hands it back to Complete.
func (g *Generator) Next(arrivedAt sim.Time) (key uint64) {
	return g.keys.Next(g.rng)
}

// Complete records the completion, now, of a request that arrived at
// arrivedAt. The I/O path calls it exactly once per request Next handed out.
func (g *Generator) Complete(arrivedAt sim.Time) {
	g.Latency.Record(g.k.Now() - arrivedAt)
	g.completedTotal++
	g.completedThisPeriod++
	g.drv.onCompletion()
}

// Poisson is an open-loop pattern with exponentially distributed
// inter-arrival times at rate demand/T — an extension beyond the paper's
// two patterns, for workloads without periodic structure. The period's
// demand sets the mean rate; the actual count per period varies. Gaps and
// keys are drawn from the generator's one rand.Rand, and a key is drawn
// when its request is pulled: behind a sink that pulls later than arrival
// (a QoS engine waiting for a token) the interleaving of the two kinds of
// draw, and with it the arrival instants, depends on when tokens came.
type Poisson struct{}

// String names the pattern.
func (Poisson) String() string { return "poisson" }

func (Poisson) newDriver(g *Generator) driver {
	d := &poissonDriver{g: g}
	d.fireFn = d.fire
	return d
}

type poissonDriver struct {
	g       *Generator
	timer   sim.Timer
	rate    float64 // arrivals per nanosecond
	stopped bool
	fireFn  func() // d.fire, bound once: an arrival allocates nothing
}

func (d *poissonDriver) beginPeriod(demand uint64) {
	d.stop()
	d.stopped = false
	if demand == 0 {
		return
	}
	d.rate = float64(demand) / float64(d.g.periodLen)
	d.schedule()
}

func (d *poissonDriver) schedule() {
	gap := sim.Time(d.g.rng.ExpFloat64() / d.rate)
	if gap < 1 {
		gap = 1
	}
	d.timer = d.g.k.Schedule(gap, d.fireFn)
}

func (d *poissonDriver) fire() {
	if d.stopped {
		return
	}
	d.g.announce(1)
	d.schedule()
}

func (d *poissonDriver) onCompletion() {}

func (d *poissonDriver) stop() {
	d.stopped = true
	d.timer.Cancel()
	d.timer = sim.Timer{}
}
