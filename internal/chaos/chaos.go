// Package chaos compiles declarative fault scenarios into deterministic
// virtual-time fault injections. A Scenario is a list of FaultEvents with
// times expressed in QoS periods; the cluster resolves them to absolute
// sim.Time instants at setup and pre-schedules every injection on the
// kernel that owns the faulted component (the client's shard for engine
// crashes, shard 0 for monitor outages), so a chaos run is exactly as
// replayable as a fault-free one — including under sharded execution,
// where the fault's *effects* (recovery heartbeats, reinstated token
// pushes) travel the ordinary cross-shard mailbox paths.
//
// The package holds no clocks, no goroutines and no randomness of its
// own: the only nondeterminism a scenario introduces is the link-storm
// jitter, drawn from the executing kernel's seeded RNG inside the rdma
// fabric (see rdma.Fabric.AddLinkStorm).
package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Kind enumerates the fault types a scenario can inject.
type Kind int

// Fault kinds.
const (
	// CrashClient halts one client's QoS engine mid-run (Engine.Crash):
	// queued requests are dropped, held tokens move to quarantine, and
	// the monitor's failure detection reclaims the reservation.
	CrashClient Kind = iota + 1
	// RestartClient revives a crashed engine (Engine.Restart): it rejoins
	// with no tokens, writes a recovery heartbeat, and is reinstated by
	// the monitor's liveness scan at the next period end.
	RestartClient
	// MonitorOutage pauses the QoS monitor for the event's duration:
	// no period rollovers, token pushes, or pool refills. Engines notice
	// the overdue period and degrade to local-token mode with
	// bounded-backoff pool probes. One-sided data traffic keeps flowing —
	// only the monitor process is down.
	MonitorOutage
	// DegradeNIC divides a NIC's service rate by Factor for the event's
	// duration (the data node's NIC by default, a client's with Client
	// set).
	DegradeNIC
	// LinkStorm stretches every wire hop by a uniformly drawn extra delay
	// in [0, Extra] while the window is open.
	LinkStorm
	// CongestionBurst runs Jobs closed-loop background jobs (window
	// Window each) against the data node for the event's duration: the
	// paper's Set 4 background job, and the one way congestion is
	// injected. A window opening at period 0 is running before the run's
	// first event.
	CongestionBurst
)

var kindNames = map[Kind]string{
	CrashClient:     "crash",
	RestartClient:   "restart",
	MonitorOutage:   "outage",
	DegradeNIC:      "degrade",
	LinkStorm:       "jitter",
	CongestionBurst: "burst",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FaultEvent is one scheduled injection. At and Duration are measured in
// QoS periods from run start (t=0 is the start of the first warm-up
// period); fractional values are allowed and usually preferable — an
// event at an exact period boundary races the boundary's own protocol
// work for the same instant (still deterministically ordered, but harder
// to reason about).
type FaultEvent struct {
	Kind Kind
	// At is the injection instant in periods.
	At float64
	// Duration is the window length in periods (windowed kinds only).
	Duration float64
	// Client is the target client index for CrashClient, RestartClient
	// and client-NIC DegradeNIC; -1 targets the data node (DegradeNIC
	// default).
	Client int
	// Factor divides the NIC rate during a DegradeNIC window.
	Factor float64
	// Extra is the maximum per-hop extra wire delay of a LinkStorm.
	Extra sim.Time
	// Jobs and Window size a CongestionBurst.
	Jobs   int
	Window int
}

// Scenario is a named, immutable list of fault events. Build one with
// Parse or construct it directly and call Validate before use.
type Scenario struct {
	Name   string
	Events []FaultEvent
}

// presets are the named scenarios -chaos accepts directly. set5 is the
// acceptance scenario: one client crashes and recovers, the monitor
// blacks out, and the data node's NIC degrades — all in one run. The
// crash→restart gap spans three period-end liveness scans, enough for
// the default failure-detection grace (2 stale periods) to suspect the
// client and reclaim its reservation before the restart heartbeat lands.
var presets = map[string]string{
	"set5":    "crash@2.25:c=0;restart@5.5:c=0;outage@7.25+1.25;degrade@10.25+1.5:factor=4",
	"crash":   "crash@2.25:c=0;restart@5.5:c=0",
	"outage":  "outage@2.25+1.25",
	"degrade": "degrade@2.25+2:factor=4",
	"jitter":  "jitter@2.25+1:extra=2us",
	"burst":   "burst@2.25+1.5:jobs=3,window=24",
}

// Presets lists the named scenarios in sorted order.
func Presets() []string {
	out := make([]string, 0, len(presets))
	for name := range presets { //lint:ordered keys are sorted before return
		out = append(out, name)
	}
	sortStrings(out)
	return out
}

// sortStrings is a tiny insertion sort: the preset list is single-digit
// sized and this avoids importing sort for one call site.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Parse compiles a scenario spec: either a preset name (see Presets) or
// a ';'-separated event list in the grammar
//
//	kind@START[+DURATION][:key=value,...]
//
// where kind is crash|restart|outage|degrade|jitter|burst, START and
// DURATION are periods (fractional allowed, optional trailing 'p'), and
// the keys are c (client index), factor (NIC rate divisor), extra (max
// storm delay, e.g. 2us), jobs and window (burst sizing). Example:
//
//	crash@2.5:c=0;restart@5:c=0;outage@7+1;degrade@9+2:factor=4
func Parse(spec string) (*Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("chaos: empty scenario spec")
	}
	name := spec
	if expanded, ok := presets[spec]; ok {
		spec = expanded
	} else {
		name = "custom"
	}
	sc := &Scenario{Name: name}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, fmt.Errorf("chaos: event %q: %w", part, err)
		}
		sc.Events = append(sc.Events, ev)
	}
	if len(sc.Events) == 0 {
		return nil, fmt.Errorf("chaos: scenario %q has no events", spec)
	}
	return sc, nil
}

func parseEvent(s string) (FaultEvent, error) {
	ev := FaultEvent{Client: -1}
	head, opts, hasOpts := strings.Cut(s, ":")
	kindStr, when, ok := strings.Cut(head, "@")
	if !ok {
		return ev, fmt.Errorf("missing '@<start>'")
	}
	switch kindStr {
	case "crash":
		ev.Kind = CrashClient
	case "restart":
		ev.Kind = RestartClient
	case "outage":
		ev.Kind = MonitorOutage
	case "degrade":
		ev.Kind = DegradeNIC
		ev.Factor = 4
	case "jitter":
		ev.Kind = LinkStorm
	case "burst":
		ev.Kind = CongestionBurst
		ev.Jobs = 2
		ev.Window = 32
	default:
		return ev, fmt.Errorf("unknown fault kind %q", kindStr)
	}
	start, dur, windowed := strings.Cut(when, "+")
	var err error
	if ev.At, err = parsePeriods(start); err != nil {
		return ev, fmt.Errorf("start: %w", err)
	}
	if windowed {
		if ev.Duration, err = parsePeriods(dur); err != nil {
			return ev, fmt.Errorf("duration: %w", err)
		}
	}
	if hasOpts {
		for _, kv := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return ev, fmt.Errorf("option %q is not key=value", kv)
			}
			switch key {
			case "c":
				if ev.Client, err = strconv.Atoi(val); err != nil {
					return ev, fmt.Errorf("client index %q: %w", val, err)
				}
			case "factor":
				if ev.Factor, err = parseFinite(val); err != nil {
					return ev, fmt.Errorf("factor %q: %w", val, err)
				}
			case "extra":
				if ev.Extra, err = parseDelay(val); err != nil {
					return ev, fmt.Errorf("extra %q: %w", val, err)
				}
			case "jobs":
				if ev.Jobs, err = strconv.Atoi(val); err != nil {
					return ev, fmt.Errorf("jobs %q: %w", val, err)
				}
			case "window":
				if ev.Window, err = strconv.Atoi(val); err != nil {
					return ev, fmt.Errorf("window %q: %w", val, err)
				}
			default:
				return ev, fmt.Errorf("unknown option %q", key)
			}
		}
	}
	return ev, ev.check()
}

// parsePeriods parses a period count: a float with an optional trailing
// 'p' ("2.5", "2.5p").
func parsePeriods(s string) (float64, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "p"))
	v, err := parseFinite(s)
	if err != nil {
		return 0, fmt.Errorf("bad period count %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative period count %v", v)
	}
	return v, nil
}

// parseFinite parses a float and refuses NaN and ±Inf, which
// strconv.ParseFloat accepts: no event time, window or factor is
// infinite.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%v is not a finite number", v)
	}
	return v, nil
}

// delayUnits, longest suffix first so "us" is tried before "s".
var delayUnits = []struct {
	suffix string
	unit   sim.Time
}{
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"s", sim.Second},
}

// parseDelay parses a simulated duration with an ns/us/ms/s suffix.
func parseDelay(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	for _, u := range delayUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := parseFinite(num)
			if err != nil {
				break
			}
			return sim.Time(v * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("bad duration %q (want e.g. 500ns, 2us, 1ms)", s)
}

// check validates one event's own fields.
func (ev FaultEvent) check() error {
	windowed := ev.Kind == MonitorOutage || ev.Kind == DegradeNIC ||
		ev.Kind == LinkStorm || ev.Kind == CongestionBurst
	if windowed && ev.Duration <= 0 {
		return fmt.Errorf("%s requires '+<duration>'", ev.Kind)
	}
	if !windowed && ev.Duration > 0 {
		return fmt.Errorf("%s takes no duration", ev.Kind)
	}
	switch ev.Kind {
	case CrashClient, RestartClient:
		if ev.Client < 0 {
			return fmt.Errorf("%s requires a client (c=<index>)", ev.Kind)
		}
	case DegradeNIC:
		if ev.Factor <= 1 {
			return fmt.Errorf("degrade factor must be > 1, got %v", ev.Factor)
		}
	case LinkStorm:
		if ev.Extra <= 0 {
			return fmt.Errorf("jitter requires extra=<delay> > 0")
		}
	case CongestionBurst:
		if ev.Jobs <= 0 || ev.Window <= 0 {
			return fmt.Errorf("burst requires jobs > 0 and window > 0, got jobs=%d window=%d", ev.Jobs, ev.Window)
		}
	}
	return nil
}

// Validate checks the scenario against a cluster shape: client indices in
// range, engine faults only when a QoS engine exists (qos), and every
// restart preceded by a crash of the same client.
func (s *Scenario) Validate(clients int, qos bool) error {
	crashed := make([]float64, clients) // last crash instant per client, -1 = never
	for i := range crashed {
		crashed[i] = -1
	}
	for i, ev := range s.Events {
		if err := ev.check(); err != nil {
			return fmt.Errorf("chaos: event %d: %w", i, err)
		}
		switch ev.Kind {
		case CrashClient, RestartClient:
			if !qos {
				return fmt.Errorf("chaos: event %d: %s requires a QoS mode (no engines in bare mode)", i, ev.Kind)
			}
			if ev.Client >= clients {
				return fmt.Errorf("chaos: event %d: client %d out of range (have %d)", i, ev.Client, clients)
			}
			if ev.Kind == CrashClient {
				crashed[ev.Client] = ev.At
			} else {
				if crashed[ev.Client] < 0 || ev.At <= crashed[ev.Client] {
					return fmt.Errorf("chaos: event %d: restart of client %d without a preceding crash", i, ev.Client)
				}
				crashed[ev.Client] = -1
			}
		case MonitorOutage:
			if !qos {
				return fmt.Errorf("chaos: event %d: outage requires a QoS mode (no monitor in bare mode)", i)
			}
		case DegradeNIC:
			if ev.Client >= clients {
				return fmt.Errorf("chaos: event %d: client %d out of range (have %d)", i, ev.Client, clients)
			}
		}
	}
	return nil
}

// String renders the scenario back in the Parse grammar.
func (s *Scenario) String() string {
	var b strings.Builder
	for i, ev := range s.Events {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s@%gp", ev.Kind, ev.At)
		if ev.Duration > 0 {
			fmt.Fprintf(&b, "+%gp", ev.Duration)
		}
		var opts []string
		switch ev.Kind {
		case CrashClient, RestartClient:
			opts = append(opts, fmt.Sprintf("c=%d", ev.Client))
		case DegradeNIC:
			if ev.Client >= 0 {
				opts = append(opts, fmt.Sprintf("c=%d", ev.Client))
			}
			opts = append(opts, fmt.Sprintf("factor=%g", ev.Factor))
		case LinkStorm:
			opts = append(opts, fmt.Sprintf("extra=%dns", int64(ev.Extra)))
		case CongestionBurst:
			opts = append(opts, fmt.Sprintf("jobs=%d,window=%d", ev.Jobs, ev.Window))
		}
		if len(opts) > 0 {
			b.WriteByte(':')
			b.WriteString(strings.Join(opts, ","))
		}
	}
	return b.String()
}

// Counts tallies events by kind for fault reporting.
type Counts struct {
	Crashes  int
	Restarts int
	Outages  int
	Degrades int
	Storms   int
	Bursts   int
}

// Count returns the scenario's per-kind event tally.
func (s *Scenario) Count() Counts {
	var c Counts
	for _, ev := range s.Events {
		switch ev.Kind {
		case CrashClient:
			c.Crashes++
		case RestartClient:
			c.Restarts++
		case MonitorOutage:
			c.Outages++
		case DegradeNIC:
			c.Degrades++
		case LinkStorm:
			c.Storms++
		case CongestionBurst:
			c.Bursts++
		}
	}
	return c
}

// ExcusesSpan reports whether the scenario excuses the given client
// (0-based) from the reservation floor during the period spanning
// [start, end] of absolute simulated time: a window that disturbs the
// whole data path (data-node NIC degradation, link storms, congestion
// bursts) excuses every client while it overlaps the span, plus a
// settling tail after it closes; a client-NIC degradation excuses
// only that client. The tail is one period T for storms and bursts
// (Haechi throttles best-effort on the congestion alert, so
// reservations recover within a period), but an NIC degradation defers
// real service capacity — duration x (1 - 1/factor) periods of work
// queue up and drain only through the reservation headroom — so its
// tail stretches to duration x (factor - 1) periods, a deterministic
// bound on the drain. Monitor outages excuse nothing — reservation tokens
// are pushed ahead of each period and the one-sided data path does not
// need the monitor mid-period, so surviving clients must hold their
// floor through an outage (the layer's showcase invariant). Crash
// windows are handled by the caller, which knows the actual rejoin
// instant. Comparing absolute spans (the caller records each measured
// period's real start and end) keeps the classification exact even when
// an outage stretches a period's wall time. Event times are resolved
// against base (the run's start instant) and period length T, exactly as
// the injections themselves were armed.
func (s *Scenario) ExcusesSpan(client int, start, end, base, T sim.Time) bool {
	for _, ev := range s.Events {
		var affectsClient bool
		switch ev.Kind {
		case DegradeNIC:
			affectsClient = ev.Client < 0 || ev.Client == client
		case LinkStorm, CongestionBurst:
			affectsClient = true
		default:
			continue
		}
		if !affectsClient {
			continue
		}
		tail := T
		if ev.Kind == DegradeNIC && ev.Factor > 1 {
			// Deferred-service drain bound: the window queues up
			// duration*(1-1/factor) periods of full-rate work, which
			// drains only through the admission headroom afterwards.
			tail += sim.Time(ev.Duration * (ev.Factor - 1) * float64(T))
		}
		evStart := base + sim.Time(ev.At*float64(T))
		evEnd := base + sim.Time((ev.At+ev.Duration)*float64(T))
		if evStart <= end && evEnd+tail >= start {
			return true
		}
	}
	return false
}
