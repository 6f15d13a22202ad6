package sim

import "fmt"

// Station models a single-server FIFO queueing station with a fixed mean
// service time and optional multiplicative jitter. It is the building block
// for NIC and CPU processing pipelines in the simulated fabric.
//
// Submissions are served in arrival order. The implementation keeps only a
// "busy until" horizon instead of an explicit queue: the completion time of
// a submission arriving at time a is max(a, busyUntil) + serviceTime, which
// is exactly FIFO single-server semantics with O(1) state and at most one
// kernel event per distinct completion instant.
//
// Every submission carries a 32-bit tag, and on completion the station
// calls the dispatch function installed with SetDispatch with it: a
// fabric encodes (queue pair, stage) pairs as tags and resolves them
// through one bound function per node, so no submission holds a closure.
// Within each class (bulk, priority) completions happen in submission
// order and their instants never decrease — the class's busy horizon is
// monotone and the kernel breaks same-instant ties by scheduling order —
// so each class keeps a FIFO of pending tags and schedules one pre-bound
// method per distinct completion time. Submissions of one class that land
// on the same completion instant (weight-zero verbs, coarse service
// times) form a group that shares a single wakeup, instead of one kernel
// event each; the wakeup's own event carries the instant, so a pending
// completion costs its 4-byte tag. Submitting an operation therefore
// allocates nothing beyond the kernel's pooled event.
type Station struct {
	k *Kernel
	// service is the mean service time per operation.
	service Time
	// jitter is the maximum fractional deviation of a single service time;
	// each operation's service time is drawn uniformly from
	// [service*(1-jitter), service*(1+jitter)]. Zero disables jitter.
	jitter float64
	// busyUntil is the virtual time at which the server becomes free.
	busyUntil Time
	// prioBusyUntil serializes priority (control) operations among
	// themselves; see SubmitPriorityTagged.
	prioBusyUntil Time
	// served counts operations completed.
	served uint64
	// name identifies the station in diagnostics.
	name string

	// dispatch resolves completion tags; see SetDispatch.
	dispatch func(tag uint32)

	// bulk and prio hold the pending completions of the two classes.
	bulk, prio completions
}

// NewStation creates a station served at rate opsPerSec with the given
// fractional jitter (0 <= jitter < 1).
func NewStation(k *Kernel, name string, opsPerSec float64, jitter float64) (*Station, error) {
	if opsPerSec <= 0 {
		return nil, fmt.Errorf("sim: station %q: rate must be positive, got %v", name, opsPerSec)
	}
	if jitter < 0 || jitter >= 1 {
		return nil, fmt.Errorf("sim: station %q: jitter must be in [0,1), got %v", name, jitter)
	}
	s := &Station{
		k:       k,
		name:    name,
		service: Time(float64(Second) / opsPerSec),
		jitter:  jitter,
	}
	s.bulk = completions{lastAt: noGroup, wake: func() { s.drain(&s.bulk) }}
	s.prio = completions{lastAt: noGroup, wake: func() { s.drain(&s.prio) }}
	return s, nil
}

// Rate returns the station's mean service rate in operations per second.
func (s *Station) Rate() float64 { return float64(Second) / float64(s.service) }

// SetRate changes the mean service rate. Pending (already scheduled)
// completions are unaffected.
func (s *Station) SetRate(opsPerSec float64) error {
	if opsPerSec <= 0 {
		return fmt.Errorf("sim: station %q: rate must be positive, got %v", s.name, opsPerSec)
	}
	s.service = Time(float64(Second) / opsPerSec)
	return nil
}

// SetDispatch installs the resolver for completion tags. It must be set
// before the first submission and not changed while operations are in
// flight. Tags use the low 31 bits; the station keeps the top one.
func (s *Station) SetDispatch(fn func(tag uint32)) { s.dispatch = fn }

// Served returns the number of operations the station has completed.
func (s *Station) Served() uint64 { return s.served }

// QueueDelay returns how long a submission made now would wait before its
// service begins.
func (s *Station) QueueDelay() Time {
	if d := s.busyUntil - s.k.Now(); d > 0 {
		return d
	}
	return 0
}

// SubmitTagged enqueues one operation whose service time is weight times
// the station's per-op service time (e.g. a doorbell-batched verb may be
// cheaper than a full 4 KB transfer); on completion the station calls the
// SetDispatch resolver with tag. It returns the completion time.
func (s *Station) SubmitTagged(weight float64, tag uint32) Time {
	return s.submitBulk(weight, tag)
}

// SubmitPriorityTagged processes one small operation ahead of the bulk
// FIFO queue while still charging its service time to the station's
// capacity. It models NIC arbitration across queue pairs: a tiny control
// verb (an atomic, an 8-byte write) is scheduled within its own service
// time plus any earlier priority work, instead of waiting behind every
// queued bulk transfer — but the processing time it consumes still delays
// bulk work.
func (s *Station) SubmitPriorityTagged(weight float64, tag uint32) Time {
	return s.submitPrio(weight, tag)
}

func (s *Station) svcTime(weight float64) Time {
	if weight < 0 {
		weight = 0
	}
	svc := Time(float64(s.service) * weight)
	if s.jitter > 0 && svc > 0 {
		f := 1 + s.jitter*(2*s.k.Rand().Float64()-1)
		svc = Time(float64(svc) * f)
	}
	return svc
}

func (s *Station) submitBulk(weight float64, tag uint32) Time {
	svc := s.svcTime(weight)
	start := s.k.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	completion := start + svc
	s.busyUntil = completion
	s.bulk.push(s.k, completion, tag)
	return completion
}

func (s *Station) submitPrio(weight float64, tag uint32) Time {
	svc := s.svcTime(weight)
	// Charge the capacity: bulk work behind us is pushed back.
	if s.busyUntil < s.k.Now() {
		s.busyUntil = s.k.Now()
	}
	s.busyUntil += svc
	// Complete after our own service time, serialized only with earlier
	// priority operations.
	start := s.k.Now()
	if s.prioBusyUntil > start {
		start = s.prioBusyUntil
	}
	completion := start + svc
	s.prioBusyUntil = completion
	s.prio.push(s.k, completion, tag)
	return completion
}

// completions is one class's pending tags, in submission order. The
// tags due at one instant form a group whose first tag carries
// groupStart, and each group has exactly one kernel wakeup, scheduled
// when the group began. lastAt is the newest group's instant while its
// wakeup has not fired, else noGroup: a submission completing exactly
// then joins that group. wake is the class's drain, bound once at
// construction.
type completions struct {
	tags   FIFO[uint32]
	lastAt Time
	wake   func()
}

const (
	groupStart uint32 = 1 << 31
	noGroup    Time   = -1
)

func (c *completions) push(k *Kernel, at Time, tag uint32) {
	if tag&groupStart != 0 {
		panic(fmt.Sprintf("sim: station tag %#x uses the top bit", tag))
	}
	if at != c.lastAt {
		k.At(at, c.wake)
		c.lastAt = at
		tag |= groupStart
	}
	c.tags.Push(tag)
}

// drain is one wakeup of class c: it dispatches the group due now, which
// is the oldest — wakeups fire in the order their groups began. A tag
// submitted while the group drains starts a group of its own (if this is
// the newest group its instant is retired first), so it keeps its own,
// later-scheduled wakeup and fires in submission order, exactly as the
// unbatched kernel would.
func (s *Station) drain(c *completions) {
	if c.lastAt == s.k.Now() {
		c.lastAt = noGroup
	}
	for {
		s.served++
		s.dispatch(c.tags.Pop() &^ groupStart)
		if c.tags.Len() == 0 || *c.tags.Peek(0)&groupStart != 0 {
			return
		}
	}
}
