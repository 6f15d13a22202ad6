package sim

import "fmt"

// noTag marks a completion entry that carries a callback instead of a
// dispatch tag.
const noTag = ^uint32(0)

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
// Completion callbacks are not captured in per-operation closures.
// Within each class (bulk, priority) completions happen in submission
// order — the class's busy horizon is monotone and the kernel breaks
// same-instant ties by scheduling order — so each class keeps a FIFO of
// pending completion entries and schedules one pre-bound method per
// distinct completion time. When several submissions of one class land on
// the same completion instant (weight-zero verbs, coarse service times),
// they coalesce onto a single wakeup that drains every due entry, instead
// of one kernel event each. Submitting an operation therefore allocates
// nothing beyond the kernel's pooled event.
//
// Instead of a callback, a submission may carry a 32-bit dispatch tag
// (SubmitTagged / SubmitPriorityTagged): on completion the station calls
// the dispatch function installed with SetDispatch. Tags let a fabric
// encode (queue-pair, stage) pairs as values and resolve them through one
// bound function per node, rather than holding per-object completion
// closures for every stage of every queue pair.
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
	// themselves; see SubmitPriority.
	prioBusyUntil Time
	// served counts operations completed.
	served uint64
	// name identifies the station in diagnostics.
	name string

	// dispatch resolves tagged completions; see SetDispatch.
	dispatch func(tag uint32)

	// bulkDone and prioDone hold the pending completion entries, one FIFO
	// per completion class; completeBulk and completePrio are the
	// corresponding bound wakeup methods, created once at construction.
	// Per class, sched counts outstanding kernel wakeups and lastAt is the
	// latest scheduled wakeup instant: a submission completing exactly at
	// lastAt rides the already-scheduled wakeup.
	bulkDone     FIFO[entry]
	prioDone     FIFO[entry]
	bulkSched    int
	prioSched    int
	bulkLastAt   Time
	prioLastAt   Time
	completeBulk func()
	completePrio func()
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
	s.completeBulk = s.onBulkComplete
	s.completePrio = s.onPrioComplete
	return s, nil
}

// Name returns the station's diagnostic name.
func (s *Station) Name() string { return s.name }

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

// SetDispatch installs the resolver for tagged completions. It must be set
// before the first SubmitTagged/SubmitPriorityTagged and not changed while
// tagged operations are in flight.
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

// Submit enqueues one operation with service-time weight 1 and invokes done
// when it completes. It returns the completion time.
func (s *Station) Submit(done func()) Time {
	return s.submitBulk(1, done, noTag)
}

// SubmitPriority processes one small operation ahead of the bulk FIFO
// queue while still charging its service time to the station's capacity.
// It models NIC arbitration across queue pairs: a tiny control verb (an
// atomic, an 8-byte write) is scheduled within its own service time plus
// any earlier priority work, instead of waiting behind every queued bulk
// transfer — but the processing time it consumes still delays bulk work.
func (s *Station) SubmitPriority(weight float64, done func()) Time {
	return s.submitPrio(weight, done, noTag)
}

// SubmitWeighted enqueues one operation whose service time is weight times
// the station's per-op service time (e.g. a doorbell-batched verb may be
// cheaper than a full 4 KB transfer). done may be nil.
func (s *Station) SubmitWeighted(weight float64, done func()) Time {
	return s.submitBulk(weight, done, noTag)
}

// SubmitTagged is SubmitWeighted with a dispatch tag instead of a
// callback: on completion the station calls the SetDispatch resolver with
// tag. The tag must not equal the reserved sentinel ^uint32(0).
func (s *Station) SubmitTagged(weight float64, tag uint32) Time {
	return s.submitBulk(weight, nil, tag)
}

// SubmitPriorityTagged is SubmitPriority with a dispatch tag.
func (s *Station) SubmitPriorityTagged(weight float64, tag uint32) Time {
	return s.submitPrio(weight, nil, tag)
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

func (s *Station) submitBulk(weight float64, done func(), tag uint32) Time {
	svc := s.svcTime(weight)
	start := s.k.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	completion := start + svc
	s.busyUntil = completion
	s.bulkDone.Push(entry{at: completion, fn: done, tag: tag})
	if s.bulkSched == 0 || completion != s.bulkLastAt {
		s.k.At(completion, s.completeBulk)
		s.bulkSched++
		s.bulkLastAt = completion
	}
	return completion
}

func (s *Station) submitPrio(weight float64, done func(), tag uint32) Time {
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
	s.prioDone.Push(entry{at: completion, fn: done, tag: tag})
	if s.prioSched == 0 || completion != s.prioLastAt {
		s.k.At(completion, s.completePrio)
		s.prioSched++
		s.prioLastAt = completion
	}
	return completion
}

// onBulkComplete is one bulk-class wakeup: it drains every entry due at or
// before the current instant. The due count is captured before the first
// callback runs, so entries pushed by a callback at the same instant keep
// their own (later-scheduled) wakeup and fire in submission order, exactly
// as the unbatched kernel would.
func (s *Station) onBulkComplete() {
	s.bulkSched--
	now := s.k.Now()
	for n := dueCount(&s.bulkDone, now); n > 0; n-- {
		e := s.bulkDone.Pop()
		s.served++
		if e.tag != noTag {
			s.dispatch(e.tag)
		} else if e.fn != nil {
			e.fn()
		}
	}
}

func (s *Station) onPrioComplete() {
	s.prioSched--
	now := s.k.Now()
	for n := dueCount(&s.prioDone, now); n > 0; n-- {
		e := s.prioDone.Pop()
		s.served++
		if e.tag != noTag {
			s.dispatch(e.tag)
		} else if e.fn != nil {
			e.fn()
		}
	}
}

// entry is one pending completion: the instant it is due and either a
// callback or a dispatch tag (tag == noTag means callback form).
type entry struct {
	at  Time
	fn  func()
	tag uint32
}

// dueCount returns how many consecutive entries from q's head are due at
// or before now.
func dueCount(q *FIFO[entry], now Time) int {
	n := 0
	for n < q.Len() && q.Peek(n).at <= now {
		n++
	}
	return n
}
