// Package sanitize implements the dynamic half of the determinism
// contract (DESIGN.md §6, §10): cheap always-on invariant assertions
// that run inside every sanitized simulation, not just in dedicated
// tests. Enabled by cluster.Config.Sanitize (the -sanitize flag on
// haechibench, for every experiment, capacity profiling included); when
// off, the hooks are nil and the hot path pays a single pointer
// comparison and allocates nothing.
//
// The checks are pure observers: they read engine/monitor/kernel state
// that the run already computes and never schedule events, mutate
// state, or allocate on the event path — which is why a sanitized run
// stays byte-identical to an unsanitized one (extended
// TestObservabilityInert). This is the one list of the checked
// invariants; a Violation's Check is one of the quoted names. The token
// laws are not among them: cluster.Run checks the run's ledger
// (token-conservation, reclamation-conservation and pool-bank) after
// every run, sanitized or not.
//
//   - "pool-floor": the shared pool may only go negative by the
//     in-flight claim window (one batch per client);
//   - "reservation-floor": admission headroom is never negative;
//   - "kernel-order": events fire in strictly increasing (at, seq)
//     order per kernel;
//   - "shard-mailbox": cross-shard injections are unique, sorted by
//     (at, seq, src), and never in the destination's past;
//   - "bg-window": a background job keeps 0 <= outstanding <= window;
//   - "qp-cache": a NIC's connection cache stays within its capacity
//     and its slots and queue pairs point at each other;
//   - "reservation-split" (several data nodes): after every rebalance
//     round and at run end, each tenant's per-node slices sum to its
//     reservation;
//   - "completion-cookie": every data I/O completion on a tenant's link
//     finds the arrival instant its request was posted with, not one
//     ahead of the clock, and no more instants wait there than the
//     engine's send queue holds.
//
// Faults (cluster.Config.Chaos, DESIGN.md §12) exercise the
// failure-aware ones:
//
//   - "post-crash-completion": a crashed engine observes no more I/O
//     completions than it had in flight;
//   - "rejoin-monotonic": a period push never repeats or regresses the
//     engine's period index;
//   - "reservation-floor-survivor": every measured period below a
//     reservation is excused by the client's own demand, its crash or an
//     injected fault window.
//
// Violations are collected (capped), never panic mid-run, and surface
// as an error from cluster.Run, beside any broken ledger law.
package sanitize

import (
	"fmt"
	"strings"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Check names the invariant, as listed in the package doc.
	Check string
	// At is the virtual time (ns) when the breach was observed.
	At int64
	// Detail is a human-readable account with the observed values.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at t=%dns: %s", v.Check, v.At, v.Detail)
}

// maxViolations caps collection: a broken invariant usually trips every
// period, and the first few occurrences carry all the signal.
const maxViolations = 64

// Checker accumulates violations. It is single-threaded like everything
// else inside a kernel: each shard's events run one at a time, and the
// coordinator only reads results between quanta. A nil *Checker is a
// valid no-op receiver so call sites can stay unconditional where the
// hot path does not care.
type Checker struct {
	violations []Violation
	dropped    uint64
}

// New returns an empty checker.
func New() *Checker { return &Checker{} }

// Reportf records a violation. Callers on hot paths must guard with a
// nil check BEFORE building arguments so the sanitize-off run does not
// evaluate (or allocate) them.
func (c *Checker) Reportf(check string, at int64, format string, args ...any) {
	if c == nil {
		return
	}
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		Check:  check,
		At:     at,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded breaches in observation order.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Merge concatenates several checkers' violations into one checker, in
// argument order. A sharded cluster gives each shard its own checker
// and merges them in shard order at the end of the run, which is
// deterministic because each shard's event schedule is. Nil checkers
// are skipped.
func Merge(cs ...*Checker) *Checker {
	m := New()
	for _, c := range cs {
		if c == nil {
			continue
		}
		m.violations = append(m.violations, c.violations...)
		m.dropped += c.dropped
	}
	if len(m.violations) > maxViolations {
		m.dropped += uint64(len(m.violations) - maxViolations)
		m.violations = m.violations[:maxViolations]
	}
	return m
}

// Err summarizes the recorded violations as one error, or nil when the
// run was clean (or the checker is nil, i.e. sanitizing is off).
func (c *Checker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sanitize: %d invariant violation(s)", len(c.violations))
	if c.dropped > 0 {
		fmt.Fprintf(&b, " (+%d beyond cap)", c.dropped)
	}
	shown := c.violations
	if len(shown) > 3 {
		shown = shown[:3]
	}
	for _, v := range shown {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}
