package sanitize

import (
	"fmt"
	"strings"
	"testing"
)

// TestNilCheckerIsInert pins the nil-receiver contract every hook site
// relies on: with sanitizing off the checker pointer is nil and all
// methods are no-ops.
func TestNilCheckerIsInert(t *testing.T) {
	var c *Checker
	c.Reportf("pool-floor", 1, "ignored %d", 42)
	if got := c.Violations(); got != nil {
		t.Errorf("nil checker has violations: %v", got)
	}
	if err := c.Err(); err != nil {
		t.Errorf("nil checker errs: %v", err)
	}
}

func TestReportfCapsAndCounts(t *testing.T) {
	c := New()
	for i := 0; i < maxViolations+10; i++ {
		c.Reportf("pool-floor", int64(i), "breach %d", i)
	}
	if got := len(c.Violations()); got != maxViolations {
		t.Fatalf("recorded %d violations, want cap %d", got, maxViolations)
	}
	if got := c.dropped; got != 10 {
		t.Errorf("dropped %d, want 10", got)
	}
	if v := c.Violations()[0]; v.Check != "pool-floor" || v.At != 0 || v.Detail != "breach 0" {
		t.Errorf("first violation mangled: %+v", v)
	}
	err := c.Err()
	if err == nil {
		t.Fatal("capped checker returned nil error")
	}
	for _, want := range []string{"64 invariant violation(s)", "(+10 beyond cap)", "pool-floor at t=0ns: breach 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestMergeKeepsShardOrder pins what the sharded cluster depends on:
// merging per-shard checkers concatenates violations in argument (shard)
// order, skips nil entries, and re-applies the cap.
func TestMergeKeepsShardOrder(t *testing.T) {
	a, b := New(), New()
	a.Reportf("kernel-order", 5, "shard 0 first")
	a.Reportf("kernel-order", 9, "shard 0 second")
	b.Reportf("shard-mailbox", 2, "shard 1 first")
	m := Merge(a, nil, b)
	got := m.Violations()
	if len(got) != 3 {
		t.Fatalf("merged %d violations, want 3", len(got))
	}
	for i, want := range []string{"shard 0 first", "shard 0 second", "shard 1 first"} {
		if got[i].Detail != want {
			t.Errorf("violation %d = %q, want %q (shard order lost)", i, got[i].Detail, want)
		}
	}

	// Overfull inputs: the merged checker re-caps and accounts for both
	// the pre-merge drops and its own trim.
	x, y := New(), New()
	for i := 0; i < maxViolations+3; i++ {
		x.Reportf("bg-window", int64(i), "x %d", i)
	}
	y.Reportf("bg-window", 0, "y 0")
	m = Merge(x, y)
	if got := len(m.Violations()); got != maxViolations {
		t.Fatalf("merged %d violations, want cap %d", got, maxViolations)
	}
	if got := m.dropped; got != 4 {
		t.Errorf("merged dropped = %d, want 4 (3 pre-merge + 1 trimmed)", got)
	}
	if err := Merge().Err(); err != nil {
		t.Errorf("empty merge errs: %v", err)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Check: "pool-floor", At: 1500, Detail: "engine-0: off by 5"}
	want := "pool-floor at t=1500ns: engine-0: off by 5"
	if got := fmt.Sprint(v); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
