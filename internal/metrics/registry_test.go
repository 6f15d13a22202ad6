package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

func TestRegistryRegisterErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", func() float64 { return 0 }); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register("g", nil); err == nil {
		t.Error("nil gauge accepted")
	}
	if err := r.Register("g", func() float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("g", func() float64 { return 2 }); err == nil {
		t.Error("duplicate name accepted")
	}
	r.Sample(0)
	if err := r.Register("late", func() float64 { return 3 }); err == nil {
		t.Error("registration after sampling accepted")
	}
}

func TestRegistrySampleAndSeries(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	if err := r.Register("gauge", func() float64 { return v }); err != nil {
		t.Fatal(err)
	}
	var n uint64
	if err := r.Register("count", func() float64 { return float64(n) }); err != nil {
		t.Fatal(err)
	}
	r.Sample(10)
	v = 2.5
	n += 7
	r.Sample(20)
	if r.Samples() != 2 {
		t.Fatalf("Samples() = %d, want 2", r.Samples())
	}
	if got := r.Names(); len(got) != 2 || got[0] != "gauge" || got[1] != "count" {
		t.Errorf("Names() = %v, want registration order [gauge count]", got)
	}
	s, ok := r.Series("gauge")
	if !ok || s.Len() != 2 {
		t.Fatalf("Series(gauge) = %v, %v", s, ok)
	}
	if vals := s.Values(); vals[0] != 1 || vals[1] != 2.5 {
		t.Errorf("gauge values = %v, want [1 2.5]", vals)
	}
	cs, _ := r.Series("count")
	if vals := cs.Values(); vals[0] != 0 || vals[1] != 7 {
		t.Errorf("counter values = %v, want [0 7]", vals)
	}
	if _, ok := r.Series("missing"); ok {
		t.Error("Series returned ok for unregistered name")
	}
}

func TestRegistryCSV(t *testing.T) {
	r := NewRegistry()
	v := 0.5
	_ = r.Register("a", func() float64 { return v })
	_ = r.Register("b", func() float64 { return -3 })
	r.Sample(100)
	v = 1e9
	r.Sample(200)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,a,b\n100,0.5,-3\n200,1e+09,-3\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// TestRegistryGrowSamplesAllocFree pins that after Grow(n) the next n
// samples append into reserved columns and allocate nothing.
func TestRegistryGrowSamplesAllocFree(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"a", "b", "c"} {
		_ = r.Register(name, func() float64 { return 1 })
	}
	const n = 101
	r.Grow(n)
	var at sim.Time
	sample := func() {
		r.Sample(at)
		at++
	}
	// AllocsPerRun makes one warm-up call before its n-1 measured ones.
	if allocs := testing.AllocsPerRun(n-1, sample); allocs != 0 {
		t.Errorf("Sample after Grow allocates %v objects, want 0", allocs)
	}
	if r.Samples() != n {
		t.Errorf("Samples() = %d, want %d", r.Samples(), n)
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	_ = r.Register("z/later", func() float64 { return 1 })
	_ = r.Register("a/earlier", func() float64 { return 2 })
	r.Sample(5)
	first, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(r)
	if !bytes.Equal(first, second) {
		t.Error("two marshals of the same registry differ")
	}
	// Columns stay in registration order, not name order.
	var out struct {
		Times   []int64 `json:"times_ns"`
		Metrics []struct {
			Name   string    `json:"name"`
			Values []float64 `json:"values"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(first, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != 2 || out.Metrics[0].Name != "z/later" || out.Metrics[1].Name != "a/earlier" {
		t.Errorf("metrics order = %+v, want registration order", out.Metrics)
	}
}

// TestHistogramQuantilesAtBucketBoundaries pins the quantile semantics
// of the log-bucketed histogram at the edges that matter: the linear
// region boundary (64 with subBucketBits=6) and exact powers of two.
func TestHistogramQuantilesAtBucketBoundaries(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(64)
		h.Record(128)
	}
	// Rank 100 of 200 lands in the 64-bucket; 64 is a bucket lower bound,
	// so p50 is exact.
	if got := h.Percentile(50); got != 64 {
		t.Errorf("p50 = %d, want 64", got)
	}
	// Rank 198 lands in the final occupied bucket → reported as max.
	if got := h.Percentile(99); got != 128 {
		t.Errorf("p99 = %d, want 128 (max)", got)
	}
	if h.Percentile(0) != 64 || h.Percentile(100) != 128 {
		t.Errorf("p0/p100 = %d/%d, want 64/128", h.Percentile(0), h.Percentile(100))
	}

	// Values straddling the linear/log boundary stay exact on both sides:
	// 63 is linear, 64 the first log bucket's lower bound.
	var b Histogram
	b.Record(63)
	b.Record(64)
	if got := b.Percentile(50); got != 63 {
		t.Errorf("boundary p50 = %d, want 63", got)
	}
	if got := b.Percentile(100); got != 64 {
		t.Errorf("boundary p100 = %d, want 64", got)
	}

	// Off-boundary values report their bucket's lower bound: with
	// subBucketBits=6 the second octave has width-2 buckets, so 129
	// collapses to 128. (The final occupied bucket reports the exact max
	// and a lone bucket would be clamped to min, so bracket 129 with a
	// smaller and a larger sample to expose the raw lower bound.)
	var c Histogram
	c.Record(1)
	c.Record(129)
	c.Record(129)
	c.Record(1000)
	if got := c.Percentile(50); got != 128 {
		t.Errorf("mid-bucket p50 = %d, want 128 (bucket lower bound)", got)
	}
	if got := c.Percentile(100); got != 1000 {
		t.Errorf("p100 = %d, want exact max 1000", got)
	}
}
