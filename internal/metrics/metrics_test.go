package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/haechi-qos/haechi/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.total != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Error("empty histogram returned nonzero stats")
	}
}

func TestHistogramSingle(t *testing.T) {
	var h Histogram
	h.Record(1000)
	if h.total != 1 {
		t.Errorf("Count = %d", h.total)
	}
	if h.Mean() != 1000 || h.min != 1000 || h.max != 1000 {
		t.Errorf("single-sample stats wrong: mean=%v min=%v max=%v", h.Mean(), h.min, h.max)
	}
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		if got := h.Percentile(p); got != 1000 {
			t.Errorf("Percentile(%v) = %v, want 1000", p, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.min != 0 || h.max != 0 {
		t.Error("negative sample not clamped")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]sim.Time, 100000)
	for i := range samples {
		samples[i] = sim.Time(rng.Intn(10_000_000)) // up to 10ms
		h.Record(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		exact := samples[int(p/100*float64(len(samples)))-0]
		got := h.Percentile(p)
		rel := float64(got-exact) / float64(exact)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.05 {
			t.Errorf("Percentile(%v) = %v, exact ≈%v (rel err %.3f)", p, got, exact, rel)
		}
	}
}

func TestHistogramMeanExact(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Time{100, 200, 300} {
		h.Record(v)
	}
	if h.Mean() != 200 {
		t.Errorf("Mean = %v, want 200", h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(100)
	b.Record(300)
	b.Record(500)
	a.Merge(&b)
	if a.total != 3 {
		t.Errorf("merged Count = %d", a.total)
	}
	if a.Mean() != 300 {
		t.Errorf("merged Mean = %v, want 300", a.Mean())
	}
	if a.min != 100 || a.max != 500 {
		t.Errorf("merged min/max = %v/%v", a.min, a.max)
	}
	a.Merge(nil)          // no-op
	a.Merge(&Histogram{}) // empty no-op
	if a.total != 3 {
		t.Error("merging nil/empty changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(50)
	h.Reset()
	if h.total != 0 || h.max != 0 {
		t.Error("Reset did not clear")
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Errorf("summary count = %d", s.Count)
	}
	if s.P99 < 970*sim.Microsecond || s.P99 > 1000*sim.Microsecond {
		t.Errorf("P99 = %v, want ≈990µs", s.P99)
	}
	if s.P999 < s.P99 {
		t.Error("P999 < P99")
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

// Property: percentiles are monotone in p and bounded by [min, max].
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(sim.Time(v))
		}
		prev := sim.Time(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := h.Percentile(p)
			if v < prev || v < h.min || v > h.max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: bucketLow(bucketIndex(v)) <= v with relative error < 1/64.
func TestBucketRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		v %= 1 << 62
		low := bucketLow(bucketIndex(sim.Time(v)))
		if uint64(low) > v {
			return false
		}
		if v >= subBuckets {
			if float64(v-uint64(low))/float64(v) > 1.0/subBuckets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// denseHistogram is the reference the sparse Histogram must agree with: the
// same bucketing over one flat counter array (the layout Histogram had
// before its rows became lazy).
type denseHistogram struct {
	counts   [64 * subBuckets]uint64
	total    uint64
	sum      float64
	min, max sim.Time
}

func (h *denseHistogram) record(v sim.Time) {
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
}

func (h *denseHistogram) merge(o *denseHistogram) {
	if o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

func (h *denseHistogram) percentile(p float64) sim.Time {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if seen == h.total {
				return h.max
			}
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// TestHistogramSparseMatchesDense: allocating an octave's counters on its
// first sample changes no answer. 10^5 log-uniform samples over 1 ns–10 s
// cover every octave a simulated latency can land in.
func TestHistogramSparseMatchesDense(t *testing.T) {
	if sz := unsafe.Sizeof(Histogram{}); sz > 64 {
		t.Errorf("empty Histogram is %d bytes, want <= 64", sz)
	}
	rng := rand.New(rand.NewSource(7))
	draw := func() sim.Time {
		return sim.Time(math.Exp(rng.Float64() * math.Log(1e10))) // 1 ns .. 10 s
	}
	agree := func(label string, h *Histogram, d *denseHistogram) {
		t.Helper()
		var mean sim.Time
		if d.total > 0 {
			mean = sim.Time(d.sum / float64(d.total))
		}
		if h.total != d.total || h.Mean() != mean || h.min != d.min || h.max != d.max {
			t.Fatalf("%s: count/mean/min/max = %d/%v/%v/%v, dense %d/%v/%v/%v", label,
				h.total, h.Mean(), h.min, h.max, d.total, mean, d.min, d.max)
		}
		for p := 0.0; p <= 100; p += 0.05 {
			if got, want := h.Percentile(p), d.percentile(p); got != want {
				t.Fatalf("%s: Percentile(%v) = %v, dense %v", label, p, got, want)
			}
		}
	}
	var a, b Histogram
	var da, db denseHistogram
	agree("empty", &a, &da)
	for i := 0; i < 100_000; i++ {
		v := draw()
		if i%3 == 0 {
			b.Record(v)
			db.record(v)
		} else {
			a.Record(v)
			da.record(v)
		}
	}
	agree("a", &a, &da)
	agree("b", &b, &db)
	a.Merge(&b)
	da.merge(&db)
	agree("a+b", &a, &da)
	var empty Histogram
	empty.Merge(&b) // merging into a histogram with no rows allocates them
	agree("0+b", &empty, &db)
	a.Reset()
	da = denseHistogram{}
	agree("reset", &a, &da)
	a.Record(5)
	da.record(5)
	agree("after reset", &a, &da)
}

// TestHistogramBucketOverflowPanics: bucket counters are 32-bit, and a
// bucket reaching 2^32-1 — by Record or by Merge — panics instead of
// wrapping.
func TestHistogramBucketOverflowPanics(t *testing.T) {
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", label)
			}
		}()
		f()
	}
	var h Histogram
	h.Record(5)
	h.rows[0][5] = math.MaxUint32 - 2
	h.Record(5) // 2^32-2: still counts
	if h.rows[0][5] != math.MaxUint32-1 {
		t.Fatalf("bucket = %d, want 2^32-2", h.rows[0][5])
	}
	mustPanic("Record", func() { h.Record(5) })

	var a, b Histogram
	a.Record(7)
	b.Record(7)
	a.rows[0][7] = math.MaxUint32 / 2
	b.rows[0][7] = math.MaxUint32/2 + 1
	mustPanic("Merge", func() { a.Merge(&b) })
}

// TestHistogramRowsAreHalfOctaves pins the allocation unit — a row is 32
// counters, 128 bytes — and that it moves no answer: one sample in every
// octave from 1 ns to 2^40 ns, at a third of the way through the octave
// in turn, gives the values the 64-counter rows gave (the literal table),
// recorded in one histogram or merged from two.
func TestHistogramRowsAreHalfOctaves(t *testing.T) {
	var h, odd, even Histogram
	for k := 0; k <= 40; k++ {
		v := sim.Time(1) << k
		v += v * sim.Time(k%3) / 3
		h.Record(v)
		if k%2 == 0 {
			even.Record(v)
		} else {
			odd.Record(v)
		}
	}
	if sz := unsafe.Sizeof(*h.rows[0]); sz != 128 {
		t.Errorf("a histogram row is %d bytes, want 128", sz)
	}
	wantSum := Summary{Count: 41, Mean: 68958917421, P50: 1736704, P99: 1466015503701, P999: 1466015503701, Max: 1466015503701}
	want := []struct {
		p float64
		v sim.Time
	}{
		{0, 1}, {1, 1}, {5, 6}, {10, 21}, {20, 424}, {25, 1360}, {30, 4096},
		{40, 87040}, {50, 1736704}, {60, 16777216}, {70, 356515840},
		{75, 1073741824}, {80, 7113539584}, {90, 68719476736},
		{95, 455266533376}, {97.5, 549755813888}, {99, 1466015503701},
		{100, 1466015503701},
	}
	even.Merge(&odd)
	for _, c := range []struct {
		label string
		h     *Histogram
	}{{"recorded", &h}, {"merged", &even}} {
		if got := c.h.Summarize(); got != wantSum {
			t.Errorf("%s: Summarize = %+v, want %+v", c.label, got, wantSum)
		}
		for _, w := range want {
			if got := c.h.Percentile(w.p); got != w.v {
				t.Errorf("%s: Percentile(%v) = %d, want %d", c.label, w.p, got, w.v)
			}
		}
	}
}
