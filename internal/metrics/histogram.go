// Package metrics provides the measurement primitives used by the
// evaluation harness: a log-bucketed latency histogram (average, p99,
// p99.9 as reported in the paper's Fig. 15), time-series recording, and
// per-period completion counters.
package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/haechi-qos/haechi/internal/sim"
)

// subBucketBits sets histogram precision: 2^6 = 64 sub-buckets per power
// of two, i.e. better than 1.6% relative error — ample for tail latency
// reporting.
const subBucketBits = 6

const subBuckets = 1 << subBucketBits

// rowBits sets the allocation unit: counters are allocated in rows of
// 2^5 = 32 buckets, half an octave, which is 128 bytes. Precision is set
// by subBucketBits alone; the row width decides only how much of an
// octave no sample reached is left unallocated.
const rowBits = 5

const rowLen = 1 << rowBits

// Histogram records non-negative durations with logarithmic bucketing.
// The zero value is ready to use. Each half octave's row of counters is
// allocated on its first sample, and the row table spans only the rows
// between the lowest and the highest seen: latencies span a handful of
// octaves, so an idle tenant's histogram is its 64-byte header and a busy
// one a few 128-byte rows, not the 32 KB of a dense bucket array. Bucket
// counters are 32-bit; a bucket reaching 2^32-1 panics (see add). A
// Histogram holds pointers to its rows and must not be copied by value
// once it has samples.
type Histogram struct {
	// rows[r] holds row lo+r's counters, nil until its first sample:
	// bucket i is rows[i>>rowBits-lo][i&(rowLen-1)].
	rows  []*[rowLen]uint32
	lo    int
	total uint64
	sum   float64
	min   sim.Time
	max   sim.Time
}

func bucketIndex(v sim.Time) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - subBucketBits
	return int(u>>uint(exp)) + exp<<subBucketBits
}

// bucketLow returns a representative (lower-bound) value for bucket i.
func bucketLow(i int) sim.Time {
	if i < subBuckets {
		return sim.Time(i)
	}
	exp := i>>subBucketBits - 1
	mant := i & (subBuckets - 1)
	return sim.Time((uint64(subBuckets) + uint64(mant)) << uint(exp))
}

// row returns row r's bucket counters, allocating them — and widening
// the row table to reach r — on first use.
func (h *Histogram) row(r int) *[rowLen]uint32 {
	switch {
	case len(h.rows) == 0:
		h.rows, h.lo = make([]*[rowLen]uint32, 1), r
	case r < h.lo:
		rows := make([]*[rowLen]uint32, h.lo-r+len(h.rows))
		copy(rows[h.lo-r:], h.rows)
		h.rows, h.lo = rows, r
	case r >= h.lo+len(h.rows):
		h.rows = append(h.rows, make([]*[rowLen]uint32, r-h.lo-len(h.rows)+1)...)
	}
	p := &h.rows[r-h.lo]
	if *p == nil {
		*p = new([rowLen]uint32)
	}
	return *p
}

// add adds n samples to bucket counter c. Reaching 2^32-1 panics instead
// of wrapping: a paper-scale run records about 10^8 samples in all, so the
// limit is unreachable, and a wrapped bucket would corrupt every
// percentile above it.
func add(c *uint32, n uint32) {
	if n >= math.MaxUint32-*c {
		panic("metrics: histogram bucket reached 2^32-1 samples")
	}
	*c += n
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := bucketIndex(v)
	add(&h.row(i >> rowBits)[i&(rowLen-1)], 1)
	h.total++
	h.sum += float64(v)
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if h.total == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.total))
}

// Percentile returns the sample value at quantile p in [0,100]. With no
// samples it returns 0. The result is accurate to the bucket width
// (<1.6%), except that the exact maximum is returned for p spanning the
// last sample.
func (h *Histogram) Percentile(p float64) sim.Time {
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
	for r, row := range h.rows {
		if row == nil {
			continue
		}
		for j, c := range row {
			seen += uint64(c)
			if seen >= rank {
				if seen == h.total {
					// The rank falls in the final occupied bucket; the true
					// max is known exactly.
					return h.max
				}
				v := bucketLow((h.lo+r)<<rowBits | j)
				// A bucket lower bound can undershoot the true smallest
				// sample; clamp so results stay within [min, max].
				if v < h.min {
					v = h.min
				}
				return v
			}
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for r, from := range other.rows {
		if from == nil {
			continue
		}
		to := h.row(other.lo + r)
		for j, c := range from {
			add(&to[j], c)
		}
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// Summary is a compact view of a histogram in the form the paper reports
// (Fig. 15: average, 99%, 99.9% read latency).
type Summary struct {
	Count uint64
	Mean  sim.Time
	P50   sim.Time
	P99   sim.Time
	P999  sim.Time
	Max   sim.Time
}

// Summarize extracts a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.max,
	}
}

// String formats the summary for table output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
}
