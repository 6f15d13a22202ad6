package workload

import (
	"math"
	"math/rand"
	"testing"
)

// chiSquareUniform is Pearson's statistic of counts against equal shares.
func chiSquareUniform(counts []int) float64 {
	var total int
	for _, c := range counts {
		total += c
	}
	e := float64(total) / float64(len(counts))
	var stat float64
	for _, c := range counts {
		stat += (float64(c) - e) * (float64(c) - e) / e
	}
	return stat
}

// chiSquareOK reports whether a chi-square statistic with df degrees of
// freedom lies within five standard deviations (sqrt(2 df)) of its mean
// (df). Everything here is seeded, so a verdict never flips between runs.
func chiSquareOK(stat float64, df int) bool {
	return math.Abs(stat-float64(df)) <= 5*math.Sqrt(2*float64(df))
}

// TestKeyStreamSeeds checks what a generator needs of KeySource: the
// strided seeds a cluster hands its tenants open unrelated streams, one
// stream is uniform down to its low bits, and a Zipfian chooser driven by it
// draws the ranks it draws from math/rand.
func TestKeyStreamSeeds(t *testing.T) {
	t.Run("neighbouring seeds", func(t *testing.T) {
		const tenants, buckets = 4096, 64
		for _, base := range []int64{0, 42, -7, math.MaxInt64 - 5000*7919} {
			first := make(map[int64]int, tenants)
			var counts [buckets]int
			for i := 0; i < tenants; i++ {
				d := rand.New(NewKeySource(base + int64(i)*7919)).Int63()
				if j, dup := first[d]; dup {
					t.Fatalf("base %d: tenants %d and %d both draw %d first", base, j, i, d)
				}
				first[d] = i
				counts[d>>(63-6)]++
			}
			// Distinct is the least of it: across the fleet the first draws
			// must look like 4096 draws of one good stream.
			if stat := chiSquareUniform(counts[:]); !chiSquareOK(stat, buckets-1) {
				t.Errorf("base %d: first draws of %d strided seeds: chi-square %.1f over %d buckets", base, tenants, stat, buckets)
			}
		}
	})

	t.Run("uniform", func(t *testing.T) {
		const draws, buckets = 1 << 20, 1 << 10
		rng := rand.New(NewKeySource(42))
		// A power-of-two range masks the low bits of each draw, where a
		// weak generator fails first.
		u := &UniformKeys{N: buckets}
		counts := make([]int, buckets)
		for i := 0; i < draws; i++ {
			counts[u.Next(rng)]++
		}
		if stat := chiSquareUniform(counts); !chiSquareOK(stat, buckets-1) {
			t.Errorf("chi-square %.1f over %d buckets, want %d ± %.0f", stat, buckets, buckets-1, 5*math.Sqrt(2*(buckets-1)))
		}
	})

	// TestZipfianNextMatchesReference compares draw for draw on one stream;
	// two different streams can only agree in distribution, so the match
	// here is a two-sample chi-square over every rank (the rarest is
	// expected ~140 times per sample).
	t.Run("zipfian ranks", func(t *testing.T) {
		const draws, n = 1 << 20, 1 << 10
		z, err := NewZipfian(n, zipfTheta)
		if err != nil {
			t.Fatal(err)
		}
		got, ref := rand.New(NewKeySource(42)), rand.New(rand.NewSource(42))
		a, b := make([]int, n), make([]int, n)
		for i := 0; i < draws; i++ {
			a[z.Next(got)]++
			b[z.Next(ref)]++
		}
		var stat float64
		for r := range a {
			d := float64(a[r] - b[r])
			stat += d * d / float64(a[r]+b[r])
		}
		if stat > n-1+5*math.Sqrt(2*(n-1)) {
			t.Errorf("rank frequencies differ from the math/rand reference: chi-square %.1f over %d ranks", stat, n)
		}
		if fa, fb := float64(a[0])/draws, float64(b[0])/draws; math.Abs(fa-fb) > 0.002 {
			t.Errorf("rank-0 frequency %.4f, reference %.4f", fa, fb)
		}
	})
}
