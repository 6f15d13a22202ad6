// Package workload generates the paper's evaluation workloads: YCSB-style
// key choosers (uniform, zipfian, latest), the two temporal request
// patterns (closed-loop burst with a fixed window, open-loop constant
// rate), and the spatial demand/reservation distributions (uniform, spike,
// 5-group Zipf with exponent 0.6).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// zipfTheta is YCSB's default skew constant.
const zipfTheta = 0.99

// Zipfian draws integers in [0, n) with a zipfian distribution using the
// Gray et al. algorithm that YCSB implements ("Quickly generating
// billion-record synthetic databases", SIGMOD '94).
type Zipfian struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	// rank1 is 1 + 0.5^theta: Next returns rank 1 for u*zetan below it.
	// It depends on theta alone, so it is computed once, not per draw.
	rank1 float64
	// ipow is alpha as an integer when raising to it by repeated
	// multiplication is as good as math.Pow to within Next's guard band
	// (theta = 0.99 gives 100), else 0. See Next.
	ipow uint
}

// maxIntPow caps ipow: square-and-multiply to the k-th power accumulates
// about k roundings of 2^-53, which has to stay far inside Next's 1e-12
// guard band.
const maxIntPow = 1 << 10

// NewZipfian creates a zipfian chooser over [0, n) with skew theta in
// (0, 1); use zipfTheta for YCSB defaults.
func NewZipfian(n uint64, theta float64) (*Zipfian, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: zipfian range must be positive")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipfian theta must be in (0,1), got %v", theta)
	}
	z := &Zipfian{n: n}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)
	// Next raises a base in [1-eta, 1] to alpha. With k the nearest integer,
	// base^k is off from base^alpha by a factor within |alpha-k|*|ln(1-eta)|
	// of 1. A degenerate eta makes the bound NaN or Inf and fails the test.
	if k := math.Round(z.alpha); k <= maxIntPow && math.Abs(z.alpha-k)*math.Abs(math.Log(1-z.eta)) <= 1e-13 {
		z.ipow = uint(k)
	}
	return z, nil
}

// zeta computes the generalized harmonic number sum_{i=1}^{n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next zipfian value; 0 is the most popular.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	if z.ipow != 0 {
		// The rank is the integer part of n*base^alpha. The product below
		// differs from math.Pow's by less than 1e-12 of itself (see
		// NewZipfian), so the two truncate alike unless an integer lies
		// that close; then math.Pow decides, as it does for any other theta.
		base, pow := z.eta*u-z.eta+1, 1.0
		for e := z.ipow; e != 0; e >>= 1 {
			if e&1 != 0 {
				pow *= base
			}
			base *= base
		}
		x := float64(z.n) * pow
		v := uint64(x)
		if d, guard := x-float64(v), 1e-12*x; d > guard && 1-d > guard {
			return v // x < n: pow <= 1 and x is no integer
		}
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// fnvHash64 is the FNV-1a scramble YCSB applies to spread hot zipfian
// ranks across the keyspace.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= prime
		v >>= 8
	}
	return h
}

// ScrambledZipfian is YCSB's scrambled zipfian: zipfian ranks hashed over
// the keyspace so popularity is skewed but not clustered.
type ScrambledZipfian struct {
	z *Zipfian
	n uint64
}

// NewScrambledZipfian creates a scrambled zipfian chooser over [0, n).
func NewScrambledZipfian(n uint64) (*ScrambledZipfian, error) {
	z, err := NewZipfian(n, zipfTheta)
	if err != nil {
		return nil, err
	}
	return &ScrambledZipfian{z: z, n: n}, nil
}

// Next draws the next key.
func (s *ScrambledZipfian) Next(rng *rand.Rand) uint64 {
	return fnvHash64(s.z.Next(rng)) % s.n
}
