package bench

import "sort"

// Quartiles returns the first quartile, median and third quartile of
// values by the exclusive method (the one Python's
// statistics.quantiles(values, n=4) uses), so spreads computed here
// match the driver's. One value is its own quartiles; none gives zeros.
func Quartiles(values []float64) (q1, median, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis, clamped to the data.
		j := k * (n + 1) / 4
		rem := k * (n + 1) % 4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*float64(rem)/4
	}
	return at(1), at(2), at(3)
}

// Median returns the median of values.
func Median(values []float64) float64 {
	_, m, _ := Quartiles(values)
	return m
}

func minMax(values []float64) (lo, hi float64) {
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
