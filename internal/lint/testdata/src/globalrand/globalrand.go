// Package fixture seeds global-randomness violations for the globalrand
// analyzer.
package fixture

import (
	"math/rand"

	"github.com/haechi-qos/haechi/internal/workload"
)

// Bad draws from the process-global source.
func Bad(n int) int {
	x := rand.Intn(n)
	rand.Shuffle(n, func(i, j int) {})
	return x + int(rand.Int63())
}

// BadNew hides the seed behind an opaque source value.
func BadNew(src rand.Source) *rand.Rand {
	return rand.New(src)
}

// Good plumbs an explicitly seeded generator.
func Good(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// GoodParam draws from a generator the caller seeded.
func GoodParam(rng *rand.Rand) float64 {
	return rng.Float64()
}

// GoodKeys seeds the compact key stream inline, the form NewSource takes.
func GoodKeys(seed int64) int {
	rng := rand.New(workload.NewKeySource(seed))
	return rng.Intn(10)
}

// BadKeys builds the key source on an earlier line: by the time rand.New
// runs, the seed is out of sight.
func BadKeys(seed int64) *rand.Rand {
	src := workload.NewKeySource(seed)
	return rand.New(src)
}
