// Package work seeds sharedwrite violations: package-level writes
// reachable from worker bodies, directly and through a helper, plus an
// allowlisted variable and a sequential-only write that must stay
// silent.
package work

import "sharedwritemod/parallel"

var counter int // written directly from a Map worker body
var total int   // written via a helper called from the worker body
var allowed int // allowlisted in the analyzer test: stays silent there
var safe int    // written only from sequential code: always silent

func bump() { total++ }

// Sweep fans work out; the literals below are worker roots.
func Sweep() {
	_ = parallel.Map(4, 4, func(i int) error {
		counter++
		bump()
		return nil
	})
	_ = parallel.Map(2, 4, func(i int) error {
		allowed = i
		return nil
	})
}

// Sequential is not reachable from any worker body.
func Sequential() { safe = 1 }
