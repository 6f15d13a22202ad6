//go:build !unix

package main

// cpuSeconds has no process CPU clock to read here; the status line
// then reports wall time alone.
func cpuSeconds() (float64, bool) { return 0, false }
