//go:build unix

package main

import "syscall"

// cpuSeconds returns the user plus system CPU time the process has used,
// and false when the platform cannot say.
func cpuSeconds() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, true
}
