// Package parallel models the real sweep runner's API surface so the
// sharedwrite analyzer can find worker roots by shape (a package whose
// import path ends in "parallel" exposing Map).
package parallel

// Map runs job(0..n-1) on up to workers goroutines.
func Map(workers, n int, job func(int) error) error {
	for i := 0; i < n; i++ {
		if err := job(i); err != nil {
			return err
		}
	}
	return nil
}
