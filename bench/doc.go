// Package bench is the repository's performance benchmark: four named
// workloads run against the exported APIs of internal/cluster,
// internal/kvstore, internal/rdma and internal/sim, measured entirely
// from outside (no span or counter is added to the program).
//
// The non-test files hold everything that is pure: workload specs,
// metric derivation from cluster.Results, quartile statistics, the
// BENCHMARK.json schema and the -compare verdicts. They stay inside the
// determinism lint gate (no wall clock, no goroutines). Everything that
// reads the wall clock lives in the _test.go files — the same idiom as
// TestWriteKernelBenchJSON and TestWriteFleetBenchJSON — and is reached
// only through run.sh, which builds the package's test binary once and
// runs it with HAECHI_BENCH=1 so TestMain dispatches to the benchmark
// instead of the smoke tests. See README.md for the workloads, the
// metrics and how they are expected to interact.
package bench
