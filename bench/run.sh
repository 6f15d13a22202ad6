#!/usr/bin/env bash
# The one way into the benchmark: builds the package's test binary (only
# when a Go source changed, so compile time never lands in setup_s) and
# runs it with HAECHI_BENCH=1, which makes TestMain dispatch to the
# benchmark instead of the smoke tests.
#
#   bench/run.sh [-workload W] [-seed S] [-seconds N] [-trace 0|1 | -layers]
#                [-trace-out F] [-out F] [-quick]
#   bench/run.sh -compare A.json B.json
#
# Everything it writes (build cache, binary, default trace file) stays
# under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
bin="$build/haechi-bench.test"
mkdir -p "$build"

# Keep the toolchain's own files (build cache, module cache, go env,
# telemetry counters) inside the checkout, and never fetch a toolchain.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

stamp="$(
	{
		go version
		find . \( -path ./.bench_build -o -path ./.git \) -prune -o \
			\( -name '*.go' -o -name go.mod \) -type f -print0 |
			LC_ALL=C sort -z | xargs -0 sha256sum
	} | sha256sum | cut -d' ' -f1
)"
if [[ ! -x "$bin" || "$(cat "$build/stamp" 2>/dev/null)" != "$stamp" ]]; then
	go test -c -o "$bin" ./bench
	echo "$stamp" >"$build/stamp"
fi

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
HAECHI_BENCH=1 HAECHI_BENCH_COMMIT="$commit" exec "$bin" \
	-trace-out "$build/harness-trace.json" "$@"
