#!/usr/bin/env bash
# Build accesys_bench from this checkout (Release, into .bench_build) and
# run it with the given arguments, e.g.
#   bash benchmark/run.sh --workload gemm_host_4ep --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so stdout carries only the benchmark's result.
# The watchdog ends a wedged run within 170 s of the build finishing.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j4 --target accesys_bench >&2
exec "$build/accesys_bench" --max-wall-ms 170000 "$@"
