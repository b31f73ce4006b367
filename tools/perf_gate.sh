#!/usr/bin/env bash
# Perf gate: compare this checkout with BASE_REF, both built and run on
# the same machine, so the verdict measures the change and not the host.
#
#   tools/perf_gate.sh BASE_REF
#
# BASE_REF is built in a temporary git worktree; both sides are Release
# builds of benchmark/ (which pulls in the root project). Two parts:
#
# 1. End to end: `accesys_bench --legs 10 --seed 1` on each side, then
#    `accesys_bench --compare base.json head.json --bounds BENCHMARK.json`.
#    Fails on any `worse` verdict or any failed job. Exact per-layer
#    differences are printed but not gated: ctest and the goldens gate
#    behaviour, and a change that fixes the model must pass this gate.
# 2. Micro-benches: bench_micro's event-queue, packet-alloc, xbar, DRAM,
#    cache-fill and link-credit cases, three interleaved runs per side
#    (base, head, base, ...), each with --benchmark_repetitions=3. Fails
#    when a case's median items/s is below half of the base's median.
#    Beside each side's median the table prints the min and max of its
#    nine samples, so host drift shows as overlapping ranges. Only the
#    cases both sides have are compared.
#
# Results land in build-perf-gate/: compare.txt (end to end), micro.txt
# (micro-benches) and profile.txt (`bench_multi_accel_contention
# --devices 4 --profile` on this checkout, for reference).
set -euo pipefail

base_ref=${1:?usage: tools/perf_gate.sh BASE_REF}
cd "$(git rev-parse --show-toplevel)"
out=$PWD/build-perf-gate

rm -rf "$out"
git worktree prune
mkdir -p "$out"
git worktree add --detach "$out/base-src" "$base_ref" >/dev/null
trap 'git worktree remove --force "$out/base-src"' EXIT

build() { # build SRC_DIR BUILD_DIR
    cmake -S "$1/benchmark" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$2" -j "$(nproc)" --target accesys_bench bench_micro \
        bench_multi_accel_contention >/dev/null
}
echo "perf_gate: building $base_ref and the checkout"
build "$out/base-src" "$out/base"
build "$PWD" "$out/head"

status=0

# --- end to end ---------------------------------------------------------------
for side in base head; do
    echo "perf_gate: accesys_bench on $side"
    if ! "$out/$side/accesys_bench" --legs 10 --seed 1 \
        --out "$out/$side.json" >"$out/$side-bench.txt"; then
        echo "perf_gate: FAIL: $side has failed jobs (see $side-bench.txt)"
        status=1
    fi
done
"$out/head/accesys_bench" --compare "$out/base.json" "$out/head.json" \
    --bounds BENCHMARK.json >"$out/compare.txt" || true
cat "$out/compare.txt"
if ! grep -q '^exact per-layer values:' "$out/compare.txt"; then
    echo "perf_gate: FAIL: the end-to-end comparison did not complete"
    status=1
elif awk '$NF == "worse" || / missing from /' "$out/compare.txt" | grep -q .; then
    echo "perf_gate: FAIL: an end-to-end metric is worse than at $base_ref"
    status=1
fi

# --- micro-benches ------------------------------------------------------------
filter='^bm_(event_queue|packet_alloc|xbar_forward|dram_stream|cache_fill|link_credit)'
for run in 1 2 3; do
    for side in base head; do
        echo "perf_gate: bench_micro on $side, run $run of 3"
        "$out/$side/accesys/bench_micro" --benchmark_filter="$filter" \
            --benchmark_repetitions=3 --benchmark_format=csv 2>/dev/null |
            awk -F, -v side="$side" '
                $1 == "name" { for (i = 1; i <= NF; ++i) col[$i] = i; next }
                col["items_per_second"] {
                    name = $1
                    gsub(/"/, "", name)
                    v = $col["items_per_second"]
                    if (name !~ /_(mean|median|stddev|cv)$/ && v != "")
                        print name, side, v
                }' >>"$out/micro.tsv"
    done
done
{
    printf '%-32s %11s %-22s %11s %-22s %9s  %s\n' "case (items/s)" \
        "base median" "[min, max]" "head median" "[min, max]" head/base verdict
    sort -k1,1 -k2,2 -k3,3g "$out/micro.tsv" | awk '
        function close_group() {
            if (n) {
                med[key] = n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
                lo[key] = v[1]
                hi[key] = v[n]
            }
            n = 0
        }
        $1 SUBSEP $2 != key { close_group(); key = $1 SUBSEP $2; cases[$1] }
        { v[++n] = $3 }
        END {
            close_group()
            for (c in cases) {
                if (!((c SUBSEP "base") in med) || !((c SUBSEP "head") in med)) {
                    printf "%-32s only on one side, not compared\n", c
                    continue
                }
                b = med[c, "base"]
                h = med[c, "head"]
                printf "%-32s %11.4g [%9.4g, %9.4g] %11.4g [%9.4g, %9.4g] %9.3f  %s\n",
                       c, b, lo[c, "base"], hi[c, "base"], h, lo[c, "head"],
                       hi[c, "head"], h / b, h < b / 2 ? "SLOWER" : "ok"
            }
        }' | sort
} >"$out/micro.txt"
cat "$out/micro.txt"
if grep -q 'SLOWER$' "$out/micro.txt"; then
    echo "perf_gate: FAIL: a micro-bench runs at under half its base speed"
    status=1
fi

"$out/head/accesys/bench_multi_accel_contention" --devices 4 --profile \
    >"$out/profile.txt"

if [ "$status" = 0 ]; then
    echo "perf_gate: PASS against $base_ref"
fi
exit "$status"
