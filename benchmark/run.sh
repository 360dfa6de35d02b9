#!/usr/bin/env bash
# The one command of the dsearch benchmark.
#
#   benchmark/run.sh [--seed N] [--quick] [--seconds S]
#                    [--dsearch-bin PATH]... [--pairs N]
#       builds the program and the benchmark, runs every workload end to end
#       (three repetitions, interleaved) and once traced, prints every metric
#       by name with its unit, and writes benchmark/out/result.json.  With two
#       --dsearch-bin it runs interleaved A/B pairs instead.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload, as the driver of BENCHMARK.json calls it:
#       the last line of stdout is the result object.
#
#   benchmark/run.sh compare A.json B.json
#       verdict per end-to-end metric and workload; non-zero on any "worse".
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

# One target directory for the program and the benchmark, absolute so that
# the two builds and the spawned binaries agree on it.
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

workload=""
trace=0
own_program=1
prev=""
for arg in "$@"; do
    case $prev in
        --workload) workload=$arg ;;
        --trace) trace=$arg ;;
        --dsearch-bin) own_program=0 ;;
    esac
    prev=$arg
done

# The benchmark never runs a binary it did not just bring up to date: a stale
# program would be measured as if it were this checkout's.
if [ "$own_program" = 1 ] && [ "${1:-}" != compare ]; then
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p dsearch-cli >&2
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$target/release

if [ "${1:-}" = compare ]; then
    exec "$bin/benchmark" "$@"
elif [ -n "$workload" ]; then
    if [ "$trace" = 1 ]; then half=layers; else half=e2e; fi
    exec "$bin/$half" --out-dir "$here/out" "$@"
else
    exec "$bin/benchmark" suite --out-dir "$here/out" "$@"
fi
