#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. See README.md.
#
#   benchmark/run.sh                                  whole suite, every metric
#   benchmark/run.sh --workload read_static --seed 3 --seconds 10 --trace 0
#   benchmark/run.sh --compare A.json B.json
#
# Run from anywhere; cargo output goes to standard error so the last line
# of standard output is the result.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# An absolute target dir stays valid whatever cargo's working directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --quiet --release --offline \
    --manifest-path "$here/Cargo.toml" >&2

SDR_BENCH_DIR="$here" exec "$target/release/sdr-benchmark" "$@"
