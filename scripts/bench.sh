#!/usr/bin/env bash
# Runs the checked-in perf gates and refreshes their JSON summaries at
# the repo root:
#   E10 kernels         -> BENCH_pr3.json (kernel vs naive, ~10k/~100k/~1M facts)
#   E11 concurrent_read -> BENCH_pr4.json (reader p99 under active reduction;
#                          exits non-zero if versioned active p99 > 2x idle p99)
#   lint_specs          -> full lint pass + incremental insert over a
#                          50-action prover-heavy policy, vs the runtime
#                          NonCrossing+Growing checks as the budget
#   E12 explain_overhead -> BENCH_pr6.json (explain/profile vs the plain
#                          query and sync+query they wrap, registry
#                          enabled vs disabled, ~100k/~1M facts)
#   E14 planner_storage  -> BENCH_pr8.json (planned vs naive query at 10M
#                          facts — ≥2x on selective windows — and the
#                          format-3 bytes-on-disk table — ≥1.6x smaller
#                          than the raw layout; digests compared first)
#   E15 sharded_serve    -> BENCH_pr9.json (1/2/4-shard sync at ~1M facts
#                          + serve p50/p99 wire latency; digests compared
#                          against the 1-shard reference first; the
#                          parallel-speedup gate is core-count-aware —
#                          ≥2x on 4+ cores, bounded overhead on 1 core)
#
# Pass additional bench names as arguments to run other targets too,
# e.g.:  scripts/bench.sh reduction query_reduced
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p sdr-bench --bench kernels
cargo bench -p sdr-bench --bench concurrent_read
cargo bench -p sdr-bench --bench lint_specs
cargo bench -p sdr-bench --bench explain_overhead
cargo bench -p sdr-bench --bench planner_storage
cargo bench -p sdr-bench --bench sharded_serve
for target in "$@"; do
  cargo bench -p sdr-bench --bench "$target"
done
