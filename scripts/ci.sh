#!/usr/bin/env bash
# Full local CI gate. Run from the repo root: ./scripts/ci.sh
# Mirrors what a hosted pipeline would run; everything works offline
# (all third-party deps are vendored path crates).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release
run cargo test -q
run cargo test -q --workspace
# The benchmark package sits outside the root workspace (its own
# manifest and lock file), so the commands above never compile it; build
# and test it here so a core refactor cannot break it unnoticed.
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
run cargo test -q --offline --manifest-path benchmark/Cargo.toml
# One-second smoke runs of the two write-path workloads, of the static
# read workload and of the mixed one: the benchmark checks its digests
# (checkpoint -> drop -> recover -> first touch, the aged warehouse
# against a from-scratch reference, sharded answers against a 1-shard
# reference and wire answers against in-process ones) before it times
# anything, so every change to the storage layer or the read path
# passes those gates here. `read_churn` is the one workload whose gates
# check for torn reads while a writer publishes aging steps.
run benchmark/run.sh --workload ingest_age --seconds 1 --trace 0
run benchmark/run.sh --workload restart_scan --seconds 1 --trace 0
run benchmark/run.sh --workload read_static --seconds 1 --trace 0
run benchmark/run.sh --workload read_churn --seconds 1 --trace 0
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings

# Doc gate: first-party crates build their docs without warnings (the
# crates that opt into #![warn(missing_docs)] promote missing docs to
# hard errors here). Vendored stubs are exempt, hence no --workspace.
run env RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps \
  -p sdr-mdm -p sdr-spec -p sdr-lint -p sdr-prover -p sdr-reduce \
  -p sdr-obs -p sdr-query -p sdr-plan -p sdr-storage -p sdr-subcube \
  -p sdr-workload -p sdr-sync -p sdr-check -p specdr

# Lint gate: every checked-in example specification must pass
# `specdr lint` with all rules denied. A warning here is a CI failure —
# the examples are documentation and must stay defect-free.
echo "==> specdr lint gate (examples/specs)"
for f in examples/specs/*.spec; do
  out=$(cargo run -q --release --bin specdr -- lint \
          --spec-file "$f" --deny warnings --format=json) || {
    echo "lint gate failed on $f:" >&2
    echo "$out" >&2
    exit 1
  }
  echo "  $f: $out"
done

# Model-checker gate: exhaustively explore every concurrency-protocol
# harness up to its preemption bound and fail on any counterexample.
# Every protocol line must report "(exhaustive)" — a bound cut or an
# exhausted budget means the proof no longer covers the state space and
# is just as much a failure as a counterexample. SDR_CHECK_BUDGET caps
# the schedule count so a scheduler regression cannot hang CI; the clean
# harnesses explore a few hundred schedules each in well under a second.
echo "==> specdr check gate (all protocols, budget ${SDR_CHECK_BUDGET:-50000})"
check_out=$(target/release/specdr check --protocol all \
              --budget "${SDR_CHECK_BUDGET:-50000}") || {
  echo "specdr check found protocol counterexamples:" >&2
  echo "$check_out" >&2
  exit 1
}
echo "$check_out" | sed 's/^/  /'
protocols=$(echo "$check_out" | grep -c '^check ' || true)
exhaustive=$(echo "$check_out" | grep -c '(exhaustive)' || true)
if [ "$protocols" -ne 5 ] || [ "$exhaustive" -ne 5 ]; then
  echo "specdr check gate: expected 5 exhaustive protocol proofs," >&2
  echo "  got $protocols protocols / $exhaustive exhaustive" >&2
  exit 1
fi
# Each protocol's schedule count is pinned to the value ROADMAP.md
# records: a harness that explores more or fewer schedules than before
# changed what it proves, even when it still finishes exhaustively.
for pin in "epoch 149" "group-commit 73" "shard 762" "serve 51" "memo 288"; do
  read -r proto want <<<"$pin"
  if ! echo "$check_out" | grep -q "^check $proto: $want schedules explored"; then
    echo "specdr check gate: protocol $proto no longer explores exactly $want schedules:" >&2
    echo "$check_out" >&2
    exit 1
  fi
done

# Mutation gate: each protocol ships a named model-only failpoint that
# re-introduces the exact bug the protocol prevents. `specdr check
# --mutate` must catch every one with a rendered C001 counterexample —
# a seeded bug that survives means the harness lost its teeth.
echo "==> specdr check mutation gate (every seeded bug must be caught)"
for m in publish-unlocked skip-rollback skip-wedge gate-toctou memo-any-day; do
  if out=$(target/release/specdr check --mutate "$m" 2>&1); then
    echo "mutation gate: seeded bug '$m' was NOT caught:" >&2
    echo "$out" >&2
    exit 1
  fi
  if ! echo "$out" | grep -q 'error\[C001\]'; then
    echo "mutation gate: '$m' failed without a rendered counterexample:" >&2
    echo "$out" >&2
    exit 1
  fi
  sched=$(echo "$out" | sed -n 's/.*= note: \(minimal schedule:.*\)/\1/p' | head -1)
  echo "  $m caught: ${sched:-counterexample rendered}"
done

# Perf smoke under --release: run the kernel operator set (select /
# aggregate / reduce / sync) at a fixed small scale and fail if any
# vectorized kernel's output digest (for reduce and sync, the `CellMemo`
# pass's) differs from its naive reference.
run cargo run -q --release -p sdr-bench --bin perf_smoke

# Obs-overhead gate: tracing ships always-compiled-in, so the kernel
# path with the registry merely *disabled* must cost no more than a
# build with the instrumentation compiled out (sdr-obs `off`) — the
# disabled path is one relaxed atomic load per operation, not per row.
# The threshold (2x + 5ms) is generous because two separate release
# builds land in different codegen; a per-row instrumentation mistake
# shows up as 10x+. Digests must match exactly across the two builds.
echo "==> obs-overhead gate (disabled registry vs sdr-obs/off build)"
on_line=$(cargo run -q --release -p sdr-bench --bin obs_overhead)
off_line=$(cargo run -q --release -p sdr-bench --features obs-off --bin obs_overhead)
on_ns=$(echo "$on_line" | sed -n 's/.*kernel_ns=\([0-9]*\).*/\1/p')
off_ns=$(echo "$off_line" | sed -n 's/.*kernel_ns=\([0-9]*\).*/\1/p')
on_digest=$(echo "$on_line" | sed -n 's/.*digest=\(0x[0-9a-f]*\).*/\1/p')
off_digest=$(echo "$off_line" | sed -n 's/.*digest=\(0x[0-9a-f]*\).*/\1/p')
echo "  compiled-in (registry off): ${on_ns}ns   compiled-out: ${off_ns}ns"
if [ -z "$on_ns" ] || [ -z "$off_ns" ]; then
  echo "obs-overhead gate: missing probe output" >&2
  exit 1
fi
if [ "$on_digest" != "$off_digest" ]; then
  echo "obs-overhead gate: digest drift between builds ($on_digest vs $off_digest)" >&2
  exit 1
fi
if ! awk -v on="$on_ns" -v off="$off_ns" 'BEGIN { exit !(on <= 2 * off + 5000000) }'; then
  echo "obs-overhead gate: disabled-registry path is not branch-only" >&2
  echo "  compiled-in ${on_ns}ns > 2 * compiled-out ${off_ns}ns + 5ms" >&2
  exit 1
fi

# Planner differential gate: the planned evaluation must equal the
# naive full fan-out on every query family, and every skipped cube must
# contribute zero rows. A debug build makes the engine re-evaluate each
# skipped cube and chunk and panic on a row, so the whole matrix runs
# with both the external and the in-engine check (as does every debug
# `cargo test` run above).
run cargo test -q --test planner

# Compression floor on the Figure 7 dataset (the default 24-month
# click-stream under the paper's retention policy): the dictionary +
# bit-packed format-3 cube files must total at most 0.6x their raw
# (format-2 layout) footprint.
echo "==> compression floor gate (encoded <= 0.6x raw)"
bytes_json=$(cargo run -q --release --bin specdr -- stats --bytes \
               --months 24 --clicks 200 --format json)
raw_total=$(echo "$bytes_json" | grep -o '"raw":[0-9]*' | cut -d: -f2 \
              | awk '{s+=$1} END {print s+0}')
enc_total=$(echo "$bytes_json" | grep -o '"encoded":[0-9]*' | cut -d: -f2 \
              | awk '{s+=$1} END {print s+0}')
echo "  raw=${raw_total}B encoded=${enc_total}B"
if [ "$raw_total" -eq 0 ] || [ "$enc_total" -eq 0 ]; then
  echo "compression gate: missing byte totals in: $bytes_json" >&2
  exit 1
fi
if ! awk -v raw="$raw_total" -v enc="$enc_total" 'BEGIN { exit !(enc <= 0.6 * raw) }'; then
  echo "compression gate: encoded ${enc_total}B > 0.6 * raw ${raw_total}B" >&2
  exit 1
fi

# Column codec under --release: the differential against the reference
# encoder runs full 65 536-row segments.
run cargo test -q --release -p sdr-storage

# Predicate compiler under --release: its one leaf-mask plan serves every
# selection and reduction, and its code-offset memos ship without
# overflow checks.
run cargo test -q --release -p sdr-spec

# Query kernel under --release: the dense tables' code-offset arithmetic
# and the i128 measure fold run with overflow checks off, as shipped.
run cargo test -q --release -p sdr-query

# Subcube suites under --release: the reduction step shares those tables
# and folds, and the chunk summaries mark codes by offset, all with
# overflow checks off as shipped.
run cargo test -q --release -p sdr-subcube

# Durability suite under --release: the crash matrix and the proptest
# layer exercise many fs-failure schedules and want optimized code.
run cargo test -q --release --test durability

# Continuous-aging suite under --release: schedule goldens vs a
# brute-force day scan, the scheduler pinned to the step-day scan it
# replaced, and the long-horizon differential harness (age through every
# transition day == Definition 2 over the raw facts at each one).
run cargo test -q --release --test aging

# Concurrency stress under --release: 25+ seeded multi-reader schedules
# against a churning writer; any torn read (observation differing from
# the retained version of its epoch) fails the suite.
run cargo test -q --release --test concurrency

# Sharded differential suite under --release: N-shard warehouses must be
# digest-identical to the unsharded manager over random churn, including
# recovery from torn single-shard WALs, seeded crash matrices, and an
# interrupted cross-shard checkpoint.
run cargo test -q --release --test sharding

# Wire-protocol suite under --release: digest parity over the socket,
# admission control, the corruption/fuzz matrix, and the multi-client
# socket load generator's torn-read audit.
run cargo test -q --release --test serve

# Feature hygiene: the production daemon must build without the model-
# checking scheduler (`check` feature off) — src/lib.rs carries a
# compile-time assertion that sdr-sync's model backend did not leak into
# the graph. This build overwrites target/release/specdr, so the serve
# smoke and loadgen below exercise the model-free binary end to end, and
# `specdr check` on that binary must refuse to run rather than silently
# checking nothing.
run cargo build --release --no-default-features -p specdr
if target/release/specdr check --protocol serve >/dev/null 2>&1; then
  echo "feature hygiene: model-free binary still accepts 'specdr check'" >&2
  exit 1
fi

# Serve smoke test: boot the daemon on an ephemeral port, compare a wire
# client's digest against the in-process baseline digest printed in the
# serve banner, then verify clean SIGTERM shutdown (exit 0) that removes
# the daemon's own warehouse directory.
echo "==> specdr serve smoke test (wire digest + clean shutdown)"
serve_log=$(mktemp)
target/release/specdr serve --months 6 --clicks 20 --shards 2 >"$serve_log" 2>&1 &
serve_pid=$!
# Without --dir the daemon keeps its warehouse in a directory of its
# own, which it must remove on exit.
serve_dir="${TMPDIR:-/tmp}/specdr-serve-$serve_pid"
for i in $(seq 1 50); do
  grep -q '^serve: baseline' "$serve_log" 2>/dev/null && break
  sleep 0.2
done
serve_addr=$(sed -n 's/^serve: listening on //p' "$serve_log")
serve_now=$(sed -n 's/^serve: baseline now=\([0-9/]*\) .*/\1/p' "$serve_log")
serve_digest=$(sed -n 's/^serve: baseline .*digest=\(0x[0-9a-f]*\)$/\1/p' "$serve_log")
if [ -z "$serve_addr" ] || [ -z "$serve_digest" ]; then
  echo "serve smoke: daemon did not come up:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
if [ ! -d "$serve_dir" ]; then
  echo "serve smoke: no warehouse directory at $serve_dir" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
client_digest=$(target/release/specdr client --addr "$serve_addr" --now "$serve_now" \
                  | sed -n 's/^digest=\(0x[0-9a-f]*\)$/\1/p')
if [ "$client_digest" != "$serve_digest" ]; then
  echo "serve smoke: wire digest $client_digest != in-process $serve_digest" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ] || ! grep -q '^serve: shutdown$' "$serve_log"; then
  echo "serve smoke: SIGTERM shutdown was not clean (rc=$serve_rc):" >&2
  cat "$serve_log" >&2
  exit 1
fi
if [ -e "$serve_dir" ]; then
  echo "serve smoke: $serve_dir left behind after shutdown" >&2
  exit 1
fi
echo "  addr=$serve_addr digest=$client_digest shutdown clean"
rm -f "$serve_log"

# Sharded restart smoke: a 4-shard warehouse that `serve --dir` wrote
# and left on SIGTERM recovers — its shards concurrently — to the fact
# count the serve banner printed, and a second recovery of the same
# directory lands on the same state.
echo "==> sharded restart smoke (serve --shards 4, recover twice)"
restart_dir=$(mktemp -d)
restart_log=$(mktemp)
target/release/specdr serve --dir "$restart_dir" --shards 4 --months 6 --clicks 20 \
  >"$restart_log" 2>&1 &
restart_pid=$!
for i in $(seq 1 50); do
  grep -q '^serve: baseline' "$restart_log" 2>/dev/null && break
  sleep 0.2
done
restart_facts=$(sed -n 's/^serve: shards=4 facts=\([0-9]*\) .*/\1/p' "$restart_log")
kill -TERM "$restart_pid"
restart_rc=0
wait "$restart_pid" || restart_rc=$?
if [ -z "$restart_facts" ] || [ "$restart_rc" -ne 0 ]; then
  echo "restart smoke: serve did not come up or shut down cleanly (rc=$restart_rc):" >&2
  cat "$restart_log" >&2
  exit 1
fi
for pass in 1 2; do
  restart_out=$(target/release/specdr recover --dir "$restart_dir")
  if ! echo "$restart_out" | grep -q '^  shards          = 4$' ||
     ! echo "$restart_out" | grep -q "^  warehouse       = $restart_facts facts$"; then
    echo "restart smoke: recovery $pass did not land on shards = 4, facts=$restart_facts:" >&2
    echo "$restart_out" >&2
    exit 1
  fi
done
echo "  shards=4 facts=$restart_facts recovered twice"
rm -rf "$restart_dir"
rm -f "$restart_log"

# Multi-client socket load generator: concurrent TCP clients against the
# daemon while a writer churns the sharded warehouse; any torn read or
# protocol error through the wire exits non-zero.
run target/release/specdr loadgen --clients 3 --steps 12 --queries 10 --shards 2

# Seeded determinism loops honor SDR_CI_SEEDS (default 25) so a quick
# local run can use e.g. SDR_CI_SEEDS=3 without editing this script.
SEEDS="${SDR_CI_SEEDS:-25}"

# Crash-schedule determinism: each seed picks a fault point and mode;
# running the schedule twice must produce bit-identical state digests.
# The test itself re-runs its schedule internally and asserts equality,
# so a digest mismatch fails the test; we additionally compare the
# printed digest across two separate process runs per seed.
echo "==> $SEEDS seeded crash schedules (determinism gate)"
for seed in $(seq 1 "$SEEDS"); do
  d1=$(SPECDR_CRASH_SEED=$seed cargo test -q --release --test durability \
        seeded_crash_schedule_is_deterministic -- --nocapture \
        | grep '^crash-schedule ' || true)
  d2=$(SPECDR_CRASH_SEED=$seed cargo test -q --release --test durability \
        seeded_crash_schedule_is_deterministic -- --nocapture \
        | grep '^crash-schedule ' || true)
  if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
    echo "crash schedule seed=$seed is non-deterministic:" >&2
    echo "  run 1: ${d1:-<no digest line>}" >&2
    echo "  run 2: ${d2:-<no digest line>}" >&2
    exit 1
  fi
  echo "  seed=$seed ok: $d1"
done

# Crash-during-tick determinism: the aging twin of the loop above — each
# seed crashes a continuous-aging workload (single-tick steps and a
# multi-tick jump) at a derived fault point; recovery must land on a
# whole-tick watermark and the recovered digest must be bit-identical
# across separate process runs.
echo "==> $SEEDS seeded crash-during-tick schedules (aging determinism gate)"
for seed in $(seq 1 "$SEEDS"); do
  a1=$(SPECDR_CRASH_SEED=$seed cargo test -q --release --test durability \
        seeded_aging_crash_schedule_is_deterministic -- --nocapture \
        | grep '^aging-crash-schedule ' || true)
  a2=$(SPECDR_CRASH_SEED=$seed cargo test -q --release --test durability \
        seeded_aging_crash_schedule_is_deterministic -- --nocapture \
        | grep '^aging-crash-schedule ' || true)
  if [ -z "$a1" ] || [ "$a1" != "$a2" ]; then
    echo "aging crash schedule seed=$seed is non-deterministic:" >&2
    echo "  run 1: ${a1:-<no digest line>}" >&2
    echo "  run 2: ${a2:-<no digest line>}" >&2
    exit 1
  fi
  echo "  seed=$seed ok: $a1"
done

# Concurrency-schedule determinism: the writer side of a seeded stress
# schedule is a pure function of the seed, so the published
# (epoch, digest) fold must be bit-identical across separate process
# runs with the same SPECDR_CRASH_SEED — reader interleaving is the only
# thing allowed to vary.
echo "==> concurrency schedule determinism gate"
seed="${SPECDR_CRASH_SEED:-42}"
c1=$(SPECDR_CRASH_SEED=$seed cargo test -q --release --test concurrency \
      seeded_concurrency_schedule_is_deterministic -- --nocapture \
      | grep '^concurrency ' || true)
c2=$(SPECDR_CRASH_SEED=$seed cargo test -q --release --test concurrency \
      seeded_concurrency_schedule_is_deterministic -- --nocapture \
      | grep '^concurrency ' || true)
if [ -z "$c1" ] || [ "$c1" != "$c2" ]; then
  echo "concurrency schedule seed=$seed is non-deterministic:" >&2
  echo "  run 1: ${c1:-<no digest line>}" >&2
  echo "  run 2: ${c2:-<no digest line>}" >&2
  exit 1
fi
echo "  $c1"

echo "==> CI green"
