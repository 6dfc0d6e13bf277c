//! Crash-recovery test matrix for the durable warehouse, at one shard —
//! the single-directory layout, `ShardRouter` over N = 1 (N ≥ 2 is
//! `tests/sharding.rs`).
//!
//! The contract under test (see `crates/subcube/src/durable.rs`): an
//! operation that returned `Ok` survives any later crash; an operation
//! that errored or never returned leaves the recovered warehouse as if
//! it had not been issued. The matrix drives every fault mode of
//! [`FailpointFs`] at *every* mutating filesystem operation of a fixed
//! workload; the property test does the same over random workloads and
//! crash points. Both re-apply the unacknowledged suffix after recovery
//! and require the result to be indistinguishable — facts, per-cube
//! granularities, `last_sync`, and what a probe sync then moves — from
//! a run that never crashed.

#[path = "../crates/subcube/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat as tc, DimValue, Mo, Schema, TimeValue};
use specdr::reduce::{DataReductionSpec, ReductionSchedule};
use specdr::spec::{parse_action, ActionId, ActionSpec};
use specdr::storage::fs::{FailpointFs, FaultMode, Fs, RealFs};
use specdr::subcube::{AgeStats, ShardRouter, SubcubeStats, WarehouseOp, WarehouseView};
use specdr::workload::{daily_script, paper_mo, DailyOp, ACTION_A1, ACTION_A2};

/// One logical warehouse operation of a test workload.
#[derive(Clone)]
enum Op {
    Load(Mo),
    Sync(i32),
    /// Incremental aging to a day (ISSUE 7): one WAL record per call,
    /// however many transition ticks the call applies.
    Age(i32),
    SpecInsert(Vec<ActionSpec>),
    SpecDelete(Vec<ActionId>, i32),
    /// Checkpoint: durable but not write-ahead logged (not counted by
    /// `ops_durable`).
    Ckpt,
}

impl Op {
    /// The logged mutation; `None` for a checkpoint.
    fn mutation(&self) -> Option<WarehouseOp> {
        Some(match self {
            Op::Load(mo) => WarehouseOp::BulkLoad(mo.clone()),
            Op::Sync(t) => WarehouseOp::Sync(*t),
            Op::Age(t) => WarehouseOp::Age(*t),
            Op::SpecInsert(a) => WarehouseOp::SpecInsert(a.clone()),
            Op::SpecDelete(ids, t) => WarehouseOp::SpecDelete(ids.clone(), *t),
            Op::Ckpt => return None,
        })
    }

    fn is_logged(&self) -> bool {
        !matches!(self, Op::Ckpt)
    }

    fn apply_durable(&self, w: &ShardRouter) -> Result<(), specdr::subcube::SubcubeError> {
        match self.mutation() {
            Some(op) => w.apply(&op).map(|_| ()),
            None => w.checkpoint().map(|_| ()),
        }
    }

    /// Applies the logged mutation alone: a checkpoint changes nothing
    /// a reader sees.
    fn apply_plain(&self, w: &ShardRouter) {
        if let Some(op) = self.mutation() {
            w.apply(&op).unwrap();
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "sdr-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// An MO holding one bottom-granularity click.
fn single_fact(schema: &Arc<Schema>, day: i32, url_idx: usize, measures: [i64; 4]) -> Mo {
    const URLS: [&str; 4] = [
        "http://www.cnn.com/",
        "http://www.cnn.com/health",
        "http://www.cc.gatech.edu/",
        "http://www.amazon.com/exec/...",
    ];
    let specdr::mdm::Dimension::Enum(e) = schema.dim(specdr::mdm::DimId(1)) else {
        unreachable!()
    };
    let urlcat = schema
        .dim(specdr::mdm::DimId(1))
        .graph()
        .by_name("url")
        .unwrap();
    let u = e.value(urlcat, URLS[url_idx % URLS.len()]).unwrap();
    let d = DimValue::new(tc::DAY, TimeValue::Day(day).code());
    let mut mo = Mo::new(Arc::clone(schema));
    mo.insert_fact(&[d, u], &measures).unwrap();
    mo
}

/// A one-shard warehouse under `spec`, in memory.
fn in_memory(spec: &DataReductionSpec) -> ShardRouter {
    ShardRouter::in_memory(spec.clone()).unwrap()
}

/// The never-crashed run: the same logical ops on a warehouse in memory.
fn reference(spec: &DataReductionSpec, ops: &[Op]) -> ShardRouter {
    let w = in_memory(spec);
    for op in ops {
        op.apply_plain(&w);
    }
    w
}

/// The one shard's published view.
fn view(w: &ShardRouter) -> WarehouseView {
    w.view_set().views()[0].clone()
}

/// Warehouse state rendered for equality: sorted whole-MO facts, per-cube
/// granularity + sorted facts, and `last_sync`.
fn state(v: &WarehouseView) -> (Vec<String>, Vec<String>, Option<i32>) {
    let whole = v.to_mo().unwrap();
    let mut facts: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
    facts.sort();
    let mut cubes = Vec::new();
    for (i, c) in v.cubes().iter().enumerate() {
        let data = c.data();
        let mut rows: Vec<String> = data.facts().map(|f| data.render_fact(f)).collect();
        rows.sort();
        cubes.push(format!("K{i} {:?}: {}", c.grain, rows.join(" | ")));
    }
    (facts, cubes, v.last_sync())
}

/// Runs `create` + the workload through `fs`, stopping at the first
/// error. Returns how many *logged* ops were acknowledged (`Ok`).
fn run_workload(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    fs: Arc<dyn Fs>,
    ops: &[Op],
) -> u64 {
    let Ok(w) = ShardRouter::create_with_fs(spec.clone(), dir, 1, fs) else {
        return 0;
    };
    let mut acked = 0;
    for op in ops {
        if op.apply_durable(&w).is_err() {
            break;
        }
        if op.is_logged() {
            acked += 1;
        }
    }
    acked
}

/// Recovers `dir`, re-applies the unacknowledged logical suffix, and
/// checks the result against the never-crashed reference. Returns the
/// recovered state tuple for determinism digests.
fn recover_and_verify(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    ops: &[Op],
    acked: u64,
    ctx: &str,
) -> (Vec<String>, Vec<String>, Option<i32>) {
    let (w, durable) = if dir.join("CURRENT").exists() {
        let (w, report) = ShardRouter::recover_with_fs(spec.clone(), dir, RealFs::shared())
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        (w, report.ops_durable)
    } else {
        // The create never reached its commit point, the root's CURRENT:
        // nothing was acknowledged, and `open` creates over whatever it
        // had staged.
        assert_eq!(
            acked, 0,
            "{ctx}: CURRENT missing but {acked} ops were acknowledged"
        );
        let w = ShardRouter::open(spec.clone(), dir, 1)
            .unwrap_or_else(|e| panic!("{ctx}: open after a crashed create failed: {e}"));
        assert!(w.is_empty(), "{ctx}: a crashed create opened non-empty");
        (w, 0)
    };
    // Durability accounting: everything acknowledged is durable; at most
    // one in-flight operation (applied + logged, error returned after the
    // log append survived — FaultMode::CrashAfter) may exceed it.
    assert!(
        durable >= acked && durable <= acked + 1,
        "{ctx}: acked={acked} but ops_durable={durable}"
    );
    // Re-drive the workload from the first non-durable logical op.
    let mut skipped = 0;
    for op in ops {
        if op.is_logged() && skipped < durable {
            skipped += 1;
            continue;
        }
        if !op.is_logged() {
            continue;
        }
        op.apply_durable(&w)
            .unwrap_or_else(|e| panic!("{ctx}: re-applying suffix failed: {e}"));
    }
    let got = state(&view(&w));
    let want = state(&view(&reference(spec, ops)));
    assert_eq!(
        got, want,
        "{ctx}: recovered+resumed state diverges from never-crashed run"
    );
    // ISSUE 6: the per-subcube statistics that came through checkpoint +
    // WAL replay (+ the resumed suffix) must be bit-identical to a
    // from-scratch recomputation over the recovered facts — under every
    // fault schedule of the matrix.
    for (i, c) in view(&w).cubes().iter().enumerate() {
        assert_eq!(
            *c.stats(),
            SubcubeStats::compute(&c.data(), c.epoch()),
            "{ctx}: cube K{i} statistics diverge from recomputation"
        );
    }
    got
}

/// A third action, disjoint from the paper's `.com`-only a1/a2: age
/// `.edu` facts past a year to `(Time.year, URL.domain_grp)`.
const ACTION_A3: &str = "p(a[Time.year, URL.domain_grp] o[URL.domain_grp = .edu AND \
                         Time.year <= NOW - 1 years](O))";

/// The paper-data workload exercising every WAL op kind: load, sync,
/// spec insert, checkpoint, incremental load, spec delete, final sync.
fn paper_workload() -> (DataReductionSpec, Vec<Op>) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let a3 = parse_action(&schema, ACTION_A3).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let extra = single_fact(&schema, days_from_civil(2000, 5, 7), 0, [1, 100, 2, 9000]);
    let ops = vec![
        Op::Load(mo),
        Op::Sync(days_from_civil(2000, 6, 5)),
        Op::SpecInsert(vec![a3]),
        Op::Ckpt,
        Op::Load(extra),
        Op::Sync(days_from_civil(2000, 11, 5)),
        // The sync homes every a3-covered fact at year level, so the
        // delete's responsibility check (Definition 4) passes.
        Op::Sync(days_from_civil(2001, 2, 5)),
        Op::SpecDelete(vec![ActionId(2)], days_from_civil(2001, 2, 5)),
        Op::Sync(days_from_civil(2001, 6, 5)),
    ];
    (spec, ops)
}

/// The workload must be clean when nothing is injected (otherwise the
/// matrix would conflate spec rejections with injected faults).
#[test]
fn paper_workload_is_clean() {
    let (spec, ops) = paper_workload();
    let m = reference(&spec, &ops);
    assert!(!m.is_empty());
    // And the durable run acknowledges every logged op.
    let dir = tmpdir("clean");
    let logged = ops.iter().filter(|o| o.is_logged()).count() as u64;
    let acked = run_workload(&spec, &dir, RealFs::shared(), &ops);
    assert_eq!(acked, logged);
    let (w, _) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(state(&view(&w)), state(&view(&reference(&spec, &ops))));
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 6: persisted `SubcubeStats` round-trip the checkpoint manifest
/// bit-identically; `recover` re-verifies every persisted block against
/// recomputation and reports how many it checked.
#[test]
fn recovered_stats_match_recomputation_and_are_persisted() {
    let (spec, ops) = paper_workload();
    let dir = tmpdir("stats-roundtrip");
    let logged = ops.iter().filter(|o| o.is_logged()).count() as u64;
    let acked = run_workload(&spec, &dir, RealFs::shared(), &ops);
    assert_eq!(acked, logged);
    let manifest = specdr::subcube::read_manifest(&dir).unwrap();
    assert!(
        !manifest.cube_stats.is_empty(),
        "format-2 manifest persists per-cube statistics"
    );
    let (w, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(
        report.stats_verified,
        manifest.cube_stats.len(),
        "recover verifies every persisted stats block"
    );
    for (i, c) in view(&w).cubes().iter().enumerate() {
        assert_eq!(
            *c.stats(),
            SubcubeStats::compute(&c.data(), c.epoch()),
            "cube K{i} statistics diverge after WAL replay"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every fault mode × every mutating filesystem operation of the
/// workload: recovery + resume must always converge to the reference.
#[test]
fn crash_matrix_over_every_fs_op() {
    let (spec, ops) = paper_workload();
    // Count the mutating fs ops of a clean run.
    let dir = tmpdir("count");
    let counting = FailpointFs::counting(RealFs::shared());
    run_workload(&spec, &dir, counting.clone(), &ops);
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    // One shard is op for op the single-directory warehouse written
    // before it was one: the same 25 mutating fs operations.
    assert_eq!(total, 25, "the paper workload's mutating fs ops changed");

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("mode={mode:?} fail_op={k}");
            let dir = tmpdir("matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xC0FFEE ^ k, k, mode);
            let acked = run_workload(&spec, &dir, shim.clone(), &ops);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            recover_and_verify(&spec, &dir, &ops, acked, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The continuous-aging workload (ISSUE 7): baseline sync, three
/// single-tick `age` calls at the spec's first scheduled transition
/// days, a checkpoint, a mid-stream load (the next age rebaselines the
/// dirtied warehouse), and one multi-tick jump to the end of the window.
fn aging_workload() -> (DataReductionSpec, Vec<Op>) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let baseline = days_from_civil(2000, 2, 5);
    let sched = ReductionSchedule::build(&spec).unwrap();
    let ticks = sched.transitions_between(baseline, days_from_civil(2001, 6, 5));
    assert!(ticks.len() >= 5, "degenerate aging schedule: {ticks:?}");
    let extra = single_fact(&schema, days_from_civil(2000, 5, 7), 0, [1, 100, 2, 9000]);
    let mut ops = vec![Op::Load(mo), Op::Sync(baseline)];
    for &t in &ticks[..3] {
        ops.push(Op::Age(t));
    }
    ops.push(Op::Ckpt);
    ops.push(Op::Load(extra));
    ops.push(Op::Age(ticks[3]));
    ops.push(Op::Age(*ticks.last().unwrap()));
    (spec, ops)
}

/// The legal recovery watermarks of a workload: `None` (nothing replayed)
/// or the target day of some `Sync`/`Age` op — i.e. a whole-tick
/// boundary. A crash mid-`age` must never surface a day between ticks.
fn watermarks(ops: &[Op]) -> std::collections::BTreeSet<i32> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Sync(t) | Op::Age(t) => Some(*t),
            _ => None,
        })
        .collect()
}

/// The aging workload must be clean when nothing is injected, and the
/// durable run must recover bit-for-bit.
#[test]
fn aging_workload_is_clean() {
    let (spec, ops) = aging_workload();
    let m = reference(&spec, &ops);
    assert!(!m.is_empty());
    let dir = tmpdir("age-clean");
    let logged = ops.iter().filter(|o| o.is_logged()).count() as u64;
    let acked = run_workload(&spec, &dir, RealFs::shared(), &ops);
    assert_eq!(acked, logged);
    let (w, _) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(state(&view(&w)), state(&view(&reference(&spec, &ops))));
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 7, crash matrix: every fault mode at every mutating fs op of
/// the aging workload — including faults landing mid-`age`, inside a
/// multi-tick jump. Recovery must land on a whole-tick prefix (the
/// recovered watermark is a scheduled tick day, never between ticks),
/// and recovery + resume must converge to the never-crashed reference.
#[test]
fn aging_crash_matrix_over_every_fs_op() {
    let (spec, ops) = aging_workload();
    let legal = watermarks(&ops);
    // Count the mutating fs ops of a clean run.
    let dir = tmpdir("age-count");
    let counting = FailpointFs::counting(RealFs::shared());
    run_workload(&spec, &dir, counting.clone(), &ops);
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(total, 24, "the aging workload's mutating fs ops changed");

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("aging mode={mode:?} fail_op={k}");
            let dir = tmpdir("age-matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xA9E5EED ^ k, k, mode);
            let acked = run_workload(&spec, &dir, shim.clone(), &ops);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            if dir.join("CURRENT").exists() {
                let (w, _) = ShardRouter::recover(spec.clone(), &dir)
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                let last = w.last_sync();
                assert!(
                    last.is_none_or(|d| legal.contains(&d)),
                    "{ctx}: recovered mid-tick watermark {last:?} not in {legal:?}"
                );
            }
            recover_and_verify(&spec, &dir, &ops, acked, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The daily write path through drop → `recover`: 430 days of
/// alternating `bulk_load` and `age`, dropped and recovered three times
/// mid-script — once with loaded-but-un-aged rows only in the WAL tail,
/// so replay must rebuild the un-homed set, and once from a checkpoint
/// plus tail — end on exactly the state of a manager that never
/// stopped, which is one load + one `sync` of the same facts.
#[test]
fn interleaved_load_and_age_survives_drop_and_recover() {
    let script = daily_script(4, 430);
    let actions = script
        .actions
        .iter()
        .map(|src| parse_action(&script.schema, src).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&script.schema), actions).unwrap();
    let ops: Vec<Op> = script
        .ops
        .iter()
        .map(|op| match op {
            DailyOp::Load(mo) => Op::Load(mo.clone()),
            DailyOp::Age(t) => Op::Age(*t),
        })
        .collect();
    // Drop points: right after a load (un-homed rows pending), right
    // after an age that is then checkpointed, and right after an age
    // with only the WAL to recover from.
    let after = |from: usize, load: bool| {
        from + ops[from..]
            .iter()
            .position(|op| matches!(op, Op::Load(_)) == load)
            .unwrap()
    };
    let n = ops.len();
    let (dirty_drop, ckpt_at) = (after(n / 4, true), after(n / 2, false));
    let (ckpt_drop, wal_drop) = (after(ckpt_at + 40, false), after(3 * n / 4, false));
    let dir = tmpdir("daily");
    let mut w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    let plain = in_memory(&spec);
    let mut all = Mo::new(Arc::clone(&script.schema));
    for (i, op) in ops.iter().enumerate() {
        op.apply_durable(&w).unwrap();
        op.apply_plain(&plain);
        if let Op::Load(mo) = op {
            all.absorb(mo).unwrap();
        }
        if i == ckpt_at {
            w.checkpoint().unwrap();
        }
        if [dirty_drop, ckpt_drop, wal_drop].contains(&i) {
            let pending = view(&w).is_dirty();
            assert_eq!(pending, i == dirty_drop, "drop point {i} of {n}");
            drop(w);
            let (rec, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
            assert!(report.replayed > 0, "drop point {i}: nothing replayed");
            assert_eq!(
                view(&rec).is_dirty(),
                pending,
                "drop point {i}: un-homed rows must survive recovery"
            );
            assert_eq!(state(&view(&rec)), state(&view(&plain)), "drop point {i}");
            w = rec;
        }
    }
    let Some(Op::Age(end)) = ops.last() else {
        panic!("the script ends with an age");
    };
    let want = specdr::reduce::reduce_naive(&all, &spec, *end).unwrap();
    common::assert_holds(&[view(&w)], &want, "after the last age");
    view(&w).verify_stats().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Double-crash: a second fault during the *recovered* warehouse's next
/// checkpoint still leaves a recoverable directory.
#[test]
fn crash_during_post_recovery_checkpoint() {
    let (spec, ops) = paper_workload();
    let dir = tmpdir("double");
    // First crash: torn WAL append midway through the workload.
    let shim = FailpointFs::new(RealFs::shared(), 7, 12, FaultMode::ShortWrite);
    let acked = run_workload(&spec, &dir, shim, &ops);
    // Recover, then crash again during checkpoint().
    let (w, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert!(report.ops_durable >= acked);
    for k in 0..6 {
        let (w2, _) = ShardRouter::recover_with_fs(
            spec.clone(),
            &dir,
            FailpointFs::new(RealFs::shared(), 11, k, FaultMode::FailWrite),
        )
        .unwrap_or_else(|_| {
            // Recovery itself read-only fails only if the shim fired on
            // the repair write of a torn tail; the directory is intact.
            ShardRouter::recover(spec.clone(), &dir).unwrap()
        });
        let _ = w2.checkpoint(); // may fail; must never corrupt
        let (w3, _) = ShardRouter::recover(spec.clone(), &dir).unwrap();
        assert_eq!(state(&view(&w3)), state(&view(&w)));
    }
    let _ = w.checkpoint();
    std::fs::remove_dir_all(&dir).ok();
}

/// The group-commit workload: the paper workload's logical ops packed
/// into four batches, each journaled as ONE WAL record (one fsync).
fn batched_workload() -> (DataReductionSpec, Vec<Vec<WarehouseOp>>) {
    use WarehouseOp as W;
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let a3 = parse_action(&schema, ACTION_A3).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let extra = single_fact(&schema, days_from_civil(2000, 5, 7), 0, [1, 100, 2, 9000]);
    let batches = vec![
        vec![W::BulkLoad(mo), W::Sync(days_from_civil(2000, 6, 5))],
        vec![
            W::SpecInsert(vec![a3]),
            W::BulkLoad(extra),
            W::Sync(days_from_civil(2000, 11, 5)),
        ],
        vec![
            W::Sync(days_from_civil(2001, 2, 5)),
            W::SpecDelete(vec![ActionId(2)], days_from_civil(2001, 2, 5)),
        ],
        vec![W::Sync(days_from_civil(2001, 6, 5))],
    ];
    (spec, batches)
}

/// Applies a prefix of batches, op by op, to a warehouse in memory —
/// the reference state a crashed-and-recovered warehouse must land on
/// exactly.
fn batch_reference(
    spec: &DataReductionSpec,
    batches: &[Vec<WarehouseOp>],
    n_batches: usize,
) -> ShardRouter {
    let w = in_memory(spec);
    for op in batches[..n_batches].iter().flatten() {
        w.apply(op).unwrap();
    }
    w
}

/// Runs `create` + the batches through `fs`, stopping at the first
/// error. Returns how many batches were acknowledged (`Ok`).
fn run_batches(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    fs: Arc<dyn Fs>,
    batches: &[Vec<WarehouseOp>],
) -> usize {
    let Ok(w) = ShardRouter::create_with_fs(spec.clone(), dir, 1, fs) else {
        return 0;
    };
    let mut acked = 0;
    for b in batches {
        if w.apply_batch(b.clone()).is_err() {
            break;
        }
        acked += 1;
    }
    acked
}

/// The group-commit sanity run: with no faults injected, every batch is
/// acknowledged, counted per-op, and recovered bit-for-bit.
#[test]
fn batched_workload_is_clean() {
    let (spec, batches) = batched_workload();
    let total_ops: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let dir = tmpdir("batch-clean");
    let acked = run_batches(&spec, &dir, RealFs::shared(), &batches);
    assert_eq!(acked, batches.len());
    let (w, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(report.ops_durable, total_ops);
    assert_eq!(
        report.replayed as u64, total_ops,
        "replay counts per-op in batches"
    );
    assert_eq!(
        state(&view(&w)),
        state(&view(&batch_reference(&spec, &batches, batches.len())))
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 4, satellite 4: a `FailpointFs` crash in the middle of a
/// group-committed WAL batch must recover to a *prefix of acknowledged
/// batches* — no acknowledged op lost, no partial batch applied. Every
/// fault mode at every mutating fs op of the batched workload; the
/// decisive assertion is that the recovered op count always sits on a
/// batch boundary and the recovered state equals the in-memory
/// reference for exactly that many whole batches.
#[test]
fn group_commit_crash_recovers_whole_batch_prefix() {
    let (spec, batches) = batched_workload();
    let prefix_ops: Vec<u64> = batches
        .iter()
        .scan(0u64, |acc, b| {
            *acc += b.len() as u64;
            Some(*acc)
        })
        .collect(); // ops after 1, 2, … whole batches
    let boundary = |ops: u64| -> Option<usize> {
        if ops == 0 {
            return Some(0);
        }
        prefix_ops.iter().position(|&p| p == ops).map(|i| i + 1)
    };

    // Count the mutating fs ops of a clean run.
    let dir = tmpdir("batch-count");
    let counting = FailpointFs::counting(RealFs::shared());
    run_batches(&spec, &dir, counting.clone(), &batches);
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(total, 12, "the batched workload's mutating fs ops changed");

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("mode={mode:?} fail_op={k}");
            let dir = tmpdir("batch-matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xBA7C4 ^ k, k, mode);
            let acked = run_batches(&spec, &dir, shim.clone(), &batches);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            if !dir.join("CURRENT").exists() {
                assert_eq!(acked, 0, "{ctx}: acked batches but no warehouse");
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let (w, report) = ShardRouter::recover(spec.clone(), &dir)
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            // No acknowledged op lost…
            let acked_ops: u64 = batches[..acked].iter().map(|b| b.len() as u64).sum();
            assert!(
                report.ops_durable >= acked_ops,
                "{ctx}: acked {acked_ops} ops but only {} durable",
                report.ops_durable
            );
            // …and nothing partial: the durable count sits exactly on a
            // batch boundary (the group frame is all-or-nothing), at most
            // one in-flight batch past the acknowledged prefix.
            let n_batches = boundary(report.ops_durable).unwrap_or_else(|| {
                panic!(
                    "{ctx}: ops_durable={} is not a whole-batch prefix of {prefix_ops:?}",
                    report.ops_durable
                )
            });
            assert!(
                n_batches <= acked + 1,
                "{ctx}: {n_batches} durable batches but only {acked} acknowledged"
            );
            assert_eq!(
                state(&view(&w)),
                state(&view(&batch_reference(&spec, &batches, n_batches))),
                "{ctx}: recovered state is not the {n_batches}-batch reference"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary workloads, arbitrary crash points, every fault mode:
    /// `recover()` + resume is indistinguishable from never crashing —
    /// facts, per-cube granularities, `last_sync`, and what a probe
    /// sync moves all agree.
    #[test]
    fn recovery_equals_never_crashed(
        kinds in proptest::collection::vec((0u8..8, 0u32..90, 0usize..4), 2..9),
        fail_op in 0u64..48,
        mode_ix in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();

        // Build a workload: the clock only moves forward; loads insert
        // single clicks at the current day; every op kind is reachable.
        let mut clock = days_from_civil(2000, 1, 1);
        let mut ops = vec![Op::Load(mo)];
        for (kind, dd, ui) in kinds {
            clock += dd as i32;
            match kind {
                0..=2 => ops.push(Op::Load(single_fact(
                    &schema, clock, ui, [1, 10 + dd as i64, 1, 1000],
                ))),
                3..=4 => ops.push(Op::Sync(clock)),
                // The clock is monotone, so incremental aging is always
                // legal here (never behind the watermark).
                5..=6 => ops.push(Op::Age(clock)),
                _ => ops.push(Op::Ckpt),
            }
        }
        ops.push(Op::Sync(clock + 30));

        let dir = tmpdir("prop");
        let mode = FaultMode::ALL[mode_ix];
        let shim = FailpointFs::new(RealFs::shared(), seed, fail_op, mode);
        let acked = run_workload(&spec, &dir, shim, &ops);
        let (facts, cubes, last) = recover_and_verify(&spec, &dir, &ops, acked, "prop");

        // Probe sync: the recovered-and-resumed warehouse and the
        // reference react identically to the next tick.
        let probe = clock + 60;
        let reference_m = reference(&spec, &ops);
        // (What it moves, not how many chunks it rewrites: a recovered
        // cube is re-cut from its checkpoint file.)
        let moved = |s: AgeStats| (s.ticks, s.cells_delta, s.merged, s.rows_homed);
        let ref_stats = moved(reference_m.sync(probe).unwrap());
        if dir.join("CURRENT").exists() {
            let (w, _) = ShardRouter::recover(spec.clone(), &dir).unwrap();
            // Skip the durable prefix, re-apply the rest, then probe.
            let durable = w.ops_durable();
            let mut skipped = 0;
            for op in &ops {
                if op.is_logged() && skipped < durable {
                    skipped += 1;
                    continue;
                }
                if op.is_logged() {
                    op.apply_durable(&w).unwrap();
                }
            }
            let got_stats = moved(w.sync(probe).unwrap());
            prop_assert_eq!(got_stats, ref_stats);
            let (f2, c2, l2) = state(&view(&w));
            let (rf, rc, rl) = state(&view(&reference_m));
            prop_assert_eq!(f2, rf);
            prop_assert_eq!(c2, rc);
            prop_assert_eq!(l2, rl);
        }
        let _ = (facts, cubes, last);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a64 over the rendered state — the digest `scripts/ci.sh` compares
/// across repeated runs of the same seeded crash schedule.
fn digest(s: &(Vec<String>, Vec<String>, Option<i32>)) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for line in s.0.iter().chain(s.1.iter()) {
        eat(line.as_bytes());
        eat(b"\n");
    }
    eat(format!("{:?}", s.2).as_bytes());
    h
}

/// One seeded crash schedule, run twice end to end: the recovered state
/// must be byte-identical. `SPECDR_CRASH_SEED` selects the schedule
/// (`scripts/ci.sh` loops it over 25 seeds); the digest line it prints is
/// what CI compares for cross-run determinism.
#[test]
fn seeded_crash_schedule_is_deterministic() {
    let seed: u64 = std::env::var("SPECDR_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // SplitMix64: derive (fail_op, mode) from the seed.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let (spec, ops) = paper_workload();
    let fail_op = z % 40;
    let mode = FaultMode::ALL[(z >> 8) as usize % 3];

    let mut digests = Vec::new();
    for round in 0..2 {
        let dir = tmpdir(&format!("seeded-{round}"));
        let shim = FailpointFs::new(RealFs::shared(), seed, fail_op, mode);
        let acked = run_workload(&spec, &dir, shim, &ops);
        let s = recover_and_verify(
            &spec,
            &dir,
            &ops,
            acked,
            &format!("seed={seed} round={round}"),
        );
        digests.push(digest(&s));
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        digests[0], digests[1],
        "seed={seed}: crash schedule is not deterministic"
    );
    println!(
        "crash-schedule seed={seed} fail_op={fail_op} mode={mode:?} digest={:016x}",
        digests[0]
    );
}

/// ISSUE 7: the aging twin of [`seeded_crash_schedule_is_deterministic`]
/// — one seeded crash-during-tick schedule over the aging workload, run
/// twice; the recovered state must be byte-identical. `scripts/ci.sh`
/// loops `SPECDR_CRASH_SEED` over 25 seeds and compares the printed
/// digest line across runs.
#[test]
fn seeded_aging_crash_schedule_is_deterministic() {
    let seed: u64 = std::env::var("SPECDR_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // SplitMix64: derive (fail_op, mode) from the seed, decorrelated from
    // the plain schedule by a distinct stream constant.
    let mut z = seed
        .wrapping_mul(0xA61B_5C71_97E0_D111)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let (spec, ops) = aging_workload();
    let legal = watermarks(&ops);
    let fail_op = z % 48;
    let mode = FaultMode::ALL[(z >> 8) as usize % 3];

    let mut digests = Vec::new();
    for round in 0..2 {
        let dir = tmpdir(&format!("age-seeded-{round}"));
        let shim = FailpointFs::new(RealFs::shared(), seed, fail_op, mode);
        let acked = run_workload(&spec, &dir, shim, &ops);
        if dir.join("CURRENT").exists() {
            let (w, _) = ShardRouter::recover(spec.clone(), &dir).unwrap();
            let last = w.last_sync();
            assert!(
                last.is_none_or(|d| legal.contains(&d)),
                "seed={seed}: recovered mid-tick watermark {last:?}"
            );
        }
        let s = recover_and_verify(
            &spec,
            &dir,
            &ops,
            acked,
            &format!("aging seed={seed} round={round}"),
        );
        digests.push(digest(&s));
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        digests[0], digests[1],
        "seed={seed}: aging crash schedule is not deterministic"
    );
    println!(
        "aging-crash-schedule seed={seed} fail_op={fail_op} mode={mode:?} digest={:016x}",
        digests[0]
    );
}

/// A checked-in warehouse directory under `tests/fixtures`, copied into
/// a fresh directory per use.
fn fixture_dir(name: &str, tag: &str) -> PathBuf {
    fn copy(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).unwrap();
        for e in std::fs::read_dir(from).unwrap() {
            let e = e.unwrap();
            let dst = to.join(e.file_name());
            if e.file_type().unwrap().is_dir() {
                copy(&e.path(), &dst);
            } else {
                std::fs::copy(e.path(), dst).unwrap();
            }
        }
    }
    let dir = tmpdir(tag);
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    copy(&fixture.join(name), &dir);
    dir
}

/// The paper MO, bulk-loaded and synchronized to 2000/11/5 under
/// {a1, a2}, as the format-2 (PR 6) checkpointer wrote it: `SDRFACT1`
/// cube files (plain/RLE/delta columns only) under a format-2 manifest
/// with legacy-projected stats and no byte table. Generated once at
/// commit c168b26, the last with a format-2 writer.
fn legacy_format2_dir(tag: &str) -> PathBuf {
    fixture_dir("format2_dir", tag)
}

/// A log written by the last commit whose `sync` was a scan-and-rebuild
/// pass of its own (7d49c23) replays through the one reduction step to
/// the content that commit held: the empty epoch-0 checkpoint plus six
/// records — load facts 0–4, `Sync` 2000/6/5, load facts 5, 6 and 1
/// again, `Sync` 2000/4/5 (before the watermark: the load is homed at
/// 2000/6/5), `Sync` 2000/11/5, `Age` 2001/1/5. Rows and provenance per
/// cube are that commit's own print-out.
#[test]
fn a_log_with_sync_records_written_by_the_parent_recovers_to_its_content() {
    const WANT: [&str; 4] = [
        "K0 fact(2000/1/20, http://www.cc.gatech.edu/ | 1, 32, 1, 12000) @4294967295",
        "K2 fact(1999Q4, amazon.com | 2, 689, 3, 68000) @1",
        "K2 fact(1999Q4, cnn.com | 3, 4824, 12, 146000) @1",
        "K2 fact(2000Q1, cnn.com | 2, 955, 10, 99000) @1",
    ];
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let dir = fixture_dir("sync_wal_dir", "sync-wal");
    let records = specdr::storage::scan_wal(&RealFs, &dir.join("wal-000000.log")).unwrap();
    let tags: Vec<u8> = records.records.iter().map(|r| r[0]).collect();
    assert_eq!(tags, [1, 2, 1, 2, 2, 5], "load, sync and age records");
    let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
    assert_eq!(
        (report.shards, report.replayed, report.dropped_bytes),
        (1, 6, 0)
    );
    let view = view(&rec);
    assert_eq!(view.last_sync(), Some(days_from_civil(2001, 1, 5)));
    let mut got = Vec::new();
    for (i, c) in view.cubes().iter().enumerate() {
        let d = c.data();
        let origin = |f: specdr::mdm::FactId| d.store().origin[f.index()];
        got.extend(
            d.facts()
                .map(|f| format!("K{i} {} @{}", d.render_fact(f), origin(f))),
        );
    }
    got.sort();
    assert_eq!(got, WANT);
    // And that content is the reduction of the eight facts loaded.
    let loaded = mo.gather(&[0, 1, 2, 3, 4, 5, 6, 1]);
    let want = specdr::reduce::reduce_naive(&loaded, &rec.spec(), view.last_sync().unwrap());
    common::assert_holds(&[view], &want.unwrap(), "replayed log");
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 8, satellite 4: storage-format round-trip matrix. A directory
/// written by the format-2 checkpointer must recover under current
/// code, and re-checkpointing it as format 3 must be crash-atomic: a
/// [`FailpointFs`] fault at any mutating fs op of the rewrite leaves
/// the directory recoverable — at either the legacy or the migrated
/// checkpoint — with bit-identical warehouse state, and a clean retry
/// always lands on format 3 with statistics matching a recomputation.
#[test]
fn format2_migration_crash_matrix() {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let m = in_memory(&spec);
    m.bulk_load(&mo).unwrap();
    m.sync(days_from_civil(2000, 11, 5)).unwrap();
    let want = state(&view(&m));
    let format = |dir: &std::path::Path| specdr::subcube::read_manifest(dir).unwrap().format;
    let recover = |dir: &std::path::Path, fs: Arc<dyn Fs>| {
        ShardRouter::recover_with_fs(spec.clone(), dir, fs).map(|(w, _)| w)
    };

    // Clean round trip: legacy dir -> recovery -> format-3 checkpoint ->
    // identical state either side.
    let dir = legacy_format2_dir("fmt2-clean");
    assert_eq!(format(&dir), 2, "the fixture reads back as format 2");
    let loaded = recover(&dir, RealFs::shared()).unwrap();
    assert_eq!(
        state(&view(&loaded)),
        want,
        "legacy checkpoint loads bit-identically"
    );
    loaded.checkpoint().unwrap();
    assert_eq!(format(&dir), 3);
    let reloaded = recover(&dir, RealFs::shared()).unwrap();
    assert_eq!(
        state(&view(&reloaded)),
        want,
        "migrated checkpoint round-trips"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Count the mutating fs ops of one clean migration (recovery itself
    // issues none: the fixture's log has no torn tail).
    let dir = legacy_format2_dir("fmt2-count");
    let counting = FailpointFs::counting(RealFs::shared());
    recover(&dir, counting.clone())
        .unwrap()
        .checkpoint()
        .unwrap();
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        total > 5,
        "rewrite too small to be interesting: {total} fs ops"
    );

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("fmt2 mode={mode:?} fail_op={k}");
            let dir = legacy_format2_dir("fmt2-matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xF0F2F3 ^ k, k, mode);
            let res = recover(&dir, shim.clone()).unwrap().checkpoint();
            assert!(shim.crashed(), "{ctx}: fault never fired");

            // Crash or not, the directory stays recoverable with
            // identical state: either checkpoint generation may be live,
            // but never a torn mixture.
            let recovered = recover(&dir, RealFs::shared())
                .unwrap_or_else(|e| panic!("{ctx}: recovery after crash failed: {e}"));
            assert_eq!(state(&view(&recovered)), want, "{ctx}: state torn by crash");
            match res {
                Ok(_) => assert_eq!(format(&dir), 3, "{ctx}: acked rewrite must be format 3"),
                Err(_) => assert!(matches!(format(&dir), 2 | 3), "{ctx}: unknown live format"),
            }

            // A clean retry always completes the migration.
            recovered
                .checkpoint()
                .unwrap_or_else(|e| panic!("{ctx}: retry failed: {e}"));
            assert_eq!(format(&dir), 3, "{ctx}");
            let done = recover(&dir, RealFs::shared()).unwrap();
            assert_eq!(state(&view(&done)), want, "{ctx}: migrated state diverges");
            for (i, c) in view(&done).cubes().iter().enumerate() {
                assert_eq!(
                    *c.stats(),
                    SubcubeStats::compute(&c.data(), c.epoch()),
                    "{ctx}: K{i} statistics diverge after migration"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// ROADMAP 1(c) / the format 3 → 4 row of the migration matrix: a
/// checkpoint taken between a load and its `age` records how many rows
/// of the bottom cube are still un-homed (manifest format 4), so a
/// warehouse recovered from it alone — nothing in the WAL — ages and
/// answers un-synchronized queries exactly like one that never stopped.
/// A fully homed warehouse keeps writing format 3, byte for byte, and a
/// manifest newer than this build is refused by name.
#[test]
fn checkpoint_between_load_and_age_keeps_rows_unhomed() {
    use specdr::query::{AggApproach, SelectMode};
    use specdr::subcube::{read_manifest, CubeQuery, Manifest};
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let synced = days_from_civil(2000, 6, 5);
    // The late load: 1999 clicks whose home on `synced` is already the
    // month cube. No transition lies before `soon`, one before `later`.
    let (early, late) = (mo.gather(&[4, 5, 6]), mo.gather(&[0, 1, 2, 3]));
    let (soon, later) = (days_from_civil(2000, 6, 20), days_from_civil(2000, 11, 5));
    let ops = [Op::Load(early), Op::Sync(synced), Op::Load(late.clone())];
    let dir = tmpdir("unhomed");
    let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    let plain = in_memory(&spec);
    for op in &ops {
        op.apply_durable(&w).unwrap();
        op.apply_plain(&plain);
    }

    // Format 3 -> 4: the dirty checkpoint carries the count, and is the
    // clean manifest plus one trailing u64.
    w.checkpoint().unwrap();
    let dirty = read_manifest(&dir).unwrap();
    assert_eq!((dirty.format, dirty.unhomed_rows), (4, late.len() as u64));
    let as_clean = Manifest {
        format: 3,
        unhomed_rows: 0,
        ..dirty.clone()
    };
    assert_eq!(dirty.encode().len(), as_clean.encode().len() + 8);
    let newer = Manifest {
        format: 5,
        ..dirty.clone()
    };
    let err = Manifest::decode(&dir, &newer.encode()).unwrap_err();
    assert!(
        err.to_string().contains("unsupported manifest format 5"),
        "{err}"
    );

    drop(w);
    let (rec, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(report.replayed, 0, "the load is in the checkpoint alone");
    assert_eq!(view(&rec).unhomed_rows(), late.len());
    assert_eq!(state(&view(&rec)), state(&view(&plain)));
    view(&rec).verify_stats().unwrap();

    // Asked at the bottom granularity, the answer shows every fact at
    // the granularity it is stored at: a row left un-homed shows.
    let q = CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels: schema.bottom_granularity().0,
        approach: AggApproach::Availability,
    };
    let rows = |mo: Mo| {
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    for day in [soon, later] {
        assert_eq!(
            rows(view(&rec).query_unsync(&q, day, false).unwrap()),
            rows(plain.view_set().query_unsync(&q, day, false).unwrap()),
            "query_unsync at {day}"
        );
        rec.age(day).unwrap();
        plain.age(day).unwrap();
        assert_eq!(state(&view(&rec)), state(&view(&plain)), "age({day})");
        let want = specdr::reduce::reduce_naive(&mo, &spec, day).unwrap();
        common::assert_holds(&[view(&rec)], &want, &format!("age({day})"));
    }

    // Format 4 -> 3: once homed, the next checkpoint is a plain format 3.
    rec.checkpoint().unwrap();
    let clean = read_manifest(&dir).unwrap();
    assert_eq!((clean.format, clean.unhomed_rows), (3, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// An [`Fs`] whose next `append` after [`arm`](FailNextAppend::arm)
/// fails, once; everything else passes through.
struct FailNextAppend {
    inner: Arc<dyn Fs>,
    armed: std::sync::atomic::AtomicBool,
}

impl FailNextAppend {
    fn arm(&self) {
        self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Fs for FailNextAppend {
    fn read(&self, p: &std::path::Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(p)
    }
    fn write(&self, p: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.write(p, data)
    }
    fn append(&self, p: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            return Err(std::io::Error::other("append refused"));
        }
        self.inner.append(p, data)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn create_dir_all(&self, p: &std::path::Path) -> std::io::Result<()> {
        self.inner.create_dir_all(p)
    }
    fn remove_file(&self, p: &std::path::Path) -> std::io::Result<()> {
        self.inner.remove_file(p)
    }
    fn remove_dir_all(&self, p: &std::path::Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(p)
    }
    fn sync_dir(&self, p: &std::path::Path) -> std::io::Result<()> {
        self.inner.sync_dir(p)
    }
    fn exists(&self, p: &std::path::Path) -> bool {
        self.inner.exists(p)
    }
    fn read_dir(&self, p: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.read_dir(p)
    }
}

/// One failure, one contract, at every shard count: when a WAL append
/// fails, the mutator returns `Err`, the warehouse reports itself
/// wedged, every mutator and `checkpoint` are refused with the wedge
/// error, and `recover` lands on the state before the failed call — an
/// `Err` is "as if never issued". (A checkpoint that folded the failed
/// load into the directory used to be accepted as the repair on a
/// single-directory warehouse, and the load survived.)
#[test]
fn a_failed_append_wedges_until_recover_at_every_shard_count() {
    const WEDGE: &str = "storage: warehouse wedged by a failed write; \
                         drop it and ShardRouter::recover the directory";
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let rows = |w: &ShardRouter| {
        let mo = w.view_set().to_mo().unwrap();
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    let day = days_from_civil(2000, 11, 5);
    for shards in [1, 2] {
        let dir = tmpdir(&format!("one-contract-{shards}"));
        let fs = Arc::new(FailNextAppend {
            inner: RealFs::shared(),
            armed: Default::default(),
        });
        let w = ShardRouter::create_with_fs(spec.clone(), &dir, shards, fs.clone()).unwrap();
        w.bulk_load(&mo.gather(&[0, 1, 2])).unwrap();
        let before = rows(&w);
        fs.arm();
        let err = w.bulk_load(&mo).unwrap_err().to_string();
        assert!(err.contains("append refused"), "shards={shards}: {err}");
        assert!(err.contains("recovery required"), "shards={shards}: {err}");
        assert!(!err.contains("shard"), "shards={shards}: {err}");
        assert!(w.is_broken(), "shards={shards}: a failed append must wedge");
        for (what, e) in [
            ("checkpoint", w.checkpoint().unwrap_err()),
            ("sync", w.sync(day).unwrap_err()),
            ("bulk_load", w.bulk_load(&mo).unwrap_err()),
        ] {
            assert_eq!(e.to_string(), WEDGE, "shards={shards}: {what}");
        }
        drop(w);
        let (rec, _) = ShardRouter::recover(spec.clone(), &dir).unwrap();
        assert_eq!(
            rows(&rec),
            before,
            "shards={shards}: the failed load survived"
        );
        rec.bulk_load(&mo).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A checkpoint is read back through the [`Fs`] it was written through:
/// a warehouse that lives on [`MemFs`] alone — no file ever reaches the
/// disk — recovers after its first checkpoint, cube files included.
#[test]
fn memfs_warehouse_recovers_from_its_checkpoint() {
    use specdr::storage::MemFs;
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let rows = |mo: Mo| {
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    let fs: Arc<dyn Fs> = MemFs::shared();
    let dir = std::path::Path::new("/sdr-memfs-warehouse");
    let router = ShardRouter::create_with_fs(spec.clone(), dir, 2, Arc::clone(&fs)).unwrap();
    router.bulk_load(&mo).unwrap();
    router.sync(days_from_civil(2000, 11, 5)).unwrap();
    router.checkpoint().unwrap();
    let want = rows(router.view_set().to_mo().unwrap());
    assert!(!want.is_empty());
    drop(router);
    assert!(!dir.exists(), "the warehouse never touched the real disk");
    let (back, report) = ShardRouter::recover_with_fs(spec, dir, fs).unwrap();
    assert_eq!(report.replayed, 0, "everything is in the checkpoint");
    assert_eq!(rows(back.view_set().to_mo().unwrap()), want);
}

/// Cube files carry no checksum and a WAL record's CRC only covers what
/// was written, so the fact decoder is the last line: a segment row
/// count, an RLE run length or a plain column's count that disagrees
/// with the rest of the file — and the same inside a CRC-valid bulk-load
/// record — must come back from `recover` as a typed error, whatever
/// allocation or index the forged number asks for.
#[test]
fn forged_fact_bytes_are_a_typed_recovery_error() {
    use specdr::storage::{crc32, scan_wal, ColumnEnc};
    use specdr::subcube::WarehouseLayout;
    use specdr::workload::{generate, retention_policy, ClickstreamConfig};
    // One domain group: the quarter cube holds a single fact, so its
    // columns are plain; the bottom cube's day column is run-length.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 200,
        n_domain_grps: 1,
        start: (1999, 1, 1),
        end: (1999, 4, 30),
        ..Default::default()
    });
    let actions = retention_policy(1, 3)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let dir = tmpdir("forged");
    let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    let day = |m, d| days_from_civil(1999, m, d);
    let by_day = cs.rows_by_day(day(1, 1), 120);
    let load = |rows: &[u32]| WarehouseOp::BulkLoad(cs.mo.gather(rows));
    w.apply(&load(&by_day[..117].concat())).unwrap();
    w.apply(&WarehouseOp::Sync(day(4, 27))).unwrap();
    w.checkpoint().unwrap();
    // Two days in one record (a run-length day column), then one fact
    // (plain columns).
    w.apply(&load(&by_day[117..119].concat())).unwrap();
    w.apply(&load(&by_day[119][..1])).unwrap();
    drop(w);
    let recover = || ShardRouter::recover(spec.clone(), &dir);
    assert_eq!(recover().unwrap().1.replayed, 2, "intact before forging");

    // Where each column of a fact table's first segment starts (after
    // the 20-byte header, the row count and the 33-byte zone map), and
    // how it is encoded.
    let n_cols = 2 * cs.schema.n_dims() + cs.schema.n_measures() + 1;
    let columns = |table: &[u8]| -> Vec<(usize, ColumnEnc)> {
        let mut rest = &table[61..];
        (0..n_cols)
            .map(|_| {
                let at = table.len() - rest.len();
                (at, ColumnEnc::read(&mut rest).expect("a written column"))
            })
            .collect()
    };
    let put = |b: &mut [u8], at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
    // The forgeries of one table: (what, bytes). None for an empty
    // table, which is its header alone.
    let forge = |table: &[u8]| -> Vec<(&'static str, Vec<u8>)> {
        let mut out = Vec::new();
        if table.len() == 20 {
            return out;
        }
        let rows = u64::from_le_bytes(table[20..28].try_into().unwrap());
        for forged in [rows + 1, rows - 1, 1 << 40, u64::MAX] {
            let mut b = table.to_vec();
            put(&mut b, 20, forged);
            out.push(("segment rows", b));
        }
        let cols = columns(table);
        if let Some((at, _)) = cols.iter().find(|(_, c)| matches!(c, ColumnEnc::Rle(_))) {
            // tag, run count, first value, then the first run's length.
            for forged in [0u32, u32::MAX] {
                let mut b = table.to_vec();
                b[at + 17..at + 21].copy_from_slice(&forged.to_le_bytes());
                out.push(("run length", b));
            }
        }
        if let Some((at, c)) = cols.iter().find(|(_, c)| matches!(c, ColumnEnc::Plain(_))) {
            for forged in [c.len() as u64 - 1, u64::MAX / 8 + 2, u64::MAX] {
                let mut b = table.to_vec();
                put(&mut b, at + 1, forged);
                out.push(("plain count", b));
            }
        }
        out
    };
    // Forges one table after another: each forgery is put in place by
    // `install`, must fail recovery with a typed error, and the kinds
    // tried are returned.
    let try_all = |tables: &[&[u8]], install: &dyn Fn(usize, &[u8])| {
        let mut kinds = std::collections::BTreeSet::new();
        for (i, good) in tables.iter().enumerate() {
            for (n, (kind, bytes)) in forge(good).into_iter().enumerate() {
                install(i, &bytes);
                let err = recover()
                    .map(|_| ())
                    .expect_err(&format!("table {i}: {kind} forgery {n} recovered"));
                assert!(
                    matches!(err, specdr::subcube::SubcubeError::Storage(_)),
                    "table {i}: {kind} forgery {n}: {err:?}"
                );
                kinds.insert(kind);
            }
            install(i, good);
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            ["plain count", "run length", "segment rows"]
        );
        recover().expect("intact again once every table is restored");
    };

    // Every cube file of the checkpoint.
    let lay = WarehouseLayout::at(&dir);
    let cube = |i| WarehouseLayout::cube_file_in(&lay.ckpt_dir(1), i);
    let files: Vec<Vec<u8>> = (0..3).map(|i| std::fs::read(cube(i)).unwrap()).collect();
    let files: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
    try_all(&files, &|i, bytes| std::fs::write(cube(i), bytes).unwrap());

    // Every bulk-load record of the log, re-framed with a valid CRC.
    let log = std::fs::read(lay.wal(1)).unwrap();
    let records = scan_wal(&RealFs, &lay.wal(1)).unwrap().records;
    assert!(records.iter().all(|r| r[0] == 1), "bulk-load records");
    let tables: Vec<&[u8]> = records.iter().map(|r| &r[1..]).collect();
    try_all(&tables, &|i, table| {
        let mut forged = log[..20].to_vec();
        for (j, record) in records.iter().enumerate() {
            let payload = match j == i {
                true => [&[1u8][..], table].concat(),
                false => record.clone(),
            };
            forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            forged.extend_from_slice(&crc32(&payload).to_le_bytes());
            forged.extend_from_slice(&payload);
        }
        std::fs::write(lay.wal(1), forged).unwrap();
        let scan = scan_wal(&RealFs, &lay.wal(1)).unwrap();
        assert_eq!(
            (scan.records.len(), scan.dropped_bytes),
            (2, 0),
            "CRC-valid"
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery checks each cube's persisted statistics against the fold of
/// the summaries its chunks got when they were built: a forged stats
/// block — a row count, or a format-3 hull — is a typed recovery error.
#[test]
fn forged_persisted_stats_are_a_recovery_error() {
    use specdr::subcube::{read_manifest, WarehouseLayout};
    let (spec, ops) = paper_workload();
    let dir = tmpdir("forged-stats");
    let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    for op in &ops {
        match op.mutation() {
            Some(m) => drop(w.apply(&m).unwrap()),
            None => drop(w.checkpoint().unwrap()),
        }
    }
    w.checkpoint().unwrap();
    drop(w);
    let path = WarehouseLayout::at(&dir).manifest(read_manifest(&dir).unwrap().epoch);
    let intact = std::fs::read(&path).unwrap();
    let manifest = read_manifest(&dir).unwrap();
    let last = manifest.cube_stats.len() - 1;
    assert!(manifest.cube_stats[last].hulls.iter().any(Option::is_some));
    for what in ["rows", "hull"] {
        let mut m = manifest.clone();
        let forged = &mut m.cube_stats[last];
        match what {
            "rows" => forged.rows += 1,
            _ => forged.hulls = vec![None; forged.hulls.len()],
        }
        std::fs::write(&path, m.encode()).unwrap();
        let Err(e) = ShardRouter::recover(spec.clone(), &dir) else {
            panic!("{what}: recovered over forged statistics");
        };
        assert!(
            e.to_string()
                .contains("persisted cube statistics diverge from recomputation"),
            "{what}: {e}"
        );
    }
    std::fs::write(&path, &intact).unwrap();
    let (_, report) = ShardRouter::recover(spec, &dir).unwrap();
    assert_eq!(report.stats_verified, manifest.cube_stats.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Two sales of `i64::MAX − 1` on consecutive days, rolled up into one
/// month by the spec's only action: the sum leaves `i64`, in a debug
/// build (which used to panic) and a release build (which used to store
/// a wrapped sum) alike. The reduction is refused with a typed error
/// naming the measure and the cell, and nothing of it is kept: one shard
/// rejects it whole (no wedge); over two shards, where the other shard
/// logged the step, the router wedges and recovery drops the step on
/// every shard. Recovery succeeds, again and again, a query whose sum
/// leaves `i64` is refused the same way, and MIN and MAX are unaffected.
#[test]
fn measure_sums_that_leave_i64_are_refused_and_recovery_stays_clean() {
    use specdr::mdm::{AggFn, DimId, MdmError, MeasureDef};
    use specdr::query::{AggApproach, SelectMode};
    use specdr::reduce::ReduceError;
    use specdr::subcube::{CubeQuery, SubcubeError};
    use specdr::workload::{generate_retail, RetailConfig};
    let retail = generate_retail(&RetailConfig {
        sales_per_day: 0,
        ..Default::default()
    });
    let schema = Arc::clone(&retail.schema);
    let sku = schema
        .dim(DimId(1))
        .parse_value(retail.cats.sku, "sku-0-0-0");
    let store = schema
        .dim(DimId(2))
        .parse_value(retail.cats.store, "store-0-0-0");
    let (sku, store) = (sku.unwrap(), store.unwrap());
    let sales_in = |month: u32, schema: &Arc<Schema>, measures: [[i64; 2]; 2]| {
        let mut mo = Mo::new(Arc::clone(schema));
        for (d, m) in [10, 11].into_iter().zip(measures) {
            let day = TimeValue::Day(days_from_civil(2000, month, d));
            let day = DimValue::new(tc::DAY, day.code());
            mo.insert_fact(&[day, sku, store], &m).unwrap();
        }
        mo
    };
    let sales = |schema: &Arc<Schema>, measures| sales_in(1, schema, measures);
    let action = "p(a[Time.month, Product.sku, Store.store] o[Time.month <= NOW - 1 months](O))";
    let spec_over = |schema: &Arc<Schema>| {
        let a = parse_action(schema, action).unwrap();
        DataReductionSpec::new(Arc::clone(schema), vec![a]).unwrap()
    };
    let spec = spec_over(&schema);
    let month_query = CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels: vec![tc::MONTH, retail.cats.sku, retail.cats.store],
        approach: AggApproach::Availability,
    };
    let day = days_from_civil(2000, 3, 1);
    let cell = "(2000/1, sku-0-0-0, store-0-0-0)";
    let overflow = MdmError::MeasureOverflow {
        measure: "SUM(Revenue)".into(),
        cell: cell.into(),
    };
    let rows = |w: &ShardRouter| {
        let mo = w.view_set().to_mo().unwrap();
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    let big = i64::MAX - 1;
    for shards in [1, 2] {
        let dir = tmpdir(&format!("overflow-{shards}"));
        let w = ShardRouter::create(spec.clone(), &dir, shards).unwrap();
        w.bulk_load(&sales(&schema, [[1, big], [1, big]])).unwrap();
        let loaded = rows(&w);
        let err = w.sync(day).unwrap_err();
        if shards == 1 {
            assert!(
                matches!(&err, SubcubeError::Reduce(ReduceError::Model(e)) if *e == overflow),
                "{err:?}"
            );
            assert!(!w.is_broken(), "a uniform refusal does not wedge");
        } else {
            assert!(err.to_string().contains("recovery required"), "{err}");
            assert!(w.is_broken());
        }
        assert!(err.to_string().contains(&overflow.to_string()), "{err}");
        assert_eq!(
            rows(&w),
            loaded,
            "shards={shards}: the refused step left a trace"
        );
        assert_eq!(w.last_sync(), None);
        drop(w);
        for attempt in 0..2 {
            let (rec, report) = ShardRouter::recover(spec.clone(), &dir)
                .unwrap_or_else(|e| panic!("shards={shards} attempt {attempt}: {e}"));
            assert_eq!((report.ops_durable, report.last_sync), (1, None));
            assert_eq!(rows(&rec), loaded);
            for r in [
                rec.view_set().query(&month_query, day, true),
                rec.view_set().query_unsync(&month_query, day, true),
            ] {
                let e = r.expect_err("a sum that leaves i64 is no answer");
                assert!(e.to_string().contains(&overflow.to_string()), "{e}");
            }
            // Refused again, the same way, without harm.
            assert!(rec.age(day).is_err());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // A multi-step age whose second step overflows: the first step had
    // landed, and is taken back — the failed call is as if never issued,
    // on the shard too: a publish after it shows the shard's own state.
    let m = in_memory(&spec);
    m.bulk_load(&sales(&schema, [[1, 5], [1, 7]])).unwrap();
    m.bulk_load(&sales_in(2, &schema, [[1, big], [1, big]]))
        .unwrap();
    let synced = days_from_civil(2000, 1, 20);
    m.sync(synced).unwrap();
    let before = m.view_set().to_mo().unwrap();
    let err = m.age(days_from_civil(2000, 3, 5)).unwrap_err();
    assert!(
        err.to_string().contains("(2000/2, sku-0-0-0, store-0-0-0)"),
        "{err}"
    );
    assert!(!m.is_broken(), "a step refused in memory wedges nothing");
    m.bulk_load(&Mo::new(Arc::clone(&schema))).unwrap();
    let after = m.view_set().to_mo().unwrap();
    let render = |mo: &Mo| mo.facts().map(|f| mo.render_fact(f)).collect::<Vec<_>>();
    assert_eq!(render(&after), render(&before));
    assert_eq!(m.last_sync(), Some(synced));

    // MIN and MAX at the ends of the range combine without error.
    let extremes = Schema::new(
        "Sale",
        schema.dims.clone(),
        vec![
            MeasureDef::new("Low", AggFn::Min),
            MeasureDef::new("High", AggFn::Max),
        ],
    )
    .unwrap();
    let m = in_memory(&spec_over(&extremes));
    m.bulk_load(&sales(
        &extremes,
        [[i64::MIN, i64::MAX], [i64::MAX, i64::MIN]],
    ))
    .unwrap();
    m.sync(day).unwrap();
    let got = m.view_set().query(&month_query, day, false).unwrap();
    let facts: Vec<_> = got.facts().map(|f| got.measures_of(f)).collect();
    assert_eq!(facts, vec![vec![i64::MIN, i64::MAX]]);
}

/// Two cells of one cube overflow in the same step, the coordinate-last
/// one loaded first. The step is refused naming the coordinate-first
/// cell — what a pass over the arrivals in cell order reports, however
/// they were grouped. Every shard holds two overflowing sales of each
/// cell, so every shard refuses alike: nothing is published, logged or
/// wedged, and recovery replays the load alone.
#[test]
fn overflowing_cells_of_one_step_name_the_coordinate_first() {
    use specdr::mdm::{DimId, MdmError};
    use specdr::reduce::ReduceError;
    use specdr::subcube::SubcubeError;
    use specdr::workload::{generate_retail, RetailConfig};
    let retail = generate_retail(&RetailConfig {
        sales_per_day: 0,
        ..Default::default()
    });
    let schema = Arc::clone(&retail.schema);
    let value = |d: u16, cat, label: &str| schema.dim(DimId(d)).parse_value(cat, label).unwrap();
    let (first, last) = (
        value(1, retail.cats.sku, "sku-0-0-0"),
        value(1, retail.cats.sku, "sku-0-0-1"),
    );
    assert!(first < last, "sku-0-0-0 is the coordinate-first cell");
    let store = value(2, retail.cats.store, "store-0-0-0");
    let action = "p(a[Time.month, Product.sku, Store.store] o[Time.month <= NOW - 1 months](O))";
    let spec = DataReductionSpec::new(
        Arc::clone(&schema),
        vec![parse_action(&schema, action).unwrap()],
    )
    .unwrap();
    let overflow = MdmError::MeasureOverflow {
        measure: "SUM(Revenue)".into(),
        cell: "(2000/1, sku-0-0-0, store-0-0-0)".into(),
    };
    let cell = |d: u32, sku: DimValue| {
        let day = TimeValue::Day(days_from_civil(2000, 1, d));
        [DimValue::new(tc::DAY, day.code()), sku, store]
    };
    let rows = |w: &ShardRouter| {
        let mo = w.view_set().to_mo().unwrap();
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    for shards in [1, 2] {
        let dir = tmpdir(&format!("overflow-order-{shards}"));
        let w = ShardRouter::create(spec.clone(), &dir, shards).unwrap();
        let mut sales = Mo::new(Arc::clone(&schema));
        for sku in [last, first] {
            for shard in 0..shards {
                let days: Vec<u32> = (1..=31)
                    .filter(|&d| w.route(&cell(d, sku)) == shard)
                    .take(2)
                    .collect();
                assert_eq!(days.len(), 2, "shard {shard} of {shards}");
                for d in days {
                    sales
                        .insert_fact(&cell(d, sku), &[1, i64::MAX - 1])
                        .unwrap();
                }
            }
        }
        w.bulk_load(&sales).unwrap();
        let (loaded, epoch) = (rows(&w), w.epoch());
        let err = w.sync(days_from_civil(2000, 3, 1)).unwrap_err();
        assert!(
            matches!(&err, SubcubeError::Reduce(ReduceError::Model(e)) if *e == overflow),
            "shards={shards}: {err:?}"
        );
        assert!(
            !w.is_broken(),
            "shards={shards}: a uniform refusal does not wedge"
        );
        assert_eq!((w.epoch(), w.last_sync()), (epoch, None), "shards={shards}");
        assert_eq!(rows(&w), loaded, "shards={shards}");
        drop(w);
        let (rec, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
        assert_eq!((report.ops_durable, report.last_sync), (1, None));
        assert_eq!(rows(&rec), loaded);
        std::fs::remove_dir_all(&dir).ok();
    }
}
