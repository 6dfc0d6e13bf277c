//! Crash-recovery test matrix for the durable warehouse.
//!
//! The contract under test (see `crates/subcube/src/durable.rs`): an
//! operation that returned `Ok` survives any later crash; an operation
//! that errored or never returned leaves the recovered warehouse as if
//! it had not been issued. The matrix drives every fault mode of
//! [`FailpointFs`] at *every* mutating filesystem operation of a fixed
//! workload; the property test does the same over random workloads and
//! crash points. Both re-apply the unacknowledged suffix after recovery
//! and require the result to be indistinguishable — facts, per-cube
//! granularities, `last_sync`, and the `SyncStats` of a probe sync —
//! from a run that never crashed.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat as tc, DimValue, Mo, Schema, TimeValue};
use specdr::reduce::{DataReductionSpec, ReductionSchedule};
use specdr::spec::{parse_action, ActionId, ActionSpec};
use specdr::storage::fs::{FailpointFs, FaultMode, Fs, RealFs};
use specdr::subcube::{DurableWarehouse, SubcubeManager, SubcubeStats, SyncStats, WarehouseOp};
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

    fn apply_durable(&self, w: &mut DurableWarehouse) -> Result<(), specdr::subcube::SubcubeError> {
        match self.mutation() {
            Some(op) => w.apply(&op).map(|_| ()),
            None => w.checkpoint().map(|_| ()),
        }
    }

    fn apply_plain(&self, m: &SubcubeManager) {
        if let Some(op) = self.mutation() {
            m.apply(&op).unwrap();
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

/// The never-crashed run: the same logical ops on a plain manager.
fn reference(spec: &DataReductionSpec, ops: &[Op]) -> SubcubeManager {
    let m = SubcubeManager::new(spec.clone());
    for op in ops {
        op.apply_plain(&m);
    }
    m
}

/// Warehouse state rendered for equality: sorted whole-MO facts, per-cube
/// granularity + sorted facts, and `last_sync`.
fn state(m: &SubcubeManager) -> (Vec<String>, Vec<String>, Option<i32>) {
    let whole = m.to_mo().unwrap();
    let mut facts: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
    facts.sort();
    let mut cubes = Vec::new();
    let v = m.view();
    for (i, c) in v.cubes().iter().enumerate() {
        let data = c.data();
        let mut rows: Vec<String> = data.facts().map(|f| data.render_fact(f)).collect();
        rows.sort();
        cubes.push(format!("K{i} {:?}: {}", c.grain, rows.join(" | ")));
    }
    (facts, cubes, m.last_sync())
}

/// Runs `create` + the workload through `fs`, stopping at the first
/// error. Returns how many *logged* ops were acknowledged (`Ok`).
fn run_workload(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    fs: Arc<dyn Fs>,
    ops: &[Op],
) -> u64 {
    let Ok(mut w) = DurableWarehouse::create_with_fs(spec.clone(), dir, fs) else {
        return 0;
    };
    let mut acked = 0;
    for op in ops {
        if op.apply_durable(&mut w).is_err() {
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
    if !dir.join("CURRENT").exists() {
        // The warehouse was never established — only possible when not a
        // single operation was acknowledged.
        assert_eq!(
            acked, 0,
            "{ctx}: CURRENT missing but {acked} ops were acknowledged"
        );
        let m = reference(spec, ops);
        return state(&m);
    }
    let (mut w, report) = DurableWarehouse::recover_with_fs(spec.clone(), dir, RealFs::shared())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    // Durability accounting: everything acknowledged is durable; at most
    // one in-flight operation (applied + logged, error returned after the
    // log append survived — FaultMode::CrashAfter) may exceed it.
    assert!(
        report.ops_durable >= acked && report.ops_durable <= acked + 1,
        "{ctx}: acked={acked} but ops_durable={}",
        report.ops_durable
    );
    // Re-drive the workload from the first non-durable logical op.
    let mut skipped = 0;
    for op in ops {
        if op.is_logged() && skipped < report.ops_durable {
            skipped += 1;
            continue;
        }
        if !op.is_logged() {
            continue;
        }
        op.apply_durable(&mut w)
            .unwrap_or_else(|e| panic!("{ctx}: re-applying suffix failed: {e}"));
    }
    let got = state(w.manager());
    let want = state(&reference(spec, ops));
    assert_eq!(
        got, want,
        "{ctx}: recovered+resumed state diverges from never-crashed run"
    );
    // ISSUE 6: the per-subcube statistics that came through checkpoint +
    // WAL replay (+ the resumed suffix) must be bit-identical to a
    // from-scratch recomputation over the recovered facts — under every
    // fault schedule of the matrix.
    let v = w.manager().view();
    for (i, c) in v.cubes().iter().enumerate() {
        assert_eq!(
            *c.stats(),
            SubcubeStats::compute(c.data(), c.epoch()),
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
    let (w, _) = DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
    assert_eq!(state(w.manager()), state(&reference(&spec, &ops)));
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
    let manifest = specdr::subcube::persist::read_manifest(&dir).unwrap();
    assert!(
        !manifest.cube_stats.is_empty(),
        "format-2 manifest persists per-cube statistics"
    );
    let (w, report) =
        DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
    assert_eq!(
        report.stats_verified,
        manifest.cube_stats.len(),
        "recover verifies every persisted stats block"
    );
    let v = w.manager().view();
    for (i, c) in v.cubes().iter().enumerate() {
        assert_eq!(
            *c.stats(),
            SubcubeStats::compute(c.data(), c.epoch()),
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
    assert!(
        total > 10,
        "workload too small to be interesting: {total} fs ops"
    );

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
    let (w, _) = DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
    assert_eq!(state(w.manager()), state(&reference(&spec, &ops)));
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
    assert!(
        total > 10,
        "aging workload too small to be interesting: {total} fs ops"
    );

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("aging mode={mode:?} fail_op={k}");
            let dir = tmpdir("age-matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xA9E5EED ^ k, k, mode);
            let acked = run_workload(&spec, &dir, shim.clone(), &ops);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            if dir.join("CURRENT").exists() {
                let (w, _) =
                    DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared())
                        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                let last = w.manager().last_sync();
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
    let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
    let plain = SubcubeManager::new(spec.clone());
    let mut all = Mo::new(Arc::clone(&script.schema));
    for (i, op) in ops.iter().enumerate() {
        op.apply_durable(&mut w).unwrap();
        op.apply_plain(&plain);
        if let Op::Load(mo) = op {
            all.absorb(mo).unwrap();
        }
        if i == ckpt_at {
            w.checkpoint().unwrap();
        }
        if [dirty_drop, ckpt_drop, wal_drop].contains(&i) {
            let pending = w.manager().view().is_dirty();
            assert_eq!(pending, i == dirty_drop, "drop point {i} of {n}");
            drop(w);
            let (rec, report) =
                DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
            assert!(report.replayed > 0, "drop point {i}: nothing replayed");
            assert_eq!(
                rec.manager().view().is_dirty(),
                pending,
                "drop point {i}: un-homed rows must survive recovery"
            );
            assert_eq!(state(rec.manager()), state(&plain), "drop point {i}");
            w = rec;
        }
    }
    let Some(Op::Age(end)) = ops.last() else {
        panic!("the script ends with an age");
    };
    let fresh = SubcubeManager::new(spec.clone());
    fresh.bulk_load(&all).unwrap();
    fresh.sync(*end).unwrap();
    assert_eq!(state(w.manager()), state(&fresh));
    w.manager().verify_stats().unwrap();
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
    let (mut w, report) =
        DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
    assert!(report.ops_durable >= acked);
    for k in 0..6 {
        let (w2, _) = DurableWarehouse::recover_with_fs(
            spec.clone(),
            &dir,
            FailpointFs::new(RealFs::shared(), 11, k, FaultMode::FailWrite),
        )
        .unwrap_or_else(|_| {
            // Recovery itself read-only fails only if the shim fired on
            // the repair write of a torn tail; the directory is intact.
            DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap()
        });
        let mut w2 = w2;
        let _ = w2.checkpoint(); // may fail; must never corrupt
        let (w3, _) =
            DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
        assert_eq!(state(w3.manager()), state(w.manager()));
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

/// Applies a prefix of batches to a plain manager — the reference state
/// a crashed-and-recovered warehouse must land on exactly.
fn batch_reference(
    spec: &DataReductionSpec,
    batches: &[Vec<WarehouseOp>],
    n_batches: usize,
) -> SubcubeManager {
    let m = SubcubeManager::new(spec.clone());
    for op in batches[..n_batches].iter().flatten() {
        m.apply(op).unwrap();
    }
    m
}

/// Runs `create` + the batches through `fs`, stopping at the first
/// error. Returns how many batches were acknowledged (`Ok`).
fn run_batches(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    fs: Arc<dyn Fs>,
    batches: &[Vec<WarehouseOp>],
) -> usize {
    let Ok(mut w) = DurableWarehouse::create_with_fs(spec.clone(), dir, fs) else {
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
    let (w, report) =
        DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
    assert_eq!(report.ops_durable, total_ops);
    assert_eq!(
        report.replayed as u64, total_ops,
        "replay counts per-op in batches"
    );
    assert_eq!(
        state(w.manager()),
        state(&batch_reference(&spec, &batches, batches.len()))
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 4, satellite 4: a `FailpointFs` crash in the middle of a
/// group-committed WAL batch must recover to a *prefix of acknowledged
/// batches* — no acknowledged op lost, no partial batch applied. Every
/// fault mode at every mutating fs op of the batched workload; the
/// decisive assertion is that the recovered op count always sits on a
/// batch boundary and the recovered state equals the plain-manager
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
    assert!(total > 8, "batched workload too small: {total} fs ops");

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
            let (w, report) =
                DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared())
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
                state(w.manager()),
                state(&batch_reference(&spec, &batches, n_batches)),
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
    /// facts, per-cube granularities, `last_sync`, and the `SyncStats`
    /// of a probe sync all agree.
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
        let ref_stats: SyncStats = reference_m.sync(probe).unwrap();
        if dir.join("CURRENT").exists() {
            let (mut w, _) =
                DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
            // Skip the durable prefix, re-apply the rest, then probe.
            let durable = w.ops_durable();
            let mut skipped = 0;
            for op in &ops {
                if op.is_logged() && skipped < durable {
                    skipped += 1;
                    continue;
                }
                if op.is_logged() {
                    op.apply_durable(&mut w).unwrap();
                }
            }
            let got_stats = w.sync(probe).unwrap();
            prop_assert_eq!(got_stats, ref_stats);
            let (f2, c2, l2) = state(w.manager());
            let (rf, rc, rl) = state(&reference_m);
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
            let (w, _) =
                DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
            let last = w.manager().last_sync();
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

/// ISSUE 8, satellite 4: storage-format round-trip matrix. A directory
/// written by the format-2 (PR 6) checkpointer must load under current
/// code, and re-checkpointing it as format 3 must be crash-atomic: a
/// [`FailpointFs`] fault at any mutating fs op of the rewrite leaves
/// the directory loadable — at either the legacy or the migrated
/// checkpoint — with bit-identical warehouse state, and a clean retry
/// always lands on format 3 with statistics matching a recomputation.
#[test]
fn format2_migration_crash_matrix() {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let m = SubcubeManager::new(spec.clone());
    m.bulk_load(&mo).unwrap();
    m.sync(days_from_civil(2000, 11, 5)).unwrap();
    let want = state(&m);
    let fs: Arc<dyn Fs> = RealFs::shared();

    // Clean round trip: fabricated legacy dir -> current loader ->
    // format-3 re-checkpoint -> identical state either side.
    let dir = tmpdir("fmt2-clean");
    m.save_legacy_format2_fs(&fs, &dir).unwrap();
    let legacy = specdr::subcube::read_manifest(&dir).unwrap();
    assert_eq!(
        legacy.format, 2,
        "fabricated dir must read back as format 2"
    );
    let loaded = SubcubeManager::load_from_dir(spec.clone(), &dir).unwrap();
    assert_eq!(
        state(&loaded),
        want,
        "legacy checkpoint loads bit-identically"
    );
    loaded.save_to_dir_fs(&fs, &dir).unwrap();
    assert_eq!(specdr::subcube::read_manifest(&dir).unwrap().format, 3);
    let reloaded = SubcubeManager::load_from_dir(spec.clone(), &dir).unwrap();
    assert_eq!(state(&reloaded), want, "migrated checkpoint round-trips");
    std::fs::remove_dir_all(&dir).ok();

    // Count the mutating fs ops of one clean migration rewrite.
    let dir = tmpdir("fmt2-count");
    m.save_legacy_format2_fs(&fs, &dir).unwrap();
    let counting = FailpointFs::counting(RealFs::shared());
    let counting_dyn: Arc<dyn Fs> = counting.clone();
    SubcubeManager::load_from_dir(spec.clone(), &dir)
        .unwrap()
        .save_to_dir_fs(&counting_dyn, &dir)
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
            let dir = tmpdir("fmt2-matrix");
            m.save_legacy_format2_fs(&fs, &dir).unwrap();
            let loaded = SubcubeManager::load_from_dir(spec.clone(), &dir).unwrap();
            let shim = FailpointFs::new(RealFs::shared(), 0xF0F2F3 ^ k, k, mode);
            let shim_dyn: Arc<dyn Fs> = shim.clone();
            let res = loaded.save_to_dir_fs(&shim_dyn, &dir);
            assert!(shim.crashed(), "{ctx}: fault never fired");

            // Crash or not, the directory stays loadable with identical
            // state: either checkpoint generation may be live, but never
            // a torn mixture.
            let recovered = SubcubeManager::load_from_dir(spec.clone(), &dir)
                .unwrap_or_else(|e| panic!("{ctx}: load after crash failed: {e}"));
            assert_eq!(state(&recovered), want, "{ctx}: state torn by crash");
            let mf = specdr::subcube::read_manifest(&dir).unwrap();
            if res.is_ok() {
                assert_eq!(mf.format, 3, "{ctx}: acked rewrite must be format 3");
            } else {
                assert!(
                    mf.format == 2 || mf.format == 3,
                    "{ctx}: unknown live format {}",
                    mf.format
                );
            }

            // A clean retry always completes the migration.
            recovered
                .save_to_dir_fs(&fs, &dir)
                .unwrap_or_else(|e| panic!("{ctx}: retry failed: {e}"));
            assert_eq!(
                specdr::subcube::read_manifest(&dir).unwrap().format,
                3,
                "{ctx}"
            );
            let done = SubcubeManager::load_from_dir(spec.clone(), &dir).unwrap();
            assert_eq!(state(&done), want, "{ctx}: migrated state diverges");
            let v = done.view();
            for (i, c) in v.cubes().iter().enumerate() {
                assert_eq!(
                    *c.stats(),
                    SubcubeStats::compute(c.data(), c.epoch()),
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
    let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
    let plain = SubcubeManager::new(spec.clone());
    for op in &ops {
        op.apply_durable(&mut w).unwrap();
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
    let (mut rec, report) =
        DurableWarehouse::recover_with_fs(spec.clone(), &dir, RealFs::shared()).unwrap();
    assert_eq!(report.replayed, 0, "the load is in the checkpoint alone");
    assert_eq!(rec.manager().view().unhomed_rows(), late.len());
    assert_eq!(state(rec.manager()), state(&plain));
    rec.manager().verify_stats().unwrap();

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
            rows(rec.manager().query_unsync(&q, day, false).unwrap()),
            rows(plain.query_unsync(&q, day, false).unwrap()),
            "query_unsync at {day}"
        );
        rec.age(day).unwrap();
        plain.age(day).unwrap();
        assert_eq!(state(rec.manager()), state(&plain), "age({day})");
        let fresh = SubcubeManager::new(spec.clone());
        fresh.bulk_load(&mo).unwrap();
        fresh.sync(day).unwrap();
        assert_eq!(state(rec.manager()), state(&fresh), "age({day}) vs sync");
    }

    // Format 4 -> 3: once homed, the next checkpoint is a plain format 3.
    rec.checkpoint().unwrap();
    let clean = read_manifest(&dir).unwrap();
    assert_eq!((clean.format, clean.unhomed_rows), (3, 0));
    std::fs::remove_dir_all(&dir).ok();
}
