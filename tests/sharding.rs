//! Sharded-vs-unsharded differential suite.
//!
//! A [`ShardRouter`] of N shards must be *observationally identical* to
//! the one-shard warehouse: same accept/reject decision for every churn
//! op, same query-mix digests in both sync states at every evaluation
//! day, and the same whole-batch / whole-tick semantics across crashes.
//! The tests here drive random `sdr-workload` churn schedules through an
//! N-shard warehouse on disk and a one-shard reference
//! [in memory](ShardRouter::in_memory) and compare content digests, then
//! repeat under injected failures:
//! a torn record in a single shard's WAL, a seeded [`FailpointFs`]
//! crash matrix, and a cross-shard checkpoint interrupted between
//! shards. Recovery must land on a state equal to replaying a *prefix*
//! of the acknowledged operations — never a state mixing shards from
//! different logical times.

#[path = "../crates/subcube/tests/common/mod.rs"]
mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use specdr::driver::result_digest;
use specdr::mdm::calendar::days_from_civil;
use specdr::reduce::DataReductionSpec;
use specdr::serve::{mix_specs, QuerySpec};
use specdr::spec::parse_action;
use specdr::storage::fs::{FailpointFs, FaultMode, MemFs, RealFs};
use specdr::storage::{scan_wal, Fs};
use specdr::subcube::{ShardRouter, SubcubeError, WarehouseLayout, WarehouseOp};
use specdr::workload::{
    churn_script, daily_script, generate, paper_schema, ChurnOp, ClickstreamConfig, DailyOp,
    ACTION_A1, ACTION_A2,
};

fn paper_spec() -> DataReductionSpec {
    let (schema, _) = paper_schema();
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap()
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdr-shard-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The unsharded reference: one shard, in memory.
fn reference() -> ShardRouter {
    ShardRouter::in_memory(paper_spec()).unwrap()
}

/// Applies one churn op through the shard router. `Ok(true)` = accepted
/// (published), `Ok(false)` = legal rejection.
fn apply_router(r: &ShardRouter, op: &ChurnOp) -> Result<bool, SubcubeError> {
    let res = match op {
        ChurnOp::Load(mo) => r.bulk_load(mo).map(|_| ()),
        ChurnOp::Sync(t) => r.sync(*t).map(|_| ()),
        ChurnOp::SpecInsert(a) => r.spec_insert(vec![a.clone()]).map(|_| ()),
        ChurnOp::SpecDelete(id, t) => r.spec_delete(&[*id], *t),
    };
    match res {
        Ok(()) => Ok(true),
        Err(SubcubeError::Reduce(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// The driver's three evaluation days.
fn query_days() -> [i32; 3] {
    [
        days_from_civil(2000, 9, 15),
        days_from_civil(2001, 6, 15),
        days_from_civil(2002, 3, 1),
    ]
}

/// Digest of an MO's *logical* content: facts grouped by their cell
/// coordinates with measures folded through each measure's aggregate
/// function. Two shards can each hold an aggregated fact for the same
/// (month, domain) cell when the cell's bottom facts were split across
/// them; the union re-aggregates to the unsharded fact under every
/// query, so content equality is defined modulo that regrouping.
fn canonical_digest(mo: &specdr::mdm::Mo) -> u64 {
    let schema = mo.schema();
    let mut cells: std::collections::BTreeMap<Vec<specdr::mdm::DimValue>, Vec<i64>> =
        std::collections::BTreeMap::new();
    for f in mo.facts() {
        let measures = mo.measures_of(f);
        schema
            .fold_into_group(&mut cells, mo.coords(f), |j| measures[j])
            .expect("test measures stay inside i64");
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (coords, measures) in &cells {
        for b in format!("{coords:?}|{measures:?};").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Query-mix digests (4 queries × 3 days × {synced, unsync}) plus the
/// canonicalized content digest — the full observable surface of one
/// state.
fn router_digests(r: &ShardRouter) -> Vec<u64> {
    let schema = r.schema();
    let mut out = vec![canonical_digest(&r.view_set().to_mo().unwrap())];
    for &now in &query_days() {
        for unsync in [false, true] {
            for spec in mix_specs(now, unsync) {
                let q = spec.build(schema).unwrap();
                let res = spec.eval(&q, &r.view_set(), true).unwrap();
                out.push(result_digest(&res));
            }
        }
    }
    out
}

/// The core differential matrix: N ∈ {1, 2, 4, 7} shards × seeded
/// random churn schedules. Accept/reject parity on every op; digest
/// equality of the full observable surface at the end and at a
/// mid-schedule checkpoint.
#[test]
fn sharded_matches_unsharded_over_random_churn() {
    for &shards in &[1usize, 2, 4, 7] {
        for seed in 0..3u64 {
            let dir = tdir(&format!("diff-{shards}-{seed}"));
            let schema = Arc::clone(paper_spec().schema());
            let router = ShardRouter::create(paper_spec(), &dir, shards)
                .unwrap_or_else(|e| panic!("create {shards}/{seed}: {e}"));
            let unsharded = reference();
            let script = churn_script(&schema, seed, 16);
            for (i, op) in script.iter().enumerate() {
                let a = apply_router(&router, op)
                    .unwrap_or_else(|e| panic!("shards={shards} seed={seed} op {i}: {e}"));
                let b = apply_router(&unsharded, op).unwrap();
                assert_eq!(
                    a, b,
                    "shards={shards} seed={seed}: accept/reject diverged at op {i}"
                );
                if i == script.len() / 2 {
                    assert_eq!(
                        router_digests(&router),
                        router_digests(&unsharded),
                        "shards={shards} seed={seed}: digests diverged mid-schedule"
                    );
                }
            }
            assert_eq!(
                router_digests(&router),
                router_digests(&unsharded),
                "shards={shards} seed={seed}: digests diverged at end"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// What "same answers" means for the one merge: for every mix query ×
/// all four aggregation approaches × {synchronized, un-synchronized} ×
/// `parallel` ∈ {false, true} × N ∈ {1, 2, 4} shards, the sharded answer
/// — every shard's chunks folded into one accumulator — is the unsharded,
/// unplanned, sequential full fan-out's, row for row: same rows, same
/// order, same provenance.
#[test]
fn sharded_answers_equal_the_unsharded_naive_fan_out_row_for_row() {
    use specdr::query::AggApproach::{Availability, Disaggregated, Lub, Strict};
    let rows = |mo: &specdr::mdm::Mo| -> Vec<(String, u32)> {
        let origin = &mo.store().origin;
        mo.facts()
            .map(|f| (mo.render_fact(f), origin[f.index()]))
            .collect()
    };
    let schema = Arc::clone(paper_spec().schema());
    for shards in [1usize, 2, 4] {
        let dir = tdir(&format!("rows-{shards}"));
        let router = ShardRouter::create(paper_spec(), &dir, shards).unwrap();
        let unsharded = reference();
        for op in churn_script(&schema, 5, 16) {
            assert_eq!(
                apply_router(&router, &op).unwrap(),
                apply_router(&unsharded, &op).unwrap()
            );
        }
        let set = router.view_set();
        let view = unsharded.view_set().views()[0].clone();
        for now in query_days() {
            for unsync in [false, true] {
                let reference = if unsync {
                    view.virtual_age(now).unwrap().0
                } else {
                    view.clone()
                };
                for spec in mix_specs(now, unsync) {
                    for approach in [Availability, Strict, Lub, Disaggregated] {
                        let spec = QuerySpec {
                            approach: approach.to_string(),
                            ..spec.clone()
                        };
                        let q = spec.build(&schema).unwrap();
                        let want = reference.query_naive(&q, now, false).unwrap();
                        for parallel in [false, true] {
                            let got = spec.eval(&q, &set, parallel).unwrap();
                            assert_eq!(
                                rows(&got),
                                rows(&want),
                                "shards={shards} parallel={parallel} {spec:?}"
                            );
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The daily write path through the router: 430 days of alternating
/// `bulk_load` and `age` (late facts, double loads, skipped agings) on
/// N ∈ {1, 2} shards hold, after every `age`, Definition 2's reduction
/// of every fact loaded so far — cube by cube, the shards' cells
/// combined — each shard homing only the rows it was handed since its
/// previous pass.
#[test]
fn sharded_interleaved_load_and_age_matches_from_scratch() {
    let script = daily_script(3, 430);
    let actions = script
        .actions
        .iter()
        .map(|src| parse_action(&script.schema, src).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&script.schema), actions).unwrap();
    for shards in [1usize, 2] {
        let dir = tdir(&format!("daily-{shards}"));
        let router = ShardRouter::create(spec.clone(), &dir, shards).unwrap();
        let mut all = specdr::mdm::Mo::new(Arc::clone(&script.schema));
        let mut pending = 0usize;
        for (step, op) in script.ops.iter().enumerate() {
            let t = match op {
                DailyOp::Load(mo) => {
                    router.bulk_load(mo).unwrap();
                    all.absorb(mo).unwrap();
                    pending += mo.len();
                    continue;
                }
                DailyOp::Age(t) => *t,
            };
            let stats = router.age(t).unwrap();
            assert_eq!(stats.rows_homed, pending, "shards={shards} step {step}");
            pending = 0;
            common::assert_holds(
                router.view_set().views(),
                &specdr::reduce::reduce_naive(&all, &spec, t).unwrap(),
                &format!("shards={shards} step {step} (day {t})"),
            );
        }
        for v in router.view_set().views() {
            v.verify_stats().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Whole-batch parity: `apply_batch` publishes all-or-nothing across
/// shards exactly like the unsharded group append.
#[test]
fn sharded_apply_batch_matches_unsharded() {
    use specdr::subcube::WarehouseOp;
    let dir = tdir("batch");
    let schema = Arc::clone(paper_spec().schema());
    let router = ShardRouter::create(paper_spec(), &dir, 3).unwrap();
    let unsharded = reference();
    let script = churn_script(&schema, 9, 8);
    let ops: Vec<WarehouseOp> = script
        .iter()
        .filter_map(|op| match op {
            ChurnOp::Load(mo) => Some(WarehouseOp::BulkLoad(mo.clone())),
            ChurnOp::Sync(t) => Some(WarehouseOp::Sync(*t)),
            _ => None,
        })
        .collect();
    assert!(ops.len() >= 4, "schedule too short for a batch test");
    router.apply_batch(ops.clone()).unwrap();
    for op in &ops {
        unsharded.apply(op).unwrap();
    }
    assert_eq!(router_digests(&router), router_digests(&unsharded));
    std::fs::remove_dir_all(&dir).ok();
}

/// Replays the first `n_accepted` accepted ops of `script` into a fresh
/// unsharded reference and returns its digests — the reference state for
/// prefix-recovery checks.
fn prefix_reference(script: &[ChurnOp], n_accepted: usize) -> Vec<u64> {
    let unsharded = reference();
    let mut accepted = 0;
    for op in script {
        if accepted == n_accepted {
            break;
        }
        if apply_router(&unsharded, op).unwrap() {
            accepted += 1;
        }
    }
    assert_eq!(accepted, n_accepted, "schedule has too few accepted ops");
    router_digests(&unsharded)
}

/// A torn record in a *single* shard's WAL: recovery must align every
/// shard back to the longest common prefix — the state is exactly the
/// unsharded replay of all but the last acknowledged op, for whichever
/// shard was hit.
#[test]
fn torn_single_shard_wal_recovers_to_common_prefix() {
    let shards = 4usize;
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 5, 12);
    for victim in 0..shards {
        let dir = tdir(&format!("torn-{victim}"));
        let router = ShardRouter::create(paper_spec(), &dir, shards).unwrap();
        let mut accepted = 0usize;
        for op in &script {
            if apply_router(&router, op).unwrap() {
                accepted += 1;
            }
        }
        assert!(accepted >= 3);
        drop(router);

        // Tear the tail of the victim shard's epoch-0 WAL: flip a byte
        // inside the last record's payload. `scan_wal` will drop it.
        let wal_path = WarehouseLayout::at(&dir).shard(victim).wal(0);
        let fs = RealFs::shared();
        let mut bytes = fs.read(&wal_path).unwrap();
        let scan = scan_wal(fs.as_ref(), &wal_path).unwrap();
        assert_eq!(scan.records.len(), accepted, "one record per accepted op");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x41;
        std::fs::write(&wal_path, &bytes).unwrap();

        let (recovered, report) = ShardRouter::recover(paper_spec(), &dir)
            .unwrap_or_else(|e| panic!("victim={victim}: {e}"));
        assert_eq!(
            report.dropped_records,
            shards - 1,
            "victim={victim}: the other shards each drop their now-unacknowledged tail record"
        );
        assert!(!report.resumed_checkpoint);
        assert_eq!(
            router_digests(&recovered),
            prefix_reference(&script, accepted - 1),
            "victim={victim}: recovered state is not the common-prefix replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Seeded crash matrix: a [`FailpointFs`] `CrashAfter` fault at the
/// k-th mutating filesystem op (which lands inside *some* shard's WAL
/// or checkpoint machinery). Recovery must land on the replay of some
/// prefix of the accepted ops — prefix membership, not just internal
/// consistency.
#[test]
fn failpoint_crash_matrix_recovers_to_a_prefix() {
    let shards = 2usize;
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 11, 10);

    // Reference digests for every accepted-prefix length.
    let total_accepted = {
        let unsharded = reference();
        script
            .iter()
            .filter(|op| apply_router(&unsharded, op).unwrap())
            .count()
    };
    let prefixes: Vec<Vec<u64>> = (0..=total_accepted)
        .map(|n| prefix_reference(&script, n))
        .collect();

    let mut reopened = 0;
    for k in (2..40).step_by(3) {
        let dir = tdir(&format!("crash-{k}"));
        let shim = FailpointFs::new(RealFs::shared(), 0xBEEF ^ k, k, FaultMode::CrashAfter);
        let crashed = match ShardRouter::create_with_fs(
            paper_spec(),
            &dir,
            shards,
            shim.clone() as Arc<dyn Fs>,
        ) {
            Ok(router) => {
                let mut crashed = false;
                for op in &script {
                    match apply_router(&router, op) {
                        Ok(_) => {}
                        Err(_) => {
                            crashed = true;
                            break;
                        }
                    }
                }
                crashed
            }
            Err(_) => true,
        };
        if !crashed && !shim.crashed() {
            // Fault point beyond the workload: nothing to recover.
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        // The SHARDS manifest is written last in create; a crash before
        // it leaves shards nothing was acknowledged in, and `open`
        // completes the create over them.
        // Concurrent shards make which op is number k a matter of
        // scheduling: every message names the op the crash hit.
        let at = shim.fired().unwrap_or("no op");
        if !RealFs::shared().exists(&WarehouseLayout::at(&dir).shards_manifest()) {
            let opened = ShardRouter::open(paper_spec(), &dir, shards).unwrap_or_else(|e| {
                panic!("k={k} ({at}): open after a crashed create failed: {e}")
            });
            assert_eq!((opened.shards(), opened.len()), (shards, 0), "k={k} ({at})");
            assert_eq!(router_digests(&opened), prefixes[0], "k={k} ({at})");
            reopened += 1;
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let (recovered, _report) = ShardRouter::recover(paper_spec(), &dir)
            .unwrap_or_else(|e| panic!("k={k} ({at}): recovery failed: {e}"));
        let got = router_digests(&recovered);
        assert!(
            prefixes.contains(&got),
            "k={k} ({at}): recovered state matches no accepted-prefix replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(reopened >= 3, "the sweep crashed only {reopened} creates");
}

/// Every schema the project ships routes: the paper's, the click-stream
/// and session click-stream generators', the three-dimensional retail
/// generator's and the quickstart's retail schema all pack their bottom
/// key into 128 bits, so each opens over two shards — the router needs
/// no fallback hash.
#[test]
fn every_shipped_schema_packs_and_shards() {
    use specdr::mdm::{
        AggFn, CatGraph, Dimension, EnumDimensionBuilder, KeyPacker, MeasureDef, Schema,
        TimeDimension,
    };
    use specdr::workload::{
        generate, generate_retail, generate_sessions, ClickstreamConfig, RetailConfig,
        SessionConfig,
    };
    let quickstart = {
        let time = Dimension::Time(TimeDimension::new((2019, 1, 1), (2026, 12, 31)).unwrap());
        let g = CatGraph::new(
            vec!["sku", "category", "T"],
            &[("sku", "category"), ("category", "T")],
        )
        .unwrap();
        let (sku, category) = (g.by_name("sku").unwrap(), g.by_name("category").unwrap());
        let mut b = EnumDimensionBuilder::new("Product", g);
        for (s, c) in [
            ("espresso-beans", "coffee"),
            ("filter-beans", "coffee"),
            ("green-tea", "tea"),
            ("earl-grey", "tea"),
        ] {
            b.add_value(sku, s, &[(category, c)]).unwrap();
        }
        let measures = vec![
            MeasureDef::new("Count", AggFn::Count),
            MeasureDef::new("Revenue", AggFn::Sum),
        ];
        Schema::new(
            "Sale",
            vec![time, Dimension::Enum(b.build().unwrap())],
            measures,
        )
        .unwrap()
    };
    let clicks = ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    };
    let sessions = SessionConfig {
        sessions_per_day: 0,
        ..Default::default()
    };
    let retail = RetailConfig {
        sales_per_day: 0,
        ..Default::default()
    };
    for schema in [
        paper_schema().0,
        generate(&clicks).schema,
        generate_sessions(&sessions).schema,
        generate_retail(&retail).schema,
        quickstart,
    ] {
        assert!(KeyPacker::new(&schema).is_some(), "{}", schema.fact_type);
        let spec = DataReductionSpec::empty(Arc::clone(&schema));
        ShardRouter::create_with_fs(spec, Path::new("/w"), 2, MemFs::shared())
            .unwrap_or_else(|e| panic!("{}: {e}", schema.fact_type));
    }
}

/// Recursively copies a directory (the test's snapshot tool).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        let to = dst.join(e.file_name());
        if e.file_type().unwrap().is_dir() {
            copy_dir(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), &to).unwrap();
        }
    }
}

/// A cross-shard checkpoint interrupted between shards: shard 0 already
/// at the next epoch, shard 1 still on the previous one, top-level
/// manifest not yet republished. Recovery finishes the checkpoint
/// (`resumed_checkpoint`) and the state equals the pre-crash state.
#[test]
fn interrupted_cross_shard_checkpoint_resumes() {
    let dir = tdir("ckpt-resume");
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 3, 8);
    let router = ShardRouter::create(paper_spec(), &dir, 2).unwrap();
    for op in &script {
        apply_router(&router, op).unwrap();
    }
    let want = router_digests(&router);

    // Snapshot shard 1 before the checkpoint, checkpoint, then restore
    // the snapshot — shard 0 finished its part, shard 1 "crashed"
    // before starting, and the SHARDS manifest (written last) still
    // names the old epoch exactly as a real interruption would leave it.
    let shard1 = WarehouseLayout::at(&dir).shard(1).root().to_path_buf();
    let snap = tdir("ckpt-resume-snap");
    copy_dir(&shard1, &snap);
    let manifest_before = std::fs::read(WarehouseLayout::at(&dir).shards_manifest()).unwrap();
    drop(router);
    {
        let (router, _) = ShardRouter::recover(paper_spec(), &dir).unwrap();
        router.checkpoint().unwrap();
    }
    std::fs::remove_dir_all(&shard1).unwrap();
    copy_dir(&snap, &shard1);
    std::fs::write(
        WarehouseLayout::at(&dir).shards_manifest(),
        &manifest_before,
    )
    .unwrap();

    let (recovered, report) = ShardRouter::recover(paper_spec(), &dir).unwrap();
    assert!(
        report.resumed_checkpoint,
        "recovery must detect and finish the interrupted checkpoint"
    );
    assert_eq!(
        router_digests(&recovered),
        want,
        "state changed across the resume"
    );
    // The finished checkpoint is durable: a second recovery is clean.
    drop(recovered);
    let (again, report2) = ShardRouter::recover(paper_spec(), &dir).unwrap();
    assert!(!report2.resumed_checkpoint);
    assert_eq!(router_digests(&again), want);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&snap).ok();
}

/// The shards of a checkpoint run at once, so a crash can leave any
/// subset of them at the next epoch — shard 1 finished while shard 0 is
/// not is a state a checkpoint walking the shards in order never left. A
/// `CrashAfter` fault at every mutating filesystem op of one
/// `checkpoint()`, N ∈ {2, 4}: recovery lands on the pre-checkpoint
/// content, reports `resumed_checkpoint` exactly when some shard's
/// `CURRENT` moved and `SHARDS` did not, and a further checkpoint and
/// recovery round-trip.
#[test]
fn a_crash_anywhere_in_a_fanned_out_checkpoint_recovers() {
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 5, 8);
    let dir = Path::new("/w");
    let layout = WarehouseLayout::at(dir);
    for shards in [2usize, 4] {
        // The warehouse after the script, through a shim that crashes
        // right after mutating op `fail_op`.
        let build = |fail_op: u64| {
            let mem = MemFs::shared();
            let inner = Arc::clone(&mem) as Arc<dyn Fs>;
            let shim = FailpointFs::new(inner, 0xC4EC ^ fail_op, fail_op, FaultMode::CrashAfter);
            let fs = Arc::clone(&shim) as Arc<dyn Fs>;
            let router = ShardRouter::create_with_fs(paper_spec(), dir, shards, fs).unwrap();
            for op in &script {
                apply_router(&router, op).unwrap();
            }
            (mem, shim, router)
        };
        let (_, counter, router) = build(u64::MAX);
        let (before, want) = (counter.ops(), router_digests(&router));
        router.checkpoint().unwrap();
        let ops = counter.ops() - before;
        assert!(ops > 2 * shards as u64, "N={shards}: {ops} ops");
        let currents = |fs: &MemFs| -> Vec<Vec<u8>> {
            (0..shards)
                .map(|i| fs.read(&layout.shard(i).current()).unwrap())
                .collect()
        };
        let mut resumed = 0;
        for k in 0..ops {
            let (mem, shim, router) = build(before + k);
            let (currents0, manifest0) = (currents(&mem), mem.read(&layout.shards_manifest()));
            assert!(router.checkpoint().is_err(), "N={shards} k={k}");
            let k = format!("{k} ({})", shim.fired().expect("the crash fired"));
            drop(router);
            let moved = currents(&mem) != currents0;
            let published = mem.read(&layout.shards_manifest()).unwrap() != manifest0.unwrap();
            let fs = Arc::clone(&mem) as Arc<dyn Fs>;
            let (rec, report) = ShardRouter::recover_with_fs(paper_spec(), dir, fs)
                .unwrap_or_else(|e| panic!("N={shards} k={k}: recovery failed: {e}"));
            assert_eq!(router_digests(&rec), want, "N={shards} k={k}");
            assert_eq!(
                report.resumed_checkpoint,
                moved && !published,
                "N={shards} k={k}: moved={moved} published={published}"
            );
            resumed += usize::from(report.resumed_checkpoint);
            rec.checkpoint().unwrap();
            drop(rec);
            let fs = Arc::clone(&mem) as Arc<dyn Fs>;
            let (again, report) = ShardRouter::recover_with_fs(paper_spec(), dir, fs).unwrap();
            assert!(!report.resumed_checkpoint, "N={shards} k={k}");
            assert_eq!(router_digests(&again), want, "N={shards} k={k}");
        }
        assert!(resumed > 0, "N={shards}: no crash left a shard ahead");
    }
}

/// A load is routed from its columns: every fact of a generated load
/// lands on the shard [`ShardRouter::route`] names for its coordinates,
/// and each shard logs, byte for byte, the `BulkLoad` record of exactly
/// the rows routed to it — the record a load split into per-shard MOs
/// wrote — though it encodes the chunks it appended. At 654 k facts over
/// two shards each record's 65 536-row segments span dozens of chunks.
#[test]
fn a_routed_load_logs_the_bulk_load_record_of_its_rows() {
    for (shards, clicks_per_day) in [(2usize, 900), (4, 40)] {
        let cs = generate(&ClickstreamConfig {
            clicks_per_day,
            start: (1999, 1, 1),
            end: (2000, 12, 31),
            ..Default::default()
        });
        let mo = &cs.mo;
        let fs = MemFs::shared();
        let dir = Path::new("/w");
        let spec = DataReductionSpec::empty(Arc::clone(&cs.schema));
        let store = Arc::clone(&fs) as Arc<dyn Fs>;
        let router = ShardRouter::create_with_fs(spec, dir, shards, store).unwrap();
        router.bulk_load(mo).unwrap();
        let mut rows = vec![Vec::new(); shards];
        for f in mo.facts() {
            rows[router.route(&mo.coords(f))].push(f.0);
        }
        let set = router.view_set();
        for (i, rows) in rows.iter().enumerate() {
            assert!(!rows.is_empty(), "N={shards}: shard {i} got no rows");
            assert_eq!(set.views()[i].len(), rows.len(), "N={shards} shard {i}");
            let wal = scan_wal(fs.as_ref(), &WarehouseLayout::at(dir).shard(i).wal(0)).unwrap();
            let want = WarehouseOp::BulkLoad(mo.gather(rows));
            assert!(
                wal.records == [want.encode(&cs.schema).unwrap()],
                "N={shards}: shard {i}'s record is not its rows' BulkLoad record"
            );
        }
        if shards == 2 {
            assert!(mo.len() > 650_000, "{} facts", mo.len());
        }
    }
}

/// Routing is deterministic and total: every fact of a loaded MO lands
/// on the shard `route` names, and a reopened router (fresh process)
/// routes identically.
#[test]
fn routing_is_deterministic_across_reopen() {
    let dir = tdir("route");
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 7, 10);
    let router = ShardRouter::create(paper_spec(), &dir, 4).unwrap();
    for op in &script {
        apply_router(&router, op).unwrap();
    }
    let set = router.view_set();
    for (i, view) in set.views().iter().enumerate() {
        let mo = view.to_mo().unwrap();
        for f in mo.facts() {
            assert_eq!(
                router.route(&mo.coords(f)),
                i,
                "fact stored on shard {i} does not route there"
            );
        }
    }
    let want = router_digests(&router);
    drop(router);
    let reopened = ShardRouter::open(paper_spec(), &dir, 4).unwrap();
    assert_eq!(router_digests(&reopened), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// The wedged-router contract (`specdr check shard` proves the model;
/// this drives the real filesystem): once a scatter fails after any
/// shard acknowledged, every mutator is refused with the wedge error
/// verbatim, queries keep serving the last published epoch, and
/// `ShardRouter::recover` restores service on the pre-failure state.
#[test]
fn failed_scatter_wedges_every_mutator_until_recover() {
    const WEDGE: &str = "storage: warehouse wedged by a failed write; \
                         drop it and ShardRouter::recover the directory";
    let (mo, _) = specdr::workload::paper_mo();
    let base = mo.gather(&[0, 1, 2, 3]);
    let doomed = mo.gather(&[4, 5, 6]);
    let day = days_from_civil(2000, 11, 5);

    // Sweep the fault injection point forward until it lands inside the
    // second scatter's WAL appends (earlier ops fail during create or
    // the baseline load, which are uniform failures and must not wedge).
    let mut wedged_cases = 0;
    for k in 0..80u64 {
        let dir = tdir(&format!("wedge-{k}"));
        let shim = FailpointFs::new(RealFs::shared(), 0xA11CE ^ k, k, FaultMode::FailWrite);
        let fs = Arc::clone(&shim) as Arc<dyn Fs>;
        let Ok(router) = ShardRouter::create_with_fs(paper_spec(), &dir, 2, fs) else {
            continue;
        };
        if router.bulk_load(&base).is_err() {
            continue;
        }
        let reference = router_digests(&router);
        let epoch0 = router.view_set().epoch();
        let Err(e) = router.bulk_load(&doomed) else {
            // The fault lies beyond this scenario's op count; later ks
            // only move it further out, so the sweep is done.
            std::fs::remove_dir_all(&dir).ok();
            break;
        };
        let msg = e.to_string();
        if !msg.contains("recovery required") {
            continue;
        }
        wedged_cases += 1;
        let at = shim.fired().expect("the fault fired");

        // Every mutator returns the wedge error verbatim.
        let a1 = parse_action(router.schema(), ACTION_A1).unwrap();
        for (what, err) in [
            ("bulk_load", router.bulk_load(&doomed).unwrap_err()),
            ("sync", router.sync(day).unwrap_err()),
            ("age", router.age(day).unwrap_err()),
            ("spec_insert", router.spec_insert(vec![a1]).err().unwrap()),
            (
                "spec_delete",
                router
                    .spec_delete(&[specdr::spec::ActionId(1)], day)
                    .unwrap_err(),
            ),
        ] {
            assert_eq!(
                err.to_string(),
                WEDGE,
                "k={k} ({at}): `{what}` missed the wedge guard"
            );
        }

        // Readers are still served the last published state, unchanged.
        assert_eq!(router.view_set().epoch(), epoch0, "k={k} ({at})");
        assert_eq!(router_digests(&router), reference, "k={k} ({at})");

        // Recovery on the healthy filesystem lands on the pre-failure
        // state (the half-scattered record was never acknowledged) and
        // restores write service.
        drop(router);
        let (recovered, _report) = ShardRouter::recover(paper_spec(), &dir)
            .unwrap_or_else(|e| panic!("k={k} ({at}): recovery failed: {e}"));
        assert_eq!(router_digests(&recovered), reference, "k={k} ({at})");
        recovered.bulk_load(&doomed).unwrap();
        recovered.sync(day).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        wedged_cases >= 1,
        "the fault sweep never produced a wedged router"
    );
}

/// A load over another schema is refused before any shard is touched,
/// at one shard and at two alike, and an empty one too (it cuts to no
/// chunks, so no chunk could refuse it): nothing is published, logged or
/// wedged, and recovery finds only the accepted load.
#[test]
fn a_load_over_another_schema_is_refused_at_every_shard_count() {
    use specdr::mdm::{MdmError, Mo, Schema};
    use specdr::reduce::ReduceError;
    let (paper, _) = specdr::workload::paper_mo();
    let s = paper.schema();
    let other = Schema::new("Visit", s.dims.clone(), s.measures.clone()).unwrap();
    let mut foreign = Mo::new(Arc::clone(&other));
    for f in paper.facts() {
        foreign
            .insert_fact(&paper.coords(f), &paper.measures_of(f))
            .unwrap();
    }
    let dir = Path::new("/w");
    for shards in [1usize, 2] {
        let mem = MemFs::shared();
        let shim = FailpointFs::counting(Arc::clone(&mem) as Arc<dyn Fs>);
        let fs = Arc::clone(&shim) as Arc<dyn Fs>;
        let router = ShardRouter::create_with_fs(paper_spec(), dir, shards, fs).unwrap();
        router.bulk_load(&paper).unwrap();
        let (ops, epoch, want) = (
            shim.ops(),
            router.view_set().epoch(),
            router_digests(&router),
        );
        for load in [Mo::new(Arc::clone(&other)), foreign.clone()] {
            let what = format!("shards={shards}, {} facts", load.len());
            let op = WarehouseOp::BulkLoad(load.clone());
            for err in [
                router.bulk_load(&load).unwrap_err(),
                router.apply(&op).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        SubcubeError::Reduce(ReduceError::Model(MdmError::SchemaMismatch(_)))
                    ),
                    "{what}: {err:?}"
                );
            }
            assert_eq!(shim.ops(), ops, "{what}: the refused load was logged");
            assert_eq!(router.view_set().epoch(), epoch, "{what}");
            assert!(!router.is_broken(), "{what}: a refusal wedges nothing");
        }
        drop(router);
        let (rec, report) = ShardRouter::recover_with_fs(paper_spec(), dir, mem).unwrap();
        assert_eq!(report.ops_durable, 1, "shards={shards}");
        assert_eq!(router_digests(&rec), want, "shards={shards}");
    }
}

/// The shard roots of a warehouse directory: the root itself for one
/// shard, `shard-NNN` below it otherwise.
fn shard_roots(dir: &Path, shards: usize) -> Vec<PathBuf> {
    if shards == 1 {
        return vec![dir.to_path_buf()];
    }
    let layout = WarehouseLayout::at(dir);
    (0..shards)
        .map(|i| layout.shard(i).root().to_path_buf())
        .collect()
}

/// Concurrent recovery lands exactly where recovering the shards one
/// after another does. Each shard directory is a complete one-shard
/// layout, so the sequential reference recovers a copy of every shard as
/// its own warehouse, in shard order, on this thread; the shards' report
/// parts must sum to the router's, and every shard's contents, its
/// `ops_durable` and the `last_sync` must agree. Every WAL carries a torn
/// tail, so `dropped_bytes` is exercised; a checkpoint before the tail
/// makes `stats_verified` count real cubes.
#[test]
fn concurrent_recovery_equals_shard_by_shard_recovery() {
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 11, 14);
    for shards in 1..=4usize {
        let dir = tdir(&format!("concurrent-{shards}"));
        let router = ShardRouter::create(paper_spec(), &dir, shards).unwrap();
        let (head, tail) = script.split_at(script.len() / 2);
        for op in head {
            apply_router(&router, op).unwrap();
        }
        router.checkpoint().unwrap();
        for op in tail {
            apply_router(&router, op).unwrap();
        }
        let want = router_digests(&router);
        let epoch = router.epoch();
        drop(router);
        for root in shard_roots(&dir, shards) {
            let wal = WarehouseLayout::at(&root).wal(epoch);
            let mut bytes = std::fs::read(&wal).unwrap();
            bytes.extend_from_slice(&[0x5a; 7]);
            std::fs::write(&wal, &bytes).unwrap();
        }
        let seq = tdir(&format!("concurrent-{shards}-seq"));
        copy_dir(&dir, &seq);

        let (rec, report) = ShardRouter::recover(paper_spec(), &dir).unwrap();
        let mut parts = Vec::new();
        for (i, root) in shard_roots(&seq, shards).iter().enumerate() {
            let (one, part) = ShardRouter::recover(paper_spec(), root).unwrap();
            let got = rec.view_set().views()[i].to_mo().unwrap();
            let alone = one.view_set().to_mo().unwrap();
            assert_eq!(
                canonical_digest(&got),
                canonical_digest(&alone),
                "N={shards}: shard {i} recovered differently"
            );
            parts.push(part);
        }
        let sum = |f: fn(&specdr::subcube::RecoveryReport) -> usize| parts.iter().map(f).sum();
        assert_eq!(report.shards, shards);
        assert_eq!(report.replayed, sum(|p| p.replayed), "N={shards}");
        assert_eq!(report.dropped_bytes, sum(|p| p.dropped_bytes), "N={shards}");
        assert_eq!(report.dropped_bytes, 7 * shards, "N={shards}");
        assert_eq!(
            report.stats_verified,
            sum(|p| p.stats_verified),
            "N={shards}"
        );
        assert!(report.stats_verified > shards, "N={shards}");
        for p in &parts {
            assert_eq!(p.ops_durable, report.ops_durable, "N={shards}");
            assert_eq!(p.last_sync, report.last_sync, "N={shards}");
        }
        assert_eq!(rec.last_sync(), report.last_sync);
        assert_eq!(router_digests(&rec), want, "N={shards}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&seq).ok();
    }
}

/// With shards 1 and 3 of 4 corrupt, recovery fails every time, and
/// always with shard 1's error — the first failure in shard order, as
/// when the shards recovered one after another — however the concurrent
/// recoveries happen to finish.
#[test]
fn concurrent_recovery_reports_the_first_corrupt_shard() {
    let dir = tdir("corrupt-1-3");
    let schema = Arc::clone(paper_spec().schema());
    let router = ShardRouter::create(paper_spec(), &dir, 4).unwrap();
    for op in &churn_script(&schema, 2, 8) {
        apply_router(&router, op).unwrap();
    }
    router.checkpoint().unwrap();
    let epoch = router.epoch();
    drop(router);
    let layout = WarehouseLayout::at(&dir);
    for victim in [1, 3] {
        let manifest = layout.shard(victim).manifest(epoch);
        let mut bytes = std::fs::read(&manifest).unwrap();
        bytes[20] ^= 0x10;
        std::fs::write(&manifest, &bytes).unwrap();
    }
    let shard1 = layout.shard(1).root().display().to_string();
    let shard3 = layout.shard(3).root().display().to_string();
    for attempt in 0..20 {
        let Err(e) = ShardRouter::recover(paper_spec(), &dir) else {
            panic!("attempt {attempt}: recovered a corrupt warehouse");
        };
        let msg = e.to_string();
        assert!(
            msg.contains(&shard1) && !msg.contains(&shard3),
            "attempt {attempt}: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery reuses the caller's spec only when the checkpoint's is the
/// same: a caller spec that renders differently (the checkpoint holds a
/// journaled insert) and one with another insert counter (an action
/// inserted and deleted again renders as before) both yield the
/// checkpoint's spec — its ids, its counter and its fingerprint.
#[test]
fn recovery_rebuilds_an_evolved_spec_from_the_manifest() {
    use specdr::subcube::persist::{spec_fingerprint, spec_from_manifest};
    use specdr::workload::CHURN_ACTION;
    let schema = Arc::clone(paper_spec().schema());
    let churn = parse_action(&schema, CHURN_ACTION).unwrap();
    for delete_again in [false, true] {
        let dir = tdir(&format!("spec-evolved-{delete_again}"));
        let router = ShardRouter::create(paper_spec(), &dir, 2).unwrap();
        let ids = router.spec_insert(vec![churn.clone()]).unwrap();
        if delete_again {
            router
                .spec_delete(&ids, days_from_civil(2000, 1, 1))
                .unwrap();
        }
        router.checkpoint().unwrap();
        drop(router);
        let manifest =
            specdr::subcube::read_manifest(WarehouseLayout::at(&dir).shard(0).root()).unwrap();
        let caller = paper_spec();
        assert_eq!(
            (manifest.spec_text == caller.render()),
            delete_again,
            "the insert shows in the rendered spec until it is deleted"
        );
        assert_ne!(manifest.next_action_id, caller.next_action_id());

        let (rec, _) = ShardRouter::recover(caller, &dir).unwrap();
        let spec = rec.spec();
        let ids = |s: &DataReductionSpec| s.actions().iter().map(|(id, _)| *id).collect::<Vec<_>>();
        assert_eq!(
            ids(&spec),
            ids(&spec_from_manifest(&schema, &manifest).unwrap())
        );
        assert_eq!(spec.next_action_id(), manifest.next_action_id);
        assert_eq!(spec_fingerprint(&spec), manifest.spec_hash);
        // The next insert allocates the id the original run would have.
        let next = rec.spec_insert(vec![churn.clone()]).unwrap();
        assert_eq!(next, vec![specdr::spec::ActionId(manifest.next_action_id)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
