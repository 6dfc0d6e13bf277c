//! Differential tests for the subcube planner: across random datasets,
//! sync/query days, predicates, and select modes, the planned evaluation
//! must equal the naive full fan-out bit-for-bit, and every cube or
//! chunk the planner skips must contribute zero rows when its sub-query
//! is evaluated anyway. The chunk verdict itself
//! ([`ScanAcc::may_keep`]) is checked on hand-made value sets.
//!
//! In a debug build the engine itself re-evaluates each skipped cube and
//! chunk inside `query` and panics if one contributes a row — so the
//! same matrix exercises both the external and the in-engine check.
//!
//! The un-synchronized path is planned too — `query_unsync(q, now)` is
//! `query(q, now)` on the view virtually aged to `now` — so its
//! differential test lives here, over the same predicate and mode pool
//! and under the same in-engine check.

use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat, DimId, DimValue, Mo, Schema, TimeValue};
use specdr::query::{
    aggregate_ids_naive, select_naive, select_snapshot, AggApproach, Scan, ScanAcc, SelectMode,
};
use specdr::reduce::DataReductionSpec;
use specdr::spec::{parse_action, parse_pexp};
use specdr::storage::MemFs;
use specdr::subcube::{CubeQuery, ShardRouter, WarehouseOp, WarehouseView};
use specdr::workload::{paper_mo, paper_schema, ACTION_A1, ACTION_A2};

/// Predicate pool spanning every atom family the planner reasons about:
/// time comparisons at day/month/quarter grain, NOW-relative windows,
/// IN sets and their negations, enum equality/inequality/IN at two
/// hierarchy levels, conjunction, disjunction, and the two constant
/// extremes (an impossible window and an unsatisfiable formula).
const PREDS: &[&str] = &[
    "Time.month <= 1999/6",
    "1999/6 < Time.month AND Time.month <= 2000/5",
    "Time.month < 1999/1",
    "Time.day >= 2001/1/1",
    "Time.quarter >= 2000Q1",
    "Time.quarter <= 1999Q1",
    "Time.month IN {1999/11, 1999/12}",
    "NOT (Time.month IN {1999/11, 1999/12})",
    "NOW - 6 months < Time.month",
    "URL.domain = cnn.com",
    "URL.domain != cnn.com",
    "URL.domain IN {gatech.edu, amazon.com}",
    "URL.domain_grp = .com",
    "URL.domain = cnn.com AND Time.month <= 1999/9",
    "URL.domain = cnn.com OR Time.quarter >= 2001Q1",
    "NOT (URL.domain_grp = .com) AND Time.month != 1999/12",
    "false",
];

const MODES: &[SelectMode] = &[
    SelectMode::Conservative,
    SelectMode::Liberal,
    SelectMode::Weighted { threshold: 0.0 },
    SelectMode::Weighted { threshold: 0.5 },
];

/// Builds a random paper-schema MO from generated (day-offset, url-index)
/// pairs, same shape as the `properties.rs` generator.
fn mo_from_rows(rows: &[(i32, u8)]) -> Mo {
    let (schema, cats) = paper_schema();
    let specdr::mdm::Dimension::Enum(e) = schema.dim(specdr::mdm::DimId(1)) else {
        unreachable!()
    };
    let urls: Vec<DimValue> = e.values(cats.url).collect();
    let mut mo = Mo::new(Arc::clone(&schema));
    for (i, &(doff, ui)) in rows.iter().enumerate() {
        let day = DimValue::new(
            time_cat::DAY,
            TimeValue::Day(days_from_civil(1999, 1, 1) + doff.rem_euclid(720)).code(),
        );
        let u = urls[ui as usize % urls.len()];
        mo.insert_fact(&[day, u], &[1, 10 + i as i64, 1 + (i as i64 % 7), 1000])
            .unwrap();
    }
    mo
}

fn paper_spec_for(mo: &Mo) -> DataReductionSpec {
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    DataReductionSpec::new(schema, vec![a1, a2]).unwrap()
}

fn sorted_rows(mo: &Mo) -> Vec<String> {
    let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    v.sort();
    v
}

/// The external half of the skip-soundness check: re-run every skipped
/// cube's sub-query (σ then naive α) and demand an empty result.
fn assert_skips_contribute_nothing(
    view: &specdr::subcube::WarehouseView,
    plan: &specdr::plan::QueryPlan,
    q: &CubeQuery,
    now: i32,
) {
    assert_eq!(plan.cubes.len(), view.cubes().len());
    assert_eq!(plan.order.len() + plan.n_skipped(), plan.cubes.len());
    for (i, cube) in view.cubes().iter().enumerate() {
        let Some(reason) = plan.skip_reason(i) else {
            continue;
        };
        let selected = select_snapshot(&cube.snapshot(), q.pred.as_ref(), now, q.mode).unwrap();
        let contributed = aggregate_ids_naive(&selected, &q.levels, q.approach).unwrap();
        assert_eq!(
            contributed.len(),
            0,
            "planner skipped K{i} ({}) but it contributes {} rows under {:?}",
            reason.label(),
            contributed.len(),
            q.mode,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Planned ≡ naive over random warehouses, and every pruned cube is
    /// provably silent. Covers all four select modes, both evaluation
    /// strategies, and the full predicate pool.
    #[test]
    fn planned_query_equals_naive_fanout(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 1..40),
        sync_off in 0i32..900,
        query_extra in 0i32..400,
        pred_ix in 0usize..PREDS.len(),
        mode_ix in 0usize..MODES.len(),
        level_quarter in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let mo = mo_from_rows(&rows);
        let spec = paper_spec_for(&mo);
        let m = ShardRouter::in_memory(spec).unwrap();
        m.bulk_load(&mo).unwrap();
        let t_sync = days_from_civil(2000, 1, 1) + sync_off;
        m.sync(t_sync).unwrap();
        let now = t_sync + query_extra;

        let (_, grp) = m.schema().resolve_cat("URL.domain_grp").unwrap();
        let (_, domain) = m.schema().resolve_cat("URL.domain").unwrap();
        let q = CubeQuery {
            pred: Some(parse_pexp(m.schema(), PREDS[pred_ix]).unwrap()),
            mode: MODES[mode_ix],
            levels: if level_quarter {
                vec![time_cat::QUARTER, domain]
            } else {
                vec![time_cat::MONTH, grp]
            },
            approach: AggApproach::Availability,
        };

        let view = shard(&m);
        let planned = view.query(&q, now, parallel).unwrap();
        let naive = view.query_naive(&q, now, parallel).unwrap();
        prop_assert_eq!(
            sorted_rows(&planned),
            sorted_rows(&naive),
            "pred={} mode={:?}",
            PREDS[pred_ix],
            MODES[mode_ix]
        );

        let plan = view.plan(&q, now);
        assert_skips_contribute_nothing(&view, &plan, &q, now);
    }
}

/// Vacuity guard for the property above: on the paper fixture the
/// planner must actually prune — an impossible window skips every cube,
/// and a selective enum predicate skips at least one cube while the
/// answer still matches the naive fan-out.
#[test]
fn planner_prunes_on_the_paper_fixture() {
    let (mo, _) = paper_mo();
    let spec = paper_spec_for(&mo);
    let m = ShardRouter::in_memory(spec).unwrap();
    m.bulk_load(&mo).unwrap();
    let now = days_from_civil(2000, 11, 5);
    m.sync(now).unwrap();
    let view = shard(&m);
    let (_, domain) = m.schema().resolve_cat("URL.domain").unwrap();

    // Impossible time window: everything is skipped, the answer is empty.
    let impossible = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "Time.month < 1999/1").unwrap()),
        mode: SelectMode::Conservative,
        levels: vec![time_cat::QUARTER, domain],
        approach: AggApproach::Availability,
    };
    let plan = view.plan(&impossible, now);
    assert_eq!(plan.n_skipped(), view.cubes().len(), "{plan:?}");
    assert_eq!(view.query(&impossible, now, false).unwrap().len(), 0);

    // Selective predicate: at least one cube pruned, answer unchanged,
    // and the scan order visits cheapest cubes first.
    let selective = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "Time.quarter >= 2000Q1").unwrap()),
        ..impossible.clone()
    };
    let plan = view.plan(&selective, now);
    assert!(plan.n_skipped() >= 1, "{plan:?}");
    assert!(!plan.order.is_empty(), "{plan:?}");
    for w in plan.order.windows(2) {
        assert!(
            plan.cubes[w[0]].rows <= plan.cubes[w[1]].rows,
            "scan order must be cheapest-first: {plan:?}"
        );
    }
    let planned = view.query(&selective, now, false).unwrap();
    let naive = view.query_naive(&selective, now, false).unwrap();
    assert_eq!(sorted_rows(&planned), sorted_rows(&naive));
    assert_skips_contribute_nothing(&view, &plan, &selective, now);
}

/// The one shard's published view.
fn shard(w: &ShardRouter) -> WarehouseView {
    w.view_set().views()[0].clone()
}

/// The published epoch and, per shard, the pinned view.
fn pinned(w: &ShardRouter) -> (u64, Vec<WarehouseView>) {
    let set = w.view_set();
    (set.epoch(), set.views().to_vec())
}

fn query(w: &ShardRouter, q: &CubeQuery, now: i32, parallel: bool, unsync: bool) -> Mo {
    let set = w.view_set();
    match unsync {
        false => set.query(q, now, parallel),
        true => set.query_unsync(q, now, parallel),
    }
    .unwrap()
}

fn rows_in_order(mo: &Mo) -> Vec<String> {
    mo.facts().map(|f| mo.render_fact(f)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The definition of the un-synchronized read: after any sequence of
    /// loads, agings, syncs and specification changes, and for `now`
    /// behind the watermark, on it, up to 400 days ahead of it, or with
    /// no watermark at all, `query_unsync(q, now)` equals `query(q, now)`
    /// on a twin warehouse brought to `sync(now)` — on 1 and 2 shards,
    /// sequential and parallel. And it is *virtual*:
    /// nothing the warehouse publishes moves, the second call is a memo
    /// hit returning the identical answer, the aged version's statistics
    /// verify, and a view pinned after the next publish computes afresh.
    #[test]
    fn unsync_query_equals_query_on_a_synced_twin(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 2..40),
        ops in proptest::collection::vec((0u8..8, 0i32..400), 0..8),
        now_kind in 0u8..3,
        ahead in 0i32..400,
        pred_ix in 0usize..PREDS.len(),
        mode_ix in 0usize..MODES.len(),
        level_quarter in any::<bool>(),
        parallel in any::<bool>(),
        shards in 1usize..3,
    ) {
        let mo = mo_from_rows(&rows);
        let schema = Arc::clone(mo.schema());
        // The quarter tier alone is sound; the month tier is what the
        // specification changes insert and delete beside it.
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a2]).unwrap();
        let router = || {
            ShardRouter::create_with_fs(spec.clone(), Path::new("/w"), shards, MemFs::shared())
                .unwrap()
        };
        let (target, twin) = (router(), router());
        let both = |op: WarehouseOp| -> bool {
            let (a, b) = (target.apply(&op).map(|_| ()), twin.apply(&op).map(|_| ()));
            assert_eq!(a.is_ok(), b.is_ok(), "twins diverge on {op:?}");
            assert!(
                a.is_ok() || matches!(op, WarehouseOp::SpecInsert(_) | WarehouseOp::SpecDelete(..)),
                "{op:?}: {a:?}"
            );
            a.is_ok()
        };

        // One row is held back for the publish at the end.
        let all: Vec<u32> = (0..mo.len() as u32 - 1).collect();
        let mut loaded = all.len().min(1 + rows.len() / 3);
        both(WarehouseOp::BulkLoad(mo.gather(&all[..loaded])));
        let mut clock = days_from_civil(2000, 1, 1);
        let mut watermark = None;
        let (mut next_id, mut month_id) = (1u32, None);
        for &(kind, mag) in &ops {
            match kind {
                0 | 1 => {
                    let upto = all.len().min(loaded + 1 + mag as usize % 12);
                    both(WarehouseOp::BulkLoad(mo.gather(&all[loaded..upto])));
                    loaded = upto;
                }
                2..=4 => {
                    clock += mag % 120;
                    both(if kind == 4 { WarehouseOp::Sync(clock) } else { WarehouseOp::Age(clock) });
                    watermark = Some(clock);
                }
                5 | 6 if month_id.is_none() => {
                    if both(WarehouseOp::SpecInsert(vec![a1.clone()])) {
                        month_id = Some(specdr::spec::ActionId(next_id));
                        next_id += 1;
                    }
                }
                _ => {
                    if let Some(id) = month_id {
                        if both(WarehouseOp::SpecDelete(vec![id], clock)) {
                            month_id = None;
                        }
                    }
                }
            }
        }
        let now = match (watermark, now_kind) {
            (None, _) => clock + ahead,
            (Some(last), 0) => last - 1 - ahead % 200,
            (Some(last), 1) => last,
            (Some(last), _) => last + ahead,
        };
        let (_, grp) = schema.resolve_cat("URL.domain_grp").unwrap();
        let (_, domain) = schema.resolve_cat("URL.domain").unwrap();
        let q = CubeQuery {
            pred: Some(parse_pexp(&schema, PREDS[pred_ix]).unwrap()),
            mode: MODES[mode_ix],
            levels: if level_quarter {
                vec![time_cat::QUARTER, domain]
            } else {
                vec![time_cat::MONTH, grp]
            },
            approach: AggApproach::Availability,
        };
        let ctx = format!(
            "ops={ops:?} watermark={watermark:?} now={now} pred={} mode={:?} shards={shards}",
            PREDS[pred_ix], MODES[mode_ix]
        );

        let (epoch, pinned_views) = pinned(&target);
        let vectors: Vec<_> = pinned_views.iter().map(|v| (v.epoch(), v.version_vector())).collect();
        let first = query(&target, &q, now, parallel, true);
        twin.apply(&WarehouseOp::Sync(now)).unwrap();
        let want = query(&twin, &q, now, parallel, false);
        prop_assert_eq!(sorted_rows(&first), sorted_rows(&want), "{}", ctx);

        // Virtual: nothing published, nothing moved under the pinned views.
        let (epoch_after, _) = pinned(&target);
        prop_assert_eq!(epoch_after, epoch, "{}", ctx);
        for (v, (e, vv)) in pinned_views.iter().zip(&vectors) {
            prop_assert_eq!((v.epoch(), v.version_vector()), (*e, vv.clone()), "{}", ctx);
            // Memoized on the pinned version: asking again is a hit, and
            // what it holds is a well-formed version at `now`.
            let (aged, hit) = v.virtual_age(now).unwrap();
            prop_assert!(hit, "second virtual aging missed the memo: {}", ctx);
            aged.verify_stats().unwrap();
            prop_assert!(!aged.is_dirty());
        }
        let second = query(&target, &q, now, parallel, true);
        prop_assert_eq!(rows_in_order(&second), rows_in_order(&first), "{}", ctx);

        // The next publish starts over: a fresh view has an empty memo.
        let held_back = WarehouseOp::BulkLoad(mo.gather(&[mo.len() as u32 - 1]));
        both(held_back);
        for v in pinned(&target).1 {
            // Only a view that needs no aging (the shard whose partition
            // of the load was empty, at or past `now`) may answer "hit".
            let current = !v.is_dirty() && v.last_sync().is_some_and(|last| now <= last);
            let (_, hit) = v.virtual_age(now).unwrap();
            prop_assert_eq!(hit, current, "fresh view and the memo: {}", ctx);
        }
        twin.apply(&WarehouseOp::Sync(now)).unwrap();
        let after = query(&target, &q, now, parallel, true);
        let want = query(&twin, &q, now, parallel, false);
        prop_assert_eq!(sorted_rows(&after), sorted_rows(&want), "after publish: {}", ctx);
    }
}

/// The chunk verdict of `q` at `now` on the per-dimension value sets
/// `values`, from a fresh accumulator of the query's own scan.
fn verdict(schema: &Arc<Schema>, q: &CubeQuery, now: i32, values: &[Vec<(u8, u64)>]) -> bool {
    let p = q.pred.as_ref();
    let scan = Scan::compile(schema, p, now, q.mode, &q.levels, q.approach).unwrap();
    let mut acc: ScanAcc<'_> = scan.start();
    acc.may_keep(values).unwrap()
}

/// Chunk skipping, differentially: a warehouse loaded day by day whose
/// bottom cube spans several chunks, so scanned cubes have chunks the
/// chunk verdict rules out. Over the whole predicate pool, every select
/// mode and all four approaches, the planned answer equals the
/// unplanned fan-out (which scans every chunk) and the naive operators
/// over the warehouse's logical MO; the plan carries the verdict of
/// every chunk, recomputed from the chunk's distinct values; every chunk
/// it skips keeps no row under the naive selection; and some chunk of a
/// scanned cube *is* skipped, so the comparison is not vacuous.
#[test]
fn chunk_skipping_matches_naive_across_approaches() {
    let (schema, cats) = paper_schema();
    let specdr::mdm::Dimension::Enum(e) = schema.dim(specdr::mdm::DimId(1)) else {
        unreachable!()
    };
    let urls: Vec<DimValue> = e.values(cats.url).collect();
    let spec = paper_spec_for(&Mo::new(Arc::clone(&schema)));
    let m = ShardRouter::in_memory(spec).unwrap();
    // 420 days from 1999/1/1 at 12 clicks a day, aged every 30 days: the
    // last days stay un-homed, one chunk each, after the homed chunks.
    let first = days_from_civil(1999, 1, 1);
    for d in 0..420 {
        let mut day = Mo::new(Arc::clone(&schema));
        let v = DimValue::new(time_cat::DAY, TimeValue::Day(first + d).code());
        for i in 0..12i64 {
            let u = urls[(d as usize * 7 + i as usize) % urls.len()];
            day.insert_fact(&[v, u], &[1, 10 + i, 1 + i % 7, 1000])
                .unwrap();
        }
        m.bulk_load(&day).unwrap();
        if d % 30 == 29 && d < 400 {
            m.age(first + d).unwrap();
        }
    }
    let now = first + 420;
    let view = shard(&m);
    assert!(
        view.cubes()[0].chunks().len() >= 3,
        "bottom cube in {} chunks",
        view.cubes()[0].chunks().len()
    );
    let logical = view.to_mo().unwrap();
    let (_, grp) = schema.resolve_cat("URL.domain_grp").unwrap();
    let levels = vec![time_cat::MONTH, grp];
    let approaches = [
        AggApproach::Availability,
        AggApproach::Strict,
        AggApproach::Lub,
        AggApproach::Disaggregated,
    ];
    let mut chunks_skipped = 0;
    for pred in PREDS {
        let p = parse_pexp(&schema, pred).unwrap();
        for &mode in MODES {
            let selected = select_naive(&logical, &p, now, mode).unwrap();
            let plan_q = CubeQuery {
                pred: Some(p.clone()),
                mode,
                levels: levels.clone(),
                approach: AggApproach::Availability,
            };
            let plan = view.plan(&plan_q, now);
            for (i, cube) in view.cubes().iter().enumerate() {
                for (c, chunk) in cube.chunks().iter().enumerate() {
                    let keep = verdict(&schema, &plan_q, now, chunk.summary().distinct());
                    assert_eq!(
                        plan.cubes[i].chunks[c], keep,
                        "K{i} chunk {c}: {pred} {mode:?}"
                    );
                    if !keep {
                        chunks_skipped += u32::from(plan.scans(i));
                        let kept = select_naive(chunk.mo(), &p, now, mode).unwrap();
                        assert!(kept.is_empty(), "skipped chunk keeps rows: {pred} {mode:?}");
                    }
                }
            }
            for approach in approaches {
                let q = CubeQuery {
                    approach,
                    ..plan_q.clone()
                };
                let want = aggregate_ids_naive(&selected, &levels, approach).unwrap();
                let ctx = format!("pred={pred} mode={mode:?} approach={approach:?}");
                let planned = view.query(&q, now, true).unwrap();
                let naive = view.query_naive(&q, now, false).unwrap();
                assert_eq!(rows_in_order(&planned), rows_in_order(&want), "{ctx}");
                assert_eq!(rows_in_order(&naive), rows_in_order(&want), "{ctx}");
            }
        }
    }
    assert!(chunks_skipped > 0, "no chunk was ever skipped");
}

/// Per dimension, a set of `(category, code)` values.
type ValueSets = Vec<Vec<(u8, u64)>>;

/// One click of a test chunk: `((year, month, day), url)`.
type Click<'a> = ((i32, u32, u32), &'a str);

/// The chunk verdict on hand-made per-dimension value sets of the paper
/// schema: a time window, a coarse time atom over days, a coarse value
/// under a finer atom, enum `=`/`IN` and their negations, a conjunction
/// over the product of two sets, a disjunction, `false` and an empty
/// set. Every mode but weighted `0` prunes; weighted `0` keeps
/// everything.
#[test]
fn chunk_verdict_judges_the_product_of_value_sets() {
    let (schema, cats) = paper_schema();
    let now = days_from_civil(2000, 4, 5);
    let day = |y, m, d| (0u8, TimeValue::Day(days_from_civil(y, m, d)).code());
    let time = |cat, s: &str| {
        let v = schema.dim(DimId(0)).parse_value(cat, s).unwrap();
        (v.cat.0, v.code)
    };
    let url = |s: &str| {
        let v = schema.dim(DimId(1)).parse_value(cats.url, s).unwrap();
        (v.cat.0, v.code)
    };
    let gatech = url("http://www.cc.gatech.edu/");
    let cnn = url("http://www.cnn.com/");
    let health = url("http://www.cnn.com/health");
    let amazon = url("http://www.amazon.com/exec/...");
    let urls = vec![gatech, cnn, health, amazon];
    let h1999 = vec![day(1999, 1, 1), day(1999, 6, 30)];
    let h2000 = vec![day(2000, 1, 1), day(2000, 6, 30)];
    let pruning = [
        SelectMode::Conservative,
        SelectMode::Liberal,
        SelectMode::Weighted { threshold: 0.5 },
    ];
    let judge = |pred: &str, mode, values: &[Vec<(u8, u64)>]| {
        let q = CubeQuery {
            pred: Some(parse_pexp(&schema, pred).unwrap()),
            mode,
            levels: schema.bottom_granularity().0,
            approach: AggApproach::Availability,
        };
        verdict(&schema, &q, now, values)
    };
    // (predicate, value sets, whether some cell may be kept), under
    // every pruning mode.
    let cases: Vec<(&str, ValueSets, bool)> = vec![
        (
            "Time.day <= 1999/12/31",
            vec![h1999.clone(), urls.clone()],
            true,
        ),
        (
            "Time.day <= 1999/12/31",
            vec![h2000.clone(), urls.clone()],
            false,
        ),
        (
            "Time.month IN {1999/11, 1999/12}",
            vec![vec![day(1999, 11, 2), day(1999, 11, 20)], urls.clone()],
            true,
        ),
        (
            "Time.month IN {1999/11, 1999/12}",
            vec![vec![day(2000, 1, 1), day(2000, 1, 31)], urls.clone()],
            false,
        ),
        (
            "URL.domain = cnn.com",
            vec![h1999.clone(), vec![gatech]],
            false,
        ),
        (
            "URL.domain = cnn.com",
            vec![h1999.clone(), vec![amazon]],
            false,
        ),
        // A hull over these ids would straddle cnn.com's.
        (
            "URL.domain = cnn.com",
            vec![h1999.clone(), vec![gatech, amazon]],
            false,
        ),
        (
            "URL.domain = cnn.com",
            vec![h1999.clone(), vec![cnn, amazon]],
            true,
        ),
        (
            "URL.domain_grp = .com",
            vec![h1999.clone(), vec![gatech]],
            false,
        ),
        (
            "URL.domain_grp = .com",
            vec![h1999.clone(), vec![amazon]],
            true,
        ),
        (
            "NOT (URL.domain_grp = .com)",
            vec![h1999.clone(), vec![gatech]],
            true,
        ),
        (
            "NOT (URL.domain_grp = .com)",
            vec![h1999.clone(), vec![amazon]],
            false,
        ),
        (
            "URL.domain IN {gatech.edu, amazon.com}",
            vec![h1999.clone(), vec![gatech]],
            true,
        ),
        (
            "URL.domain IN {gatech.edu, amazon.com}",
            vec![h1999.clone(), vec![cnn, health]],
            false,
        ),
        (
            "NOT (URL.domain IN {gatech.edu, amazon.com})",
            vec![h1999.clone(), vec![gatech, amazon]],
            false,
        ),
        (
            "NOT (URL.domain IN {gatech.edu, amazon.com})",
            vec![h1999.clone(), vec![amazon, health]],
            true,
        ),
        // The product holds (1999, cnn) although no set alone decides.
        (
            "URL.domain = cnn.com AND Time.day <= 1999/12/31",
            vec![vec![day(1999, 3, 1), day(2000, 3, 1)], vec![gatech, cnn]],
            true,
        ),
        (
            "URL.domain = amazon.com OR Time.day <= 1999/12/31",
            vec![h1999.clone(), vec![gatech, cnn]],
            true,
        ),
        (
            "URL.domain = amazon.com OR Time.day <= 1999/12/31",
            vec![h2000.clone(), vec![gatech, cnn]],
            false,
        ),
        ("false", vec![h1999.clone(), urls.clone()], false),
        ("Time.day <= 1999/12/31", vec![h1999.clone(), vec![]], false),
    ];
    for (pred, values, want) in &cases {
        for mode in pruning {
            assert_eq!(
                judge(pred, mode, values),
                *want,
                "{pred} {mode:?} {values:?}"
            );
        }
        // Weighted 0 keeps every fact, so it never prunes a value set.
        let w0 = SelectMode::Weighted { threshold: 0.0 };
        assert!(
            judge(pred, w0, values) || values.iter().any(Vec::is_empty),
            "{pred}"
        );
    }
    // A coarse value under a finer atom: 1999Q4 may hold a day of
    // 1999/11, but is not known to.
    let q4 = vec![time(time_cat::QUARTER, "1999Q4")];
    let nov = "Time.month = 1999/11";
    assert!(!judge(
        nov,
        SelectMode::Conservative,
        &[q4.clone(), urls.clone()]
    ));
    assert!(judge(nov, SelectMode::Liberal, &[q4.clone(), urls.clone()]));
    // Its weight is a third: below the threshold, but above 0, so the
    // weighted verdict keeps it and the scan decides.
    assert!(judge(
        nov,
        SelectMode::Weighted { threshold: 0.5 },
        &[q4, urls]
    ));
}

/// A warehouse of the paper schema without reduction actions, never
/// synchronized, whose bottom cube holds `chunks` in order: one click
/// per `((year, month, day), url)` pair.
fn chunked_warehouse(chunks: &[&[Click<'_>]]) -> ShardRouter {
    let (schema, cats) = paper_schema();
    let m = ShardRouter::in_memory(DataReductionSpec::empty(Arc::clone(&schema))).unwrap();
    for chunk in chunks {
        let mut mo = Mo::new(Arc::clone(&schema));
        for (i, &((y, mo_, d), u)) in chunk.iter().enumerate() {
            let day = DimValue::new(
                time_cat::DAY,
                TimeValue::Day(days_from_civil(y, mo_, d)).code(),
            );
            let url = schema.dim(DimId(1)).parse_value(cats.url, u).unwrap();
            mo.insert_fact(&[day, url], &[1, 10 + i as i64, 1, 1000])
                .unwrap();
        }
        m.bulk_load(&mo).unwrap();
    }
    m
}

/// The verdict skips what a hull could not: a chunk holding days d and
/// d+2 but not d+1, queried at d+1, and a chunk whose URL ids straddle
/// an `IN` member's without holding one. A cube both of whose chunks
/// fail is skipped whole. Above `LeafMaskPlan::MAX_LEAVES` leaves (a
/// 65-atom disjunction) every chunk is kept. Every answer equals the
/// unplanned fan-out and the naive operators, under every mode.
#[test]
fn the_verdict_skips_chunks_a_hull_cannot() {
    const GATECH: &str = "http://www.cc.gatech.edu/";
    const CNN: &str = "http://www.cnn.com/";
    const HEALTH: &str = "http://www.cnn.com/health";
    const AMAZON: &str = "http://www.amazon.com/exec/...";
    let m = chunked_warehouse(&[
        &[((1999, 3, 1), GATECH), ((1999, 3, 3), AMAZON)],
        &[((1999, 3, 2), CNN), ((1999, 3, 2), HEALTH)],
    ]);
    let view = shard(&m);
    let schema = Arc::clone(m.schema());
    assert_eq!(view.cubes()[0].chunks().len(), 2);
    let logical = view.to_mo().unwrap();
    let now = days_from_civil(2000, 1, 1);
    // 65 atoms: 64 days of 1999 no chunk holds, and 1999/3/2.
    let days = (1..=31).map(|d| (1, d)).chain((1..=28).map(|d| (2, d)));
    let days = days.chain((1..=5).map(|d| (4, d))).chain([(3, 2)]);
    let atoms: Vec<String> = days
        .map(|(mo, d)| format!("Time.day = 1999/{mo}/{d}"))
        .collect();
    assert_eq!(atoms.len(), 65);
    let wide = atoms.join(" OR ");
    // (predicate, the chunk verdicts of K0 when the mode prunes).
    let cases: [(&str, [bool; 2]); 5] = [
        ("Time.day = 1999/3/2", [false, true]),
        ("URL.domain IN {cnn.com}", [false, true]),
        (
            "NOT (URL.domain IN {gatech.edu, amazon.com})",
            [false, true],
        ),
        (
            "Time.day = 1999/3/2 AND URL.domain = gatech.edu",
            [false, false],
        ),
        (&wide, [true, true]),
    ];
    let (_, grp) = schema.resolve_cat("URL.domain_grp").unwrap();
    let levels = vec![time_cat::MONTH, grp];
    for (pred, pruned) in cases {
        let p = parse_pexp(&schema, pred).unwrap();
        for &mode in MODES {
            let q = CubeQuery {
                pred: Some(p.clone()),
                mode,
                levels: levels.clone(),
                approach: AggApproach::Availability,
            };
            let ctx = format!("{pred} {mode:?}");
            let prunes = mode != SelectMode::Weighted { threshold: 0.0 };
            let want = if prunes { pruned } else { [true, true] };
            let plan = view.plan(&q, now);
            assert_eq!(plan.cubes[0].chunks, want, "{ctx}");
            assert_eq!(plan.scans(0), want.contains(&true), "{ctx}");
            let selected = select_naive(&logical, &p, now, mode).unwrap();
            let naive = aggregate_ids_naive(&selected, &levels, AggApproach::Availability).unwrap();
            for parallel in [false, true] {
                let planned = view.query(&q, now, parallel).unwrap();
                let unplanned = view.query_naive(&q, now, parallel).unwrap();
                assert_eq!(rows_in_order(&planned), rows_in_order(&naive), "{ctx}");
                assert_eq!(rows_in_order(&unplanned), rows_in_order(&naive), "{ctx}");
            }
        }
    }
}
