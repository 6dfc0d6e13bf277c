//! Differential tests for the cost-based subcube planner: across random
//! datasets, sync/query days, predicates, and select modes, the planned
//! evaluation must equal the naive full fan-out bit-for-bit, and every
//! cube the planner skips must contribute zero rows when its sub-query
//! is evaluated anyway.
//!
//! `scripts/ci.sh` additionally runs this file with `SDR_PLAN_VERIFY=1`,
//! which makes the engine itself re-evaluate each skipped cube inside
//! `query_planned` and panic if one contributes a row — so the same
//! matrix exercises both the external and the in-engine check.
//!
//! The un-synchronized path is planned too — `query_unsync(q, now)` is
//! `query(q, now)` on the view virtually aged to `now` — so its
//! differential test lives here, over the same predicate and mode pool
//! and under the same `SDR_PLAN_VERIFY` run.

use proptest::prelude::*;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat, DimValue, Mo, TimeValue};
use specdr::query::{aggregate_ids_naive, select_snapshot, AggApproach, SelectMode};
use specdr::reduce::DataReductionSpec;
use specdr::spec::{parse_action, parse_pexp};
use specdr::storage::MemFs;
use specdr::subcube::{CubeQuery, ShardRouter, SubcubeError, SubcubeManager, WarehouseOp};
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
        let m = SubcubeManager::new(spec);
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

        let view = m.view();
        let oracle = view.region_oracle();
        prop_assert!(oracle.is_some(), "synced warehouse must yield an oracle");

        let planned = view.query_planned(&q, now, parallel, oracle).unwrap();
        let naive = view.query_naive(&q, now, parallel).unwrap();
        prop_assert_eq!(
            sorted_rows(&planned),
            sorted_rows(&naive),
            "pred={} mode={:?}",
            PREDS[pred_ix],
            MODES[mode_ix]
        );

        let plan = view.plan(&q, now, oracle);
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
    let m = SubcubeManager::new(spec);
    m.bulk_load(&mo).unwrap();
    let now = days_from_civil(2000, 11, 5);
    m.sync(now).unwrap();
    let view = m.view();
    let oracle = view.region_oracle();
    let (_, domain) = m.schema().resolve_cat("URL.domain").unwrap();

    // Impossible time window: everything is skipped, the answer is empty.
    let impossible = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "Time.month < 1999/1").unwrap()),
        mode: SelectMode::Conservative,
        levels: vec![time_cat::QUARTER, domain],
        approach: AggApproach::Availability,
    };
    let plan = view.plan(&impossible, now, oracle);
    assert_eq!(plan.n_skipped(), view.cubes().len(), "{plan:?}");
    assert_eq!(
        view.query_planned(&impossible, now, false, oracle)
            .unwrap()
            .len(),
        0
    );

    // Selective predicate: at least one cube pruned, answer unchanged,
    // and the scan order visits cheapest cubes first.
    let selective = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "Time.quarter >= 2000Q1").unwrap()),
        ..impossible.clone()
    };
    let plan = view.plan(&selective, now, oracle);
    assert!(plan.n_skipped() >= 1, "{plan:?}");
    assert!(!plan.order.is_empty(), "{plan:?}");
    for w in plan.order.windows(2) {
        assert!(
            plan.cubes[w[0]].rows <= plan.cubes[w[1]].rows,
            "scan order must be cheapest-first: {plan:?}"
        );
    }
    let planned = view.query_planned(&selective, now, false, oracle).unwrap();
    let naive = view.query_naive(&selective, now, false).unwrap();
    assert_eq!(sorted_rows(&planned), sorted_rows(&naive));
    assert_skips_contribute_nothing(&view, &plan, &selective, now);
}

/// A warehouse under test: the plain manager or an N-shard router (on an
/// in-memory filesystem) — the two surfaces `query_unsync` is served
/// from.
enum Target {
    Mgr(SubcubeManager),
    Router(ShardRouter),
}

impl Target {
    fn new(spec: &DataReductionSpec, shards: usize) -> Target {
        match shards {
            0 => Target::Mgr(SubcubeManager::new(spec.clone())),
            n => Target::Router(
                ShardRouter::create_with_fs(
                    spec.clone(),
                    std::path::Path::new("/w"),
                    n,
                    MemFs::shared(),
                )
                .unwrap(),
            ),
        }
    }

    fn apply(&self, op: &WarehouseOp) -> Result<(), SubcubeError> {
        match self {
            Target::Mgr(m) => m.apply(op).map(|_| ()),
            Target::Router(r) => r.apply(op).map(|_| ()),
        }
    }

    /// The current epoch and, per shard, the pinned view.
    fn pinned(&self) -> (u64, Vec<specdr::subcube::WarehouseView>) {
        match self {
            Target::Mgr(m) => (m.epoch(), vec![m.view()]),
            Target::Router(r) => {
                let set = r.view_set();
                (set.epoch(), set.views().to_vec())
            }
        }
    }

    fn query(&self, q: &CubeQuery, now: i32, parallel: bool, unsync: bool) -> Mo {
        match (self, unsync) {
            (Target::Mgr(m), false) => m.query(q, now, parallel),
            (Target::Mgr(m), true) => m.query_unsync(q, now, parallel),
            (Target::Router(r), false) => r.view_set().query(q, now, parallel),
            (Target::Router(r), true) => r.view_set().query_unsync(q, now, parallel),
        }
        .unwrap()
    }
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
    /// on a twin warehouse brought to `sync(now)` — unsharded and on 1
    /// and 2 shards, sequential and parallel. And it is *virtual*:
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
        shards in 0usize..3,
    ) {
        let mo = mo_from_rows(&rows);
        let schema = Arc::clone(mo.schema());
        // The quarter tier alone is sound; the month tier is what the
        // specification changes insert and delete beside it.
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a2]).unwrap();
        let (target, twin) = (Target::new(&spec, shards), Target::new(&spec, shards));
        let both = |op: WarehouseOp| -> bool {
            let (a, b) = (target.apply(&op), twin.apply(&op));
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

        let (epoch, pinned) = target.pinned();
        let vectors: Vec<_> = pinned.iter().map(|v| (v.epoch(), v.version_vector())).collect();
        let first = target.query(&q, now, parallel, true);
        twin.apply(&WarehouseOp::Sync(now)).unwrap();
        let want = twin.query(&q, now, parallel, false);
        prop_assert_eq!(sorted_rows(&first), sorted_rows(&want), "{}", ctx);

        // Virtual: nothing published, nothing moved under the pinned views.
        let (epoch_after, _) = target.pinned();
        prop_assert_eq!(epoch_after, epoch, "{}", ctx);
        for (v, (e, vv)) in pinned.iter().zip(&vectors) {
            prop_assert_eq!((v.epoch(), v.version_vector()), (*e, vv.clone()), "{}", ctx);
            // Memoized on the pinned version: asking again is a hit, and
            // what it holds is a well-formed version at `now`.
            let (aged, hit) = v.virtual_age(now).unwrap();
            prop_assert!(hit, "second virtual aging missed the memo: {}", ctx);
            aged.verify_stats().unwrap();
            prop_assert!(!aged.is_dirty());
        }
        let second = target.query(&q, now, parallel, true);
        prop_assert_eq!(rows_in_order(&second), rows_in_order(&first), "{}", ctx);

        // The next publish starts over: a fresh view has an empty memo.
        let held_back = WarehouseOp::BulkLoad(mo.gather(&[mo.len() as u32 - 1]));
        both(held_back);
        for v in target.pinned().1 {
            // Only a view that needs no aging (the shard whose partition
            // of the load was empty, at or past `now`) may answer "hit".
            let current = !v.is_dirty() && v.last_sync().is_some_and(|last| now <= last);
            let (_, hit) = v.virtual_age(now).unwrap();
            prop_assert_eq!(hit, current, "fresh view and the memo: {}", ctx);
        }
        twin.apply(&WarehouseOp::Sync(now)).unwrap();
        let after = target.query(&q, now, parallel, true);
        let want = twin.query(&q, now, parallel, false);
        prop_assert_eq!(sorted_rows(&after), sorted_rows(&want), "after publish: {}", ctx);
    }
}
