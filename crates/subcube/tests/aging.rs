//! The reduction step on the paper's data, held against Definition 2
//! (`reduce_naive` over the raw facts) instead of against itself: every
//! way of reaching a day — `sync`, `age`, one call or many, published or
//! virtual — leaves the same cubes.

mod common;

use std::sync::Arc;

use sdr_mdm::calendar::days_from_civil;
use sdr_mdm::Mo;
use sdr_reduce::{reduce_naive, DataReductionSpec};
use sdr_spec::parse_action;
use sdr_subcube::{AgeStats, SubcubeError, SubcubeManager};
use sdr_workload::{paper_mo, snapshot_days, ACTION_A1, ACTION_A2};

use common::{assert_holds, placed};

fn paper_manager() -> (SubcubeManager, Mo) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let m = SubcubeManager::new(DataReductionSpec::new(schema, vec![a1, a2]).unwrap());
    m.bulk_load(&mo).unwrap();
    (m, mo)
}

/// `m` holds Definition 2's reduction of `raw` at `m`'s watermark.
fn assert_reduced(m: &SubcubeManager, raw: &Mo, ctx: &str) {
    let v = m.view();
    let t = v.last_sync().expect("synchronized");
    let want = reduce_naive(raw, v.spec(), t).unwrap();
    assert_holds(&[v], &want, ctx);
}

/// Field-wise sum (the crate's own `absorb` is not public).
fn sum(a: AgeStats, b: AgeStats) -> AgeStats {
    AgeStats {
        ticks: a.ticks + b.ticks,
        cells_delta: a.cells_delta + b.cells_delta,
        merged: a.merged + b.merged,
        cubes_rebuilt: a.cubes_rebuilt + b.cubes_rebuilt,
        cubes_skipped: a.cubes_skipped + b.cubes_skipped,
        rows_homed: a.rows_homed + b.rows_homed,
        chunks_rewritten: a.chunks_rewritten + b.chunks_rewritten,
        chunks_carried: a.chunks_carried + b.chunks_carried,
    }
}

#[test]
fn every_snapshot_day_is_the_reduction() {
    let (by_age, mo) = paper_manager();
    let (by_sync, _) = paper_manager();
    for t in snapshot_days() {
        by_age.age(t).unwrap();
        by_sync.sync(t).unwrap();
        assert_reduced(&by_age, &mo, &format!("age to {t}"));
        assert_reduced(&by_sync, &mo, &format!("sync to {t}"));
    }
}

#[test]
fn one_jump_equals_many_ticks() {
    // Aging straight to the horizon must equal aging through every
    // intermediate snapshot day (substep composition).
    let (jump, mo) = paper_manager();
    let (steps, _) = paper_manager();
    let days = snapshot_days();
    jump.age(*days.last().unwrap()).unwrap();
    for t in days {
        steps.age(t).unwrap();
    }
    assert_eq!(placed(&[jump.view()]), placed(&[steps.view()]));
    assert_reduced(&jump, &mo, "one jump");
}

/// `sync` across k transition days, k single-day `age` calls and one
/// `age` run the same steps: same cubes, same statistics in sum.
#[test]
fn sync_equals_one_age_equals_an_age_per_transition_day() {
    let [baseline, _, target] = snapshot_days();
    let start = || {
        let (m, mo) = paper_manager();
        m.sync(baseline).unwrap();
        (m, mo)
    };
    let (by_sync, mo) = start();
    let (by_age, _) = start();
    let (by_tick, _) = start();
    let synced = by_sync.sync(target).unwrap();
    let aged = by_age.age(target).unwrap();
    let mut ticked = AgeStats::default();
    let mut cur = baseline;
    while let Some(t) = by_tick.view().next_sync_due(cur).filter(|t| *t <= target) {
        let s = by_tick.age(t).unwrap();
        assert_eq!(s.ticks, 1, "day {t}");
        assert_reduced(&by_tick, &mo, &format!("tick at {t}"));
        (ticked, cur) = (sum(ticked, s), t);
    }
    ticked = sum(ticked, by_tick.age(target).unwrap());
    assert!(synced.ticks > 1 && synced.cells_delta > 0, "{synced:?}");
    assert_eq!(synced, aged);
    assert_eq!(synced, ticked);
    assert_eq!(placed(&[by_sync.view()]), placed(&[by_age.view()]));
    assert_eq!(placed(&[by_sync.view()]), placed(&[by_tick.view()]));
    assert_reduced(&by_sync, &mo, "sync");
    // One publication per transition day, plus the watermark.
    assert_eq!(by_sync.view().epoch(), by_tick.view().epoch());
}

#[test]
fn age_skips_untouched_cubes_and_counts_ticks() {
    let (m, mo) = paper_manager();
    // Never synchronized: one homing-only step over every row, no tick.
    let s0 = m.age(days_from_civil(2000, 4, 5)).unwrap();
    assert_eq!((s0.ticks, s0.rows_homed), (0, mo.len()));
    // A long run crosses many transition days; the cubes untouched by
    // each tick's delta must be carried forward as-is.
    let s1 = m.age(days_from_civil(2000, 11, 5)).unwrap();
    assert!(s1.ticks > 1, "expected multiple transition ticks: {s1:?}");
    assert!(s1.cubes_skipped > 0, "expected pruned cubes: {s1:?}");
    assert!(s1.cells_delta > 0, "expected migrated cells: {s1:?}");
    assert_eq!(
        m.view().len(),
        4,
        "final state matches the paper's Figure 7"
    );
}

#[test]
fn age_rejects_backward_target() {
    let (m, _) = paper_manager();
    m.age(days_from_civil(2000, 11, 5)).unwrap();
    let err = m.age(days_from_civil(2000, 6, 5)).unwrap_err();
    match err {
        SubcubeError::AgeBeforeWatermark { until, last_sync } => {
            assert_eq!(until, days_from_civil(2000, 6, 5));
            assert_eq!(last_sync, days_from_civil(2000, 11, 5));
        }
        other => panic!("wrong error: {other}"),
    }
    // Re-aging to the watermark itself is a no-op, not an error.
    let s = m.age(days_from_civil(2000, 11, 5)).unwrap();
    assert_eq!(s, AgeStats::default());
}

#[test]
fn age_after_bulk_load_homes_the_new_rows() {
    // New facts are un-homed; the next age resolves exactly those rows.
    let (m, mo) = paper_manager();
    m.age(days_from_civil(2000, 6, 5)).unwrap();
    let (more, _) = paper_mo();
    m.bulk_load(&more).unwrap();
    assert!(m.view().is_dirty());
    let s = m.age(days_from_civil(2000, 11, 5)).unwrap();
    assert_eq!(s.rows_homed, more.len());
    assert!(!m.view().is_dirty());
    let mut all = mo.clone();
    all.absorb(&more).unwrap();
    assert_reduced(&m, &all, "late load");
}

/// A view never synchronized ages virtually exactly as `sync` would
/// publish it — through the same step — and publishes nothing.
#[test]
fn never_synced_virtual_age_equals_sync_on_a_clone() {
    let (m, mo) = paper_manager();
    let (clone, _) = paper_manager();
    for t in snapshot_days() {
        let pinned = m.view();
        let (aged, hit) = pinned.virtual_age(t).unwrap();
        assert!(!hit, "day {t}");
        assert_eq!(aged.last_sync(), Some(t));
        assert!(pinned.virtual_age(t).unwrap().1, "second read of day {t}");
        let (fresh, _) = paper_manager();
        fresh.sync(t).unwrap();
        let aged = [aged];
        assert_eq!(placed(&aged), placed(&[fresh.view()]), "day {t}");
        let want = reduce_naive(&mo, m.view().spec(), t).unwrap();
        assert_holds(&aged, &want, &format!("virtual age to {t}"));
    }
    let v = m.view();
    assert_eq!((v.epoch(), v.last_sync()), (clone.view().epoch(), None));
}

/// Time plus `n` enumerated dimensions of `values` bottom values each,
/// every value under one of two groups (`v < g < ⊤`).
fn many_dims_schema(n: usize, values: usize) -> Arc<sdr_mdm::Schema> {
    use sdr_mdm::{AggFn, CatGraph, Dimension, EnumDimensionBuilder, MeasureDef, TimeDimension};
    let time = Dimension::Time(TimeDimension::new((1999, 1, 1), (2001, 12, 31)).unwrap());
    let dims = (0..n).map(|d| {
        let g = CatGraph::new(vec!["v", "g", "T"], &[("v", "g"), ("g", "T")]).unwrap();
        let (v, grp) = (g.by_name("v").unwrap(), g.by_name("g").unwrap());
        let mut b = EnumDimensionBuilder::new(format!("D{d:02}"), g);
        for k in 0..2 {
            b.add_value(grp, &format!("g{k}"), &[]).unwrap();
        }
        for j in 0..values {
            let parent = format!("g{}", j % 2);
            b.add_value(v, &format!("x{j}"), &[(grp, &parent)]).unwrap();
        }
        Dimension::Enum(b.build().unwrap())
    });
    let dims = std::iter::once(time).chain(dims).collect();
    let measures = vec![
        MeasureDef::new("n", AggFn::Count),
        MeasureDef::new("s", AggFn::Sum),
    ];
    sdr_mdm::Schema::new("Many", dims, measures).unwrap()
}

/// Schemas past the packed-key kernel age through the coordinate path:
/// 20 dimensions of 40 values need more than 128 key bits (cells are
/// named by interned coordinates), and 13 dimensions of 2 values pack
/// but exceed the decision key (cells resolve row by row, keyed by
/// packed coordinates). Loads with duplicate cells and late rows,
/// interleaved with ages across month starts, hold Definition 2's
/// reduction throughout.
#[test]
fn schemas_past_the_kernel_age_through_coordinates() {
    use sdr_mdm::{time_cat, DimValue, KeyPacker, TimeValue};
    let mut got = Vec::new();
    for (n, values) in [(19, 40), (12, 2)] {
        let schema = many_dims_schema(n, values);
        assert_eq!(KeyPacker::new(&schema).is_some(), n == 12, "{n} dims");
        // Every dimension appears in the grain: D00 rises to its group.
        let rest: String = (1..n).map(|d| format!(", D{d:02}.v")).collect();
        let action = format!("p(a[Time.month, D00.g{rest}] o[Time.month <= NOW - 1 months](O))");
        let spec = DataReductionSpec::new(
            Arc::clone(&schema),
            vec![parse_action(&schema, &action).unwrap()],
        )
        .unwrap();
        let m = SubcubeManager::new(spec);
        let mut raw = Mo::new(Arc::clone(&schema));
        let mut seed = 0x9e37_79b9_u64;
        let mut next = |k: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % k
        };
        let start = days_from_civil(2000, 1, 20);
        for (batch, until) in [(0, (2000, 2, 3)), (1, (2000, 2, 10)), (2, (2000, 3, 15))] {
            let mut load = Mo::new(Arc::clone(&schema));
            for i in 0..60 {
                // Batches overlap by ten days, so late January rows rise
                // into month rows an earlier step placed.
                let day = start + batch * 10 + (i % 20);
                let mut coords = vec![DimValue::new(time_cat::DAY, TimeValue::Day(day).code())];
                let v = schema.dims[1].graph().by_name("v").unwrap();
                // Few distinct cells, so duplicates merge.
                coords.extend((0..n).map(|d| DimValue::new(v, if d < 3 { next(2) } else { 0 })));
                load.insert_fact(&coords, &[1, next(100) as i64]).unwrap();
            }
            raw.absorb(&load).unwrap();
            m.bulk_load(&load).unwrap();
            m.age(days_from_civil(until.0, until.1, until.2)).unwrap();
            assert_reduced(&m, &raw, &format!("{n} dims, batch {batch}"));
        }
        // Arrivals are laid out in coordinate order, as the
        // coordinate-keyed step before the packed-key kernel laid them
        // out: every cube encodes to the bytes it left.
        let digests: Vec<u64> = (m.view().cubes().iter())
            .map(|c| {
                fnv(&sdr_storage::encode_facts(
                    &schema,
                    c.chunks().iter().map(|k| k.mo()),
                ))
            })
            .collect();
        got.push(digests);
    }
    let want = [
        [0x4390_6724_6da6_f8d8, 0xe9e6_0085_5418_e6eb],
        [0x3a7f_93bc_451f_e0f1, 0x7d08_4053_e31b_dde9],
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

/// FNV-1a of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
