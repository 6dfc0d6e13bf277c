//! Differential tests for the vectorized kernels (PR 3): the compiled,
//! memoized, packed-key implementations of `select`, `aggregate_ids`,
//! and `reduce` must be indistinguishable from the retained naive
//! references on arbitrary workloads — same rows, same order, same
//! measures, same provenance — across modes, approaches, and `NOW`
//! values. Also covers the packed-key-overflow fallback (a schema too
//! wide for a 128-bit key) and a large reduce pass.

use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{
    time_cat, AggFn, CatGraph, CatId, DimId, DimValue, Dimension, EnumDimensionBuilder, KeyPacker,
    MeasureDef, Mo, Schema, TimeValue,
};
use specdr::query::{
    aggregate_ids, aggregate_ids_naive, predicate_weight, select, select_naive, select_view,
    select_weighted, AggApproach, SelectMode,
};
use specdr::reduce::{reduce, reduce_naive, DataReductionSpec};
use specdr::spec::{parse_action, parse_pexp};
use specdr::storage::{Fs, MemFs};
use specdr::subcube::ShardRouter;
use specdr::workload::{paper_schema, ACTION_A1, ACTION_A2};

/// Builds a random paper-schema MO from generated (day-offset, url-index)
/// pairs.
fn mo_from_rows(rows: &[(i32, u8)]) -> Mo {
    let (schema, cats) = paper_schema();
    let Dimension::Enum(e) = schema.dim(DimId(1)) else {
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

/// Every fact rendered in iteration order, with provenance — the full
/// observable content of an MO.
fn fact_rows(mo: &Mo) -> Vec<String> {
    mo.facts()
        .map(|f| format!("{} @{}", mo.render_fact(f), mo.store().origin[f.index()]))
        .collect()
}

/// A pool of predicate shapes covering atoms, AND/OR, NOT, `IN` and
/// `NOT IN`, `NOW`-dependent terms, and a disjunction one atom wider
/// than the mask plan's 64 leaves (its whole-cell fallback).
fn pred_src(ix: usize, month: u32, grp: &str) -> String {
    let dom = if grp == ".com" {
        "amazon.com"
    } else {
        "gatech.edu"
    };
    match ix {
        0 => format!("Time.month <= 1999/{month}"),
        1 => format!("URL.domain_grp = {grp}"),
        2 => format!("Time.month <= 1999/{month} OR URL.domain = cnn.com"),
        3 => format!("NOT (URL.domain_grp = {grp})"),
        4 => "Time.quarter <= NOW - 4 quarters".to_string(),
        5 => format!("URL.domain_grp = {grp} AND NOW - 12 months < Time.month <= NOW - 6 months"),
        6 => format!("NOT (Time.month <= 1999/{month} AND URL.domain_grp = {grp})"),
        7 => format!(
            "Time.month IN {{1999/{month}, 2000/{month}, 1999/{}}}",
            month % 12 + 1
        ),
        8 => format!("NOT (URL.domain IN {{cnn.com, {dom}}})"),
        _ => {
            let days =
                (0..64).map(|i| format!("Time.day = 1999/{}/{}", 1 + i % 12, i / 12 + month));
            let atoms: Vec<String> = days
                .chain([format!("NOT (URL.domain_grp = {grp})")])
                .collect();
            atoms.join(" OR ")
        }
    }
}

/// The pool's `IN`, `NOT IN` and 65-atom shapes on one fixed MO and its
/// reduction, under every mode: the proptest below draws them at random,
/// this runs each one, on more rows than the mask plan takes in one
/// block.
#[test]
fn select_kernel_matches_naive_on_in_and_wide_predicates() {
    let rows: Vec<(i32, u8)> = (0..4500).map(|i| (i * 7 % 720, (i % 9) as u8)).collect();
    let mo = mo_from_rows(&rows);
    let now = days_from_civil(2001, 1, 1);
    let red = reduce(&mo, &paper_spec_for(&mo), now).unwrap();
    let modes = [
        SelectMode::Conservative,
        SelectMode::Liberal,
        SelectMode::Weighted { threshold: 0.3 },
    ];
    for (ix, grp, mode) in (7..10).flat_map(|ix| {
        [".com", ".edu"]
            .into_iter()
            .flat_map(move |g| modes.map(|m| (ix, g, m)))
    }) {
        let p = parse_pexp(mo.schema(), &pred_src(ix, 3, grp)).unwrap();
        for m in [&mo, &red] {
            let kernel = select(m, &p, now, mode).unwrap();
            let naive = select_naive(m, &p, now, mode).unwrap();
            assert_eq!(fact_rows(&kernel), fact_rows(&naive), "{ix} {grp} {mode}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// σ kernel ≡ naive reference on raw and reduced MOs, all modes.
    #[test]
    fn select_kernel_matches_naive(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 1..60),
        pred_ix in 0usize..10,
        month in 1u32..13,
        grp_ix in 0usize..2,
        t_off in 0i32..900,
        mode_ix in 0usize..4,
    ) {
        let mo = mo_from_rows(&rows);
        let spec = paper_spec_for(&mo);
        let now = days_from_civil(2000, 1, 1) + t_off;
        let red = reduce(&mo, &spec, now).unwrap();
        let grp = [".com", ".edu"][grp_ix];
        let p = parse_pexp(mo.schema(), &pred_src(pred_ix, month, grp)).unwrap();
        let mode = [
            SelectMode::Conservative,
            SelectMode::Liberal,
            SelectMode::Weighted { threshold: 0.3 },
            SelectMode::Weighted { threshold: 0.9 },
        ][mode_ix];
        for m in [&mo, &red] {
            let kernel = select(m, &p, now, mode).unwrap();
            let naive = select_naive(m, &p, now, mode).unwrap();
            prop_assert_eq!(fact_rows(&kernel), fact_rows(&naive));
            // The view is borrowed exactly when nothing is filtered.
            let view = select_view(m, Some(&p), now, mode).unwrap();
            prop_assert_eq!(view.len(), kernel.len());
            if kernel.len() == m.len() {
                prop_assert!(matches!(view, Cow::Borrowed(_)));
            }
            // Weighted selection: memoized weights ≡ per-fact weights.
            if let SelectMode::Weighted { threshold } = mode {
                let kw = select_weighted(m, &p, now, threshold).unwrap();
                let mut nw = Vec::new();
                for f in m.facts() {
                    let w = predicate_weight(m, &p, f, now).unwrap();
                    if w >= threshold && w > 0.0 {
                        nw.push((f, w));
                    }
                }
                prop_assert_eq!(kw, nw);
            }
        }
        // No predicate: the view borrows the input untouched.
        let all = select_view(&red, None, now, mode).unwrap();
        prop_assert!(matches!(all, Cow::Borrowed(_)));
        prop_assert_eq!(all.len(), red.len());
    }

    /// α kernel ≡ naive reference for every approach, on raw (uniform
    /// bottom granularity) and reduced (mixed granularity) MOs, in exact
    /// output order.
    #[test]
    fn aggregate_kernel_matches_naive(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 1..60),
        t_off in 0i32..900,
        time_cat_ix in 0u8..6,
        url_cat_ix in 0usize..4,
        approach_ix in 0usize..4,
    ) {
        let mo = mo_from_rows(&rows);
        let (_, cats) = paper_schema();
        let spec = paper_spec_for(&mo);
        let now = days_from_civil(2000, 1, 1) + t_off;
        let red = reduce(&mo, &spec, now).unwrap();
        let levels = vec![
            CatId(time_cat_ix),
            [cats.url, cats.domain, cats.domain_grp, cats.top][url_cat_ix],
        ];
        let approach = [
            AggApproach::Availability,
            AggApproach::Strict,
            AggApproach::Lub,
            AggApproach::Disaggregated,
        ][approach_ix];
        for m in [&mo, &red] {
            let kernel = aggregate_ids(m, &levels, approach);
            let naive = aggregate_ids_naive(m, &levels, approach);
            match (kernel, naive) {
                (Ok(k), Ok(n)) => prop_assert_eq!(fact_rows(&k), fact_rows(&n)),
                // e.g. disaggregation fan-out over the safety valve: both
                // implementations must refuse.
                (Err(_), Err(_)) => {}
                (k, n) => {
                    return Err(TestCaseError::fail(format!(
                        "kernel/naive disagree on error: {k:?} vs {n:?}"
                    )))
                }
            }
        }
    }

    /// Reduce kernel ≡ naive reference: same cells, measures, *and*
    /// provenance (responsible actions), at arbitrary times, including
    /// incremental re-reduction of already-reduced MOs.
    #[test]
    fn reduce_kernel_matches_naive(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 1..60),
        t_off in 0i32..1400,
        dt in 1i32..400,
    ) {
        let mo = mo_from_rows(&rows);
        let spec = paper_spec_for(&mo);
        let t1 = days_from_civil(1999, 6, 1) + t_off;
        let t2 = t1 + dt;
        let rk = reduce(&mo, &spec, t1).unwrap();
        let rn = reduce_naive(&mo, &spec, t1).unwrap();
        prop_assert_eq!(fact_rows(&rk), fact_rows(&rn));
        // Incremental: reducing the reduced MO at a later time.
        let rk2 = reduce(&rk, &spec, t2).unwrap();
        let rn2 = reduce_naive(&rn, &spec, t2).unwrap();
        prop_assert_eq!(fact_rows(&rk2), fact_rows(&rn2));
    }
}

/// A schema whose packed cell key needs more than 128 bits, forcing
/// every kernel onto its naive fallback path: 20 enumerated dimensions,
/// each with 40 bottom values (6 code bits + 1 category bit each).
fn wide_schema() -> Arc<Schema> {
    let dims: Vec<Dimension> = (0..20)
        .map(|d| {
            let g = CatGraph::new(vec!["v", "T"], &[("v", "T")]).unwrap();
            let bottom = g.by_name("v").unwrap();
            let mut b = EnumDimensionBuilder::new(format!("D{d:02}"), g);
            for j in 0..40 {
                b.add_value(bottom, &format!("x{j}"), &[]).unwrap();
            }
            Dimension::Enum(b.build().unwrap())
        })
        .collect();
    Schema::new(
        "Wide",
        dims,
        vec![
            MeasureDef::new("n", AggFn::Count),
            MeasureDef::new("total", AggFn::Sum),
        ],
    )
    .unwrap()
}

/// 200 bottom-level facts over [`wide_schema`].
fn wide_facts(schema: &Arc<Schema>) -> Mo {
    let mut mo = Mo::new(Arc::clone(schema));
    for i in 0..200usize {
        let coords: Vec<DimValue> = (0..20)
            .map(|d| {
                let Dimension::Enum(e) = schema.dim(DimId(d as u16)) else {
                    unreachable!()
                };
                let bottom = e.graph().bottom();
                e.value(bottom, &format!("x{}", (i * 7 + d * 3) % 40))
                    .unwrap()
            })
            .collect();
        mo.insert_fact(&coords, &[1, i as i64]).unwrap();
    }
    mo
}

/// Routing hashes the packed bottom key, so a schema too wide to pack
/// cannot be split: two shards are refused at create with a typed error
/// and nothing written, while one shard routes nothing and opens, loads
/// and recovers it.
#[test]
fn a_schema_too_wide_to_pack_opens_with_one_shard_only() {
    use specdr::subcube::SubcubeError;
    let schema = wide_schema();
    let spec = DataReductionSpec::empty(Arc::clone(&schema));
    let fs: Arc<dyn Fs> = MemFs::shared();
    let dir = std::path::Path::new("/wide");
    let refused = ShardRouter::create_with_fs(spec.clone(), dir, 2, Arc::clone(&fs));
    let err = refused.err().expect("two shards need a packed key");
    assert!(
        matches!(err, SubcubeError::Unroutable { shards: 2 }),
        "{err:?}"
    );
    assert!(!fs.exists(dir), "a refused create writes nothing");
    let mo = wide_facts(&schema);
    let w = ShardRouter::create_with_fs(spec.clone(), dir, 1, Arc::clone(&fs)).unwrap();
    w.bulk_load(&mo).unwrap();
    drop(w);
    let (back, report) = ShardRouter::recover_with_fs(spec, dir, fs).unwrap();
    assert_eq!((report.shards, report.replayed), (1, 1));
    assert_eq!(back.len(), mo.len());
}

#[test]
fn packed_key_overflow_falls_back_to_naive() {
    let schema = wide_schema();
    assert!(
        KeyPacker::new(&schema).is_none(),
        "wide schema must overflow the 128-bit key"
    );
    let mo = wide_facts(&schema);
    let now = days_from_civil(2000, 1, 1);
    // Selection falls back to per-fact satisfaction.
    let p = parse_pexp(&schema, "D00.v = x3").unwrap();
    for mode in [SelectMode::Conservative, SelectMode::Liberal] {
        let kernel = select(&mo, &p, now, mode).unwrap();
        let naive = select_naive(&mo, &p, now, mode).unwrap();
        assert_eq!(fact_rows(&kernel), fact_rows(&naive));
        assert!(!kernel.is_empty());
    }
    let kw = select_weighted(&mo, &p, now, 0.5).unwrap();
    assert_eq!(
        kw.len(),
        select(&mo, &p, now, SelectMode::Conservative)
            .unwrap()
            .len()
    );
    // Aggregation falls back to BTreeMap grouping.
    let mut levels: Vec<CatId> = (0..20)
        .map(|d| schema.dim(DimId(d as u16)).graph().bottom())
        .collect();
    levels[0] = schema.dim(DimId(0)).graph().top();
    for approach in [
        AggApproach::Availability,
        AggApproach::Strict,
        AggApproach::Lub,
    ] {
        let kernel = aggregate_ids(&mo, &levels, approach).unwrap();
        let naive = aggregate_ids_naive(&mo, &levels, approach).unwrap();
        assert_eq!(fact_rows(&kernel), fact_rows(&naive));
    }
    // Reduction: with no packer and no mask kernel (20 dimensions), every
    // cell is resolved by the unmemoized whole-cell walk. Once with the
    // empty spec (every fact keeps its own cell), once with an action
    // that fires: the facts with `D00 = x3` raise `D01` to its top and
    // merge.
    let grain: Vec<String> = (0..20)
        .map(|d| format!("D{d:02}.{}", if d == 1 { "T" } else { "v" }))
        .collect();
    let raise = format!("a[{}] o[D00.v = x3](O)", grain.join(", "));
    let action = parse_action(&schema, &raise).unwrap();
    let specs = [
        DataReductionSpec::empty(Arc::clone(&schema)),
        DataReductionSpec::new(Arc::clone(&schema), vec![action]).unwrap(),
    ];
    for (i, spec) in specs.into_iter().enumerate() {
        let rk = reduce(&mo, &spec, now).unwrap();
        let rn = reduce_naive(&mo, &spec, now).unwrap();
        assert_eq!(fact_rows(&rk), fact_rows(&rn), "spec {i}");
        let raised = rk.facts().filter(|f| rk.store().origin[f.index()] == 0);
        assert_eq!(raised.count(), i, "spec {i}: facts the action produced");
        // The warehouse's reduction step holds the same facts.
        let w = ShardRouter::in_memory(spec).unwrap();
        w.bulk_load(&mo).unwrap();
        w.age(now).unwrap();
        let sorted = |mo: &Mo| {
            let mut rows = fact_rows(mo);
            rows.sort();
            rows
        };
        let held = w.view_set().to_mo().unwrap();
        assert_eq!(sorted(&held), sorted(&rk), "spec {i}");
    }
}

/// A 40 000-fact pass, large enough that most of its cells are memo
/// hits: the compiled, memoized fold must reproduce the interpreted
/// reference exactly, provenance included.
#[test]
fn large_reduce_matches_naive() {
    let rows: Vec<(i32, u8)> = (0..40_000)
        .map(|i| ((i * 37) % 720, (i % 9) as u8))
        .collect();
    let mo = mo_from_rows(&rows);
    let spec = paper_spec_for(&mo);
    for t in [
        days_from_civil(1999, 9, 1),
        days_from_civil(2000, 6, 1),
        days_from_civil(2002, 1, 1),
    ] {
        let rk = reduce(&mo, &spec, t).unwrap();
        let rn = reduce_naive(&mo, &spec, t).unwrap();
        assert_eq!(fact_rows(&rk), fact_rows(&rn), "t={t}");
    }
}
