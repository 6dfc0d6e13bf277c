//! Three-dimensional integration tests: the paper's model and all our
//! machinery are n-dimensional, but the running example is 2-D — this
//! suite exercises every layer at n = 3 (`Time × Product × Store`) with a
//! three-tier retention policy that aggregates in *all three* dimensions.

use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat, DimId, MeasureId, Mo};
use specdr::query::{aggregate, select, AggApproach, Query, SelectMode};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::spec::{parse_action, parse_pexp};
use specdr::subcube::{CubeQuery, ShardRouter};
use specdr::workload::{generate_retail, retail_policy, Retail, RetailConfig};

fn setup(sales_per_day: usize) -> (Retail, DataReductionSpec) {
    let r = generate_retail(&RetailConfig {
        sales_per_day,
        ..Default::default()
    });
    let actions: Vec<_> = retail_policy()
        .iter()
        .map(|s| parse_action(&r.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&r.schema), actions).unwrap();
    (r, spec)
}

fn sorted_rows(mo: &Mo) -> Vec<String> {
    let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    v.sort();
    v
}

#[test]
fn three_tier_policy_is_sound_and_ordered() {
    let (_, spec) = setup(0);
    assert_eq!(spec.len(), 3);
    let a: Vec<_> = spec.actions().iter().map(|(_, a)| a).collect();
    let schema = spec.schema();
    assert!(a[0].leq_v(a[1], schema));
    assert!(a[1].leq_v(a[2], schema));
}

#[test]
fn reduction_descends_all_three_dimensions() {
    let (r, spec) = setup(25);
    // 2001/6: first tier (month, sku, city) active for mid-1999–2000 data.
    let t1 = days_from_civil(2001, 6, 15);
    let red1 = reduce(&r.mo, &spec, t1).unwrap();
    assert!(red1.len() < r.mo.len());
    let has_gran = |mo: &Mo, cats: [specdr::mdm::CatId; 3]| {
        mo.facts()
            .any(|f| (0..3).all(|i| mo.value(f, DimId(i as u16)).cat == cats[i]))
    };
    assert!(has_gran(&red1, [time_cat::MONTH, r.cats.sku, r.cats.city]));
    // 2003/6: second tier (quarter, brand, region) holds the old data.
    let t2 = days_from_civil(2003, 6, 15);
    let red2 = reduce(&r.mo, &spec, t2).unwrap();
    assert!(has_gran(
        &red2,
        [time_cat::QUARTER, r.cats.brand, r.cats.region]
    ));
    assert!(red2.len() < red1.len());
    // 2005/6: deepest tier (year, category, ⊤).
    let t3 = days_from_civil(2005, 6, 15);
    let red3 = reduce(&r.mo, &spec, t3).unwrap();
    let top = r.schema.dim(DimId(2)).graph().top();
    assert!(has_gran(&red3, [time_cat::YEAR, r.cats.category, top]));
    // Revenue conserved at every tier.
    let total = |mo: &Mo| -> i64 { mo.facts().map(|f| mo.measure(f, MeasureId(1))).sum() };
    assert_eq!(total(&r.mo), total(&red1));
    assert_eq!(total(&r.mo), total(&red2));
    assert_eq!(total(&r.mo), total(&red3));
    // Deepest tier is tiny: ≤ #years × #categories × 1.
    assert!(red3.len() <= 2 * 3 + 6, "{}", red3.len());
}

#[test]
fn incremental_equals_direct_in_3d() {
    let (r, spec) = setup(10);
    let t1 = days_from_civil(2001, 6, 15);
    let t2 = days_from_civil(2004, 2, 1);
    let via = reduce(&reduce(&r.mo, &spec, t1).unwrap(), &spec, t2).unwrap();
    let direct = reduce(&r.mo, &spec, t2).unwrap();
    assert_eq!(sorted_rows(&via), sorted_rows(&direct));
}

#[test]
fn queries_across_three_dimensions() {
    let (r, spec) = setup(25);
    let now = days_from_civil(2003, 6, 15);
    let red = reduce(&r.mo, &spec, now).unwrap();
    // Conservative selection on two non-time dimensions at coarse levels.
    let p = parse_pexp(
        &r.schema,
        "Product.category = category-0 AND Store.region = region-1",
    )
    .unwrap();
    let sel = select(&red, &p, now, SelectMode::Conservative).unwrap();
    assert!(!sel.is_empty());
    for f in sel.facts() {
        let prod = sel.schema().dim(DimId(1));
        let cat = prod
            .rollup(sel.value(f, DimId(1)), r.cats.category)
            .unwrap();
        assert_eq!(prod.render(cat), "category-0");
    }
    // Aggregation to a 3-D granularity with availability semantics.
    let agg = aggregate(
        &red,
        &["Time.year", "Product.category", "Store.region"],
        AggApproach::Availability,
    )
    .unwrap();
    let total = |mo: &Mo| -> i64 { mo.facts().map(|f| mo.measure(f, MeasureId(1))).sum() };
    assert_eq!(total(&agg), total(&red));
    // Fluent pipeline over all three dims.
    let q = Query::new()
        .filter(p)
        .roll_up(&["Time.year", "Product.T", "Store.region"])
        .run(&red, now)
        .unwrap();
    assert!(!q.is_empty());
    assert!(total(&q) < total(&red));
}

#[test]
fn subcube_layout_and_equivalence_in_3d() {
    let (r, spec) = setup(15);
    let m = ShardRouter::in_memory(spec.clone()).unwrap();
    m.bulk_load(&r.mo).unwrap();
    // Bottom + three action granularities.
    assert_eq!(m.view_set().views()[0].cubes().len(), 4);
    let now = days_from_civil(2003, 6, 15);
    m.sync(now).unwrap();
    let physical = m.view_set().to_mo().unwrap();
    let logical = reduce(&r.mo, &spec, now).unwrap();
    assert_eq!(sorted_rows(&physical), sorted_rows(&logical));
    // Query equivalence in sync and unsync states.
    let q = CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels: vec![time_cat::YEAR, r.cats.category, r.cats.region],
        approach: AggApproach::Availability,
    };
    let synced = m.view_set().query(&q, now, true).unwrap();
    let later = days_from_civil(2004, 3, 1);
    let unsync = m.view_set().query_unsync(&q, later, true).unwrap();
    let expected = specdr::query::aggregate_ids(
        &reduce(&r.mo, &spec, later).unwrap(),
        &[time_cat::YEAR, r.cats.category, r.cats.region],
        AggApproach::Availability,
    )
    .unwrap();
    assert_eq!(sorted_rows(&unsync), sorted_rows(&expected));
    assert!(!synced.is_empty());
}

#[test]
fn csv_roundtrip_in_3d() {
    let (r, _) = setup(5);
    let csv = specdr::storage::export_csv(&r.mo);
    assert!(csv.starts_with("Time,Product,Store,Count,Revenue\n"));
    let back = specdr::storage::import_csv(Arc::clone(&r.schema), &csv).unwrap();
    assert_eq!(sorted_rows(&back), sorted_rows(&r.mo));
}

#[test]
fn crossing_rejected_in_3d() {
    // Higher in Product but lower in Store than tier 1, overlapping window
    // → NonCrossing violation.
    let (r, spec) = setup(0);
    let mut spec = spec.clone();
    let crossing = parse_action(
        &r.schema,
        "p(a[Time.month, Product.category, Store.store] o[NOW - 24 months < Time.month AND \
         Time.month <= NOW - 6 months](O))",
    )
    .unwrap();
    assert!(spec.insert(vec![crossing]).is_err());
}
