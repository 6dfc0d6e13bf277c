//! Property-based tests (proptest) for the core invariants promised in
//! `DESIGN.md`: calendar laws, partial-order laws, prover exactness,
//! reduction-semantics invariants, query-mode relationships, and
//! subcube/monolithic equivalence.

use proptest::prelude::*;
use std::sync::Arc;

use specdr::mdm::calendar::{civil_from_days, days_from_civil, iso_week_of, iso_weekday};
use specdr::mdm::{time_cat, DimValue, Granularity, MeasureId, Mo, TimeValue};
use specdr::prover::{implies_union, BitSet, DayInterval, GroundSet, Region};
use specdr::query::{compare_weight, satisfies, SelectMode};
use specdr::reduce::{cell_for, reduce, DataReductionSpec};
use specdr::spec::{
    parse_action, parse_pexp, Atom, AtomKind, CmpOp, CompiledPred, LeafMaskPlan, LeafMeaning, Pexp,
    SrcSpan, Term,
};
use specdr::subcube::{CubeQuery, ShardRouter};
use specdr::workload::{paper_mo, paper_schema, ACTION_A1, ACTION_A2};

/// Values of dimension `d` of the paper schema at every category, ⊤
/// included: every URL value, and for time a day every 37 days of
/// 1999–2000 rolled up to each category.
fn value_pool(schema: &specdr::mdm::Schema, d: specdr::mdm::DimId) -> Vec<DimValue> {
    let dim = schema.dim(d);
    let mut pool: Vec<DimValue> = match dim {
        specdr::mdm::Dimension::Enum(e) => dim.graph().all().flat_map(|c| e.values(c)).collect(),
        specdr::mdm::Dimension::Time(_) => (0..720)
            .step_by(37)
            .flat_map(|off| {
                dim.graph().all().map(move |c| {
                    let tv = TimeValue::Day(days_from_civil(1999, 1, 1) + off)
                        .rollup(c)
                        .unwrap();
                    DimValue::new(tv.category(), tv.code())
                })
            })
            .collect(),
    };
    pool.push(dim.top_value());
    pool.sort_by_key(|v| (v.cat.0, v.code));
    pool.dedup();
    pool
}

const DAY_LO: i32 = 10_227; // 1998-01-01
const DAY_HI: i32 = 12_418; // 2004-01-01

fn arb_day() -> impl Strategy<Value = i32> {
    DAY_LO..DAY_HI
}

proptest! {
    /// Calendar: civil roundtrip, weekday step, ISO week containment.
    #[test]
    fn calendar_laws(z in arb_day()) {
        let (y, m, d) = civil_from_days(z);
        prop_assert_eq!(days_from_civil(y, m, d), z);
        prop_assert_eq!(iso_weekday(z + 1), iso_weekday(z) % 7 + 1);
        let (iy, iw) = iso_week_of(z);
        let start = specdr::mdm::calendar::iso_week_start(iy, iw);
        prop_assert!(start <= z && z < start + 7);
    }

    /// Time roll-up is transitive along both hierarchy branches, and a
    /// day is contained in every one of its roll-ups.
    #[test]
    fn time_rollup_transitive(z in arb_day()) {
        let day = TimeValue::Day(z);
        let month = day.rollup(time_cat::MONTH).unwrap();
        let quarter = day.rollup(time_cat::QUARTER).unwrap();
        let year = day.rollup(time_cat::YEAR).unwrap();
        prop_assert_eq!(month.rollup(time_cat::QUARTER).unwrap(), quarter);
        prop_assert_eq!(quarter.rollup(time_cat::YEAR).unwrap(), year);
        prop_assert_eq!(month.rollup(time_cat::YEAR).unwrap(), year);
        for c in [time_cat::WEEK, time_cat::MONTH, time_cat::QUARTER, time_cat::YEAR] {
            let up = day.rollup(c).unwrap();
            prop_assert!(day.contained_in(up));
            // Extents bracket the day.
            prop_assert!(up.start_day().unwrap() <= z && z <= up.end_day().unwrap());
            // Serial ranges drill back to contiguous day ranges.
            let (a, b) = up.serial_range(time_cat::DAY).unwrap().unwrap();
            prop_assert!(a <= z as i64 && (z as i64) <= b);
        }
        // Weeks never roll into the month branch.
        let week = day.rollup(time_cat::WEEK).unwrap();
        prop_assert!(week.rollup(time_cat::MONTH).is_err());
    }

    /// Region subtraction partitions: a \ b and a ∩ b tile a, disjointly.
    #[test]
    fn region_subtraction_partitions(
        alo in 0i64..25, alen in 0i64..12,
        blo in 0i64..25, blen in 0i64..12,
        aset in proptest::collection::btree_set(0u32..8, 0..6),
        bset in proptest::collection::btree_set(0u32..8, 0..6),
    ) {
        let a = Region { dims: vec![
            GroundSet::Interval(DayInterval::new(alo, alo + alen)),
            GroundSet::Bits(aset.iter().copied().collect::<BitSet>()),
        ]};
        let b = Region { dims: vec![
            GroundSet::Interval(DayInterval::new(blo, blo + blen)),
            GroundSet::Bits(bset.iter().copied().collect::<BitSet>()),
        ]};
        let parts = a.subtract(&b);
        let contains = |r: &Region, t: i64, v: u32| -> bool {
            let t_ok = matches!(&r.dims[0], GroundSet::Interval(i) if i.contains(t));
            let v_ok = matches!(&r.dims[1], GroundSet::Bits(s) if s.contains(v));
            t_ok && v_ok
        };
        for t in 0..40i64 {
            for v in 0..8u32 {
                let want = contains(&a, t, v) && !contains(&b, t, v);
                let got = parts.iter().filter(|p| contains(p, t, v)).count();
                prop_assert_eq!(got > 0, want, "t={} v={}", t, v);
                prop_assert!(got <= 1, "parts overlap at t={} v={}", t, v);
            }
        }
        // implies_union agrees with brute force.
        let covered = implies_union(&a, std::slice::from_ref(&b));
        let brute = (0..40i64).all(|t| (0..8u32).all(|v| !contains(&a, t, v) || contains(&b, t, v)));
        prop_assert_eq!(covered, brute);
    }
}

/// Builds a random paper-schema MO from generated (day-offset, url-index)
/// pairs.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition 2 invariants on random MOs and times: idempotence,
    /// SUM conservation, incremental-equals-direct, and monotone cell
    /// granularity for the (Growing) paper specification.
    #[test]
    fn reduce_invariants(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 1..40),
        t_off in 0i32..1400,
        dt in 1i32..400,
    ) {
        let mo = mo_from_rows(&rows);
        let spec = paper_spec_for(&mo);
        let t1 = days_from_civil(1999, 6, 1) + t_off;
        let t2 = t1 + dt;
        let r1 = reduce(&mo, &spec, t1).unwrap();
        // Idempotence.
        prop_assert_eq!(sorted_rows(&reduce(&r1, &spec, t1).unwrap()), sorted_rows(&r1));
        // Conservation of all (SUM/COUNT) measures.
        for j in 0..mo.schema().n_measures() {
            let m = MeasureId(j as u16);
            let a: i64 = mo.facts().map(|f| mo.measure(f, m)).sum();
            let b: i64 = r1.facts().map(|f| r1.measure(f, m)).sum();
            prop_assert_eq!(a, b);
        }
        // Incremental equals direct.
        let direct = reduce(&mo, &spec, t2).unwrap();
        let via = reduce(&r1, &spec, t2).unwrap();
        prop_assert_eq!(sorted_rows(&direct), sorted_rows(&via));
        // Monotone per-fact cell granularity (Growing).
        let schema = spec.schema();
        for f in mo.facts() {
            let c1 = cell_for(&spec, &mo.coords(f), t1).unwrap();
            let c2 = cell_for(&spec, &mo.coords(f), t2).unwrap();
            let g1 = Granularity(c1.coords.iter().map(|v| v.cat).collect());
            let g2 = Granularity(c2.coords.iter().map(|v| v.cat).collect());
            prop_assert!(g1.leq(&g2, schema));
        }
    }

    /// The three selection modes are exactly the weight thresholds:
    /// conservative ⇔ weight = 1, liberal ⇔ weight > 0, for every
    /// operator and (fact value, constant) pair at any category mix.
    #[test]
    fn selection_modes_are_weight_thresholds(
        fact_day in 0i32..720,
        fact_cat in 0u8..5,
        const_day in 0i32..720,
        const_cat in 0u8..5,
        op_ix in 0usize..6,
    ) {
        let (schema, _) = paper_schema();
        let dim = schema.dim(specdr::mdm::DimId(0));
        let mk = |d: i32, c: u8| -> DimValue {
            let tv = TimeValue::Day(days_from_civil(1999, 1, 1) + d)
                .rollup(specdr::mdm::CatId(c))
                .unwrap();
            DimValue::new(tv.category(), tv.code())
        };
        let v = mk(fact_day, fact_cat);
        let k = mk(const_day, const_cat);
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op_ix];
        let w = compare_weight(dim, v, op, k).unwrap();
        prop_assert!((0.0..=1.0).contains(&w));
        let cons = specdr::query::compare(dim, v, op, k, SelectMode::Conservative).unwrap();
        let lib = specdr::query::compare(dim, v, op, k, SelectMode::Liberal).unwrap();
        prop_assert_eq!(cons, (w - 1.0).abs() < 1e-12, "cons vs w={} op={:?}", w, op);
        prop_assert_eq!(lib, w > 0.0, "lib vs w={} op={:?}", w, op);
        if cons { prop_assert!(lib); }
    }

    /// [`weight_lemma`] on time values sampled at any pair of
    /// categories (the URL dimension is checked exhaustively by
    /// `liberal_is_positive_weight_on_every_url_pair`).
    #[test]
    fn liberal_is_positive_weight_at_every_time_category(
        fact_ix in 0usize..10_000,
        const_ix in 0usize..10_000,
        op_ix in 0usize..6,
        members in 1u32..64,
    ) {
        let (schema, _) = paper_schema();
        let pool = value_pool(&schema, specdr::mdm::DimId(0));
        let (v, k) = (pool[fact_ix % pool.len()], pool[const_ix % pool.len()]);
        let same_cat: Vec<DimValue> = pool.iter().copied().filter(|m| m.cat == k.cat).collect();
        let set: Vec<DimValue> = (same_cat.iter().enumerate())
            .filter(|(i, _)| members >> (i % 6) & 1 == 1)
            .map(|(_, &m)| m)
            .collect();
        let set = if set.is_empty() { vec![k] } else { set };
        weight_lemma(&schema, specdr::mdm::DimId(0), v, k, OPS[op_ix], &set);
    }

    /// Subcube warehouse ≡ monolithic reduction, synced or not, under
    /// random loads and random sync/query times.
    #[test]
    fn subcube_equivalence(
        rows in proptest::collection::vec((0i32..720, 0u8..9), 1..30),
        sync_off in 0i32..900,
        query_off in 0i32..900,
    ) {
        let mo = mo_from_rows(&rows);
        let spec = paper_spec_for(&mo);
        let m = ShardRouter::in_memory(spec.clone()).unwrap();
        m.bulk_load(&mo).unwrap();
        let t_sync = days_from_civil(2000, 1, 1) + sync_off;
        let t_query = t_sync.max(days_from_civil(2000, 1, 1) + query_off);
        m.sync(t_sync).unwrap();
        let domain = m.schema().resolve_cat("URL.domain").unwrap().1;
        let q = CubeQuery {
            pred: None,
            mode: SelectMode::Conservative,
            levels: vec![time_cat::QUARTER, domain],
            approach: specdr::query::AggApproach::Availability,
        };
        let via_cubes = m.view_set().query_unsync(&q, t_query, false).unwrap();
        let logical = reduce(&mo, &spec, t_query).unwrap();
        let expected = specdr::query::aggregate_ids(
            &logical,
            &[time_cat::QUARTER, domain],
            specdr::query::AggApproach::Availability,
        ).unwrap();
        prop_assert_eq!(sorted_rows(&via_cubes), sorted_rows(&expected));
    }

    /// Parser/printer roundtrip over generated actions.
    #[test]
    fn action_roundtrip(
        grain_ix in 0usize..4,
        grp_ix in 0usize..2,
        months_lo in 1u32..24,
        extra in 1u32..24,
        dynamic in any::<bool>(),
    ) {
        let (schema, _) = paper_schema();
        let grains = [
            "Time.month, URL.domain",
            "Time.quarter, URL.domain",
            "Time.quarter, URL.domain_grp",
            "Time.year, URL.T",
        ];
        let grp = [".com", ".edu"][grp_ix];
        let months_hi = months_lo + extra;
        let pred = if dynamic {
            format!(
                "URL.domain_grp = {grp} AND NOW - {months_hi} months < Time.month AND Time.month <= NOW - {months_lo} months"
            )
        } else {
            format!("URL.domain_grp = {grp} AND Time.month <= 2000/6")
        };
        // Grain must not exceed the predicate categories: month-level
        // predicates pair with month/quarter/year grains — all fine here
        // except quarter/year grains with month atoms, which violate the
        // Clist rule… so predicate on the grain's own time category.
        let src = format!("p(a[{}] o[{}](O))", grains[grain_ix], pred);
        match parse_action(&schema, &src) {
            Ok(a) => {
                let rendered = a.render(&schema);
                let b = parse_action(&schema, &rendered).unwrap();
                prop_assert_eq!(a, b);
            }
            Err(specdr::spec::SpecError::PredicateBelowTarget { .. }) => {
                // quarter/year grains with month-level predicates are
                // correctly rejected by the Section 4.1 convention.
                prop_assert!(grain_ix > 0);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// Selection predicates: conservative ⊆ liberal on whole predicates
    /// over the reduced paper MO, and DNF evaluation is stable.
    #[test]
    fn predicate_modes_subset(
        month in 1u32..13,
        grp_ix in 0usize..2,
        negate in any::<bool>(),
    ) {
        let (mo, _) = paper_mo();
        let spec = paper_spec_for(&mo);
        let now = days_from_civil(2000, 11, 5);
        let red = reduce(&mo, &spec, now).unwrap();
        let grp = [".com", ".edu"][grp_ix];
        let base = format!("Time.month <= 1999/{month} OR URL.domain_grp = {grp}");
        let src = if negate { format!("NOT ({base})") } else { base };
        let p = parse_pexp(red.schema(), &src).unwrap();
        for f in red.facts() {
            let cons = satisfies(&red, &p, f, now, SelectMode::Conservative).unwrap();
            let lib = satisfies(&red, &p, f, now, SelectMode::Liberal).unwrap();
            prop_assert!(!cons || lib, "{} on {}", src, red.render_fact(f));
        }
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// The lemma the weighted chunk verdict rests on — a leaf holds
/// liberally exactly when it weighs more than 0 — for the fact value
/// `v` of dimension `d`: `v op k` (and conservative ⇔ weight 1), and
/// `v IN set` / `v NOT IN set` through `member_weight`, against the
/// compiled leaf's liberal verdict and the plan's weight.
fn weight_lemma(
    schema: &specdr::mdm::Schema,
    d: specdr::mdm::DimId,
    v: DimValue,
    k: DimValue,
    op: CmpOp,
    set: &[DimValue],
) {
    let dim = schema.dim(d);
    let w = compare_weight(dim, v, op, k).unwrap();
    assert!((0.0..=1.0).contains(&w));
    let cons = specdr::query::compare(dim, v, op, k, SelectMode::Conservative).unwrap();
    let lib = specdr::query::compare(dim, v, op, k, SelectMode::Liberal).unwrap();
    assert_eq!(lib, w > 0.0, "{v:?} {op:?} {k:?} w={w}");
    assert_eq!(cons, (w - 1.0).abs() < 1e-12, "{v:?} {op:?} {k:?} w={w}");

    let w_in = specdr::query::member_weight(dim, v, set).unwrap();
    let mut cell: Vec<DimValue> = (0..schema.n_dims() as u16)
        .map(|e| schema.dim(specdr::mdm::DimId(e)).top_value())
        .collect();
    cell[d.index()] = v;
    let now = days_from_civil(2000, 1, 1);
    for negated in [false, true] {
        let atom = Pexp::Atom(Atom {
            dim: d,
            cat: set[0].cat,
            kind: AtomKind::In {
                terms: set.iter().map(|&m| Term::Value(m)).collect(),
            },
            negated,
            span: SrcSpan::DUMMY,
        });
        let leaf = CompiledPred::compile_as(schema, &atom, now, LeafMeaning::Liberal).unwrap();
        let held = leaf.eval_cell(schema, &cell).unwrap();
        let want = if negated { 1.0 - w_in } else { w_in };
        assert_eq!(
            held,
            want > 0.0,
            "{v:?} IN {set:?} negated={negated} w={w_in}"
        );
        let plan = LeafMaskPlan::new(vec![leaf]);
        assert_eq!(
            plan.weight(schema, &cell).unwrap(),
            want,
            "{v:?} IN {set:?}"
        );
    }
}

/// [`weight_lemma`] on every pair of URL values at every category, ⊤
/// included, under all six operators, with every non-empty `IN` set of
/// the constant's category.
#[test]
fn liberal_is_positive_weight_on_every_url_pair() {
    let (schema, _) = paper_schema();
    let d = specdr::mdm::DimId(1);
    let pool = value_pool(&schema, d);
    let mut checked = 0;
    for &v in &pool {
        for &k in &pool {
            let same_cat: Vec<DimValue> = pool.iter().copied().filter(|m| m.cat == k.cat).collect();
            for mask in 1u32..1 << same_cat.len() {
                let set: Vec<DimValue> = (same_cat.iter().enumerate())
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &m)| m)
                    .collect();
                for op in OPS {
                    weight_lemma(&schema, d, v, k, op, &set);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1_000, "{checked}");
}
