//! # sdr-query — the query algebra over reduced MOs
//!
//! Implements Section 6 of *Specification-Based Data Reduction in
//! Dimensional Data Warehouses*: an algebra with exactly the operators of
//! standard OLAP tools — selection, projection, and aggregate formation —
//! defined over multidimensional objects whose facts may sit at *varying
//! granularities* after reduction.
//!
//! * [`mod@compare`] — Definition 5's GLB-drill-down comparison operators with
//!   the conservative (default), liberal, and weighted modes;
//! * [`mod@select`] — `σ[p](O)` (Equation 36);
//! * [`mod@project`] — `π[D…][M…](O)` (Equation 37);
//! * [`mod@aggregate`] — `α[C₁…Cₙ](O)` (Definition 6) with the availability
//!   (default), strict, and LUB approaches;
//! * [`mod@scan`] — the one compiled kernel behind both: `α[…]σ[p]` fused
//!   into a single pass over any number of fact runs.

#![warn(missing_docs)]

pub mod aggregate;
pub mod builder;
pub mod collapse;
pub mod compare;
pub mod error;
pub mod project;
pub mod scan;
pub mod select;

pub use aggregate::{aggregate, aggregate_ids, aggregate_ids_naive, AggApproach};
pub use builder::Query;
pub use collapse::collapse_dimensions;
pub use compare::{compare, compare_weight, member_of, member_weight, SelectMode};
pub use error::QueryError;
pub use project::{project, project_ids};
pub use scan::{Scan, ScanAcc};
pub use select::{
    predicate_weight, satisfies, select, select_naive, select_snapshot, select_view,
    select_weighted, MoView,
};

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::{calendar::days_from_civil, DimId, MeasureId, Mo};
    use sdr_reduce::{reduce, DataReductionSpec};
    use sdr_spec::{parse_action, parse_pexp, CmpOp};
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};

    /// The reduced MO of Figure 3's final snapshot (time 2000/11/5).
    fn reduced_paper_mo() -> (Mo, i32) {
        let (mo, _) = paper_mo();
        let schema = std::sync::Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
        let now = days_from_civil(2000, 11, 5);
        (reduce(&mo, &spec, now).unwrap(), now)
    }

    fn renders(mo: &Mo) -> Vec<String> {
        mo.facts().map(|f| mo.render_fact(f)).collect()
    }

    #[test]
    fn q1_unaffected_by_reduction() {
        // Q1 = σ[Time.quarter ≤ 1999Q3]: every fact (reduced or not) is in
        // 1999Q4 or later → empty on both.
        let (raw, _) = paper_mo();
        let (red, now) = reduced_paper_mo();
        let p = parse_pexp(raw.schema(), "Time.quarter <= 1999Q3").unwrap();
        let on_raw = select(&raw, &p, now, SelectMode::Conservative).unwrap();
        let on_red = select(&red, &p, now, SelectMode::Conservative).unwrap();
        assert!(on_raw.is_empty());
        assert!(on_red.is_empty());
        // And with ≤ 1999Q4 both return the four 1999 facts' content.
        let p2 = parse_pexp(raw.schema(), "Time.quarter <= 1999Q4").unwrap();
        let r1 = select(&raw, &p2, now, SelectMode::Conservative).unwrap();
        let r2 = select(&red, &p2, now, SelectMode::Conservative).unwrap();
        assert_eq!(r1.len(), 4);
        assert_eq!(r2.len(), 2); // fact_03 and fact_12
        let dwell = |m: &Mo| -> i64 { m.facts().map(|f| m.measure(f, MeasureId(1))).sum() };
        assert_eq!(dwell(&r1), dwell(&r2)); // same content, coarser facts
    }

    #[test]
    fn q2_conservative_drops_partial_quarters() {
        // Q2 = σ[Time.month ≤ 1999/10]: the quarter-level facts (1999Q4)
        // only partly satisfy it → excluded under the conservative
        // approach (Section 6.1's example).
        let (red, now) = reduced_paper_mo();
        let p = parse_pexp(red.schema(), "Time.month <= 1999/10").unwrap();
        let r = select(&red, &p, now, SelectMode::Conservative).unwrap();
        assert!(r.is_empty());
        // The liberal approach keeps them (they *might* satisfy it).
        let l = select(&red, &p, now, SelectMode::Liberal).unwrap();
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn q3_week_vs_quarter_through_glb_day() {
        // Q3 = σ[Time.week ≤ 1999W48] must compare weeks and quarters at
        // their GLB (day). 1999Q4 runs to Dec 31 > end of W48 (Dec 5) →
        // FALSE; against 2000W1 (ends Jan 9) → TRUE.
        let (red, now) = reduced_paper_mo();
        let p = parse_pexp(red.schema(), "Time.week <= 1999W48").unwrap();
        let r = select(&red, &p, now, SelectMode::Conservative).unwrap();
        assert!(r.is_empty());
        let p2 = parse_pexp(red.schema(), "Time.week <= 2000W1").unwrap();
        let r2 = select(&red, &p2, now, SelectMode::Conservative).unwrap();
        // Both 1999Q4 facts qualify; the 2000/1 and 2000/1/20 facts do not.
        assert_eq!(renders(&r2).len(), 2);
        assert!(renders(&r2).iter().all(|s| s.contains("1999Q4")));
    }

    #[test]
    fn strict_lt_paper_example() {
        // Section 6.1's worked example: 1999Q4 < 1999W48 is FALSE (Dec 31
        // is not before the week), but 1999Q4 < 2000W1 is TRUE.
        let (red, _) = reduced_paper_mo();
        let schema = red.schema();
        let dim = schema.dim(DimId(0));
        let q4 = dim
            .parse_value(sdr_mdm::time_cat::QUARTER, "1999Q4")
            .unwrap();
        let w48 = dim.parse_value(sdr_mdm::time_cat::WEEK, "1999W48").unwrap();
        let w1 = dim.parse_value(sdr_mdm::time_cat::WEEK, "2000W1").unwrap();
        assert!(!compare(dim, q4, CmpOp::Lt, w48, SelectMode::Conservative).unwrap());
        assert!(compare(dim, q4, CmpOp::Lt, w1, SelectMode::Conservative).unwrap());
        // Liberal <: some day of Q4 precedes some day of W48.
        assert!(compare(dim, q4, CmpOp::Lt, w48, SelectMode::Liberal).unwrap());
    }

    #[test]
    fn membership_paper_example() {
        // 1999Q4 ∈ {1999W39,…,2000W1} is TRUE; dropping 2000W1 (and W52)
        // leaves days of late December uncovered → FALSE.
        let (red, _) = reduced_paper_mo();
        let schema = red.schema();
        let dim = schema.dim(DimId(0));
        let q4 = dim
            .parse_value(sdr_mdm::time_cat::QUARTER, "1999Q4")
            .unwrap();
        let weeks_full: Vec<_> = (39..=52)
            .map(|w| {
                dim.parse_value(sdr_mdm::time_cat::WEEK, &format!("1999W{w}"))
                    .unwrap()
            })
            .chain([dim.parse_value(sdr_mdm::time_cat::WEEK, "2000W1").unwrap()])
            .collect();
        assert!(member_of(dim, q4, &weeks_full, SelectMode::Conservative).unwrap());
        let weeks_short: Vec<_> = (39..=51)
            .map(|w| {
                dim.parse_value(sdr_mdm::time_cat::WEEK, &format!("1999W{w}"))
                    .unwrap()
            })
            .collect();
        assert!(!member_of(dim, q4, &weeks_short, SelectMode::Conservative).unwrap());
        // …but it's liberally possible.
        assert!(member_of(dim, q4, &weeks_short, SelectMode::Liberal).unwrap());
    }

    #[test]
    fn equality_and_inequality_semantics() {
        // Conservative `=` uses the subset (per-element) reading: a finer
        // value inside the constant satisfies it; a coarser value that
        // only partly overlaps does not (see compare.rs for the
        // documented deviation from Definition 5's literal set equality).
        let (red, _) = reduced_paper_mo();
        let dim = red.schema().dim(DimId(0));
        let day = dim
            .parse_value(sdr_mdm::time_cat::DAY, "1999/12/4")
            .unwrap();
        let month = dim
            .parse_value(sdr_mdm::time_cat::MONTH, "1999/12")
            .unwrap();
        let quarter = dim
            .parse_value(sdr_mdm::time_cat::QUARTER, "1999Q4")
            .unwrap();
        // Finer inside coarser: = holds.
        assert!(compare(dim, day, CmpOp::Eq, month, SelectMode::Conservative).unwrap());
        assert!(compare(dim, month, CmpOp::Eq, quarter, SelectMode::Conservative).unwrap());
        assert!(compare(dim, month, CmpOp::Eq, month, SelectMode::Conservative).unwrap());
        // Coarser vs finer: the quarter only partly overlaps the month.
        assert!(!compare(dim, quarter, CmpOp::Eq, month, SelectMode::Conservative).unwrap());
        // Conservative ≠ requires disjoint footprints: a day *inside* the
        // month is not conservatively ≠ to it.
        assert!(!compare(dim, day, CmpOp::Ne, month, SelectMode::Conservative).unwrap());
        let other = dim.parse_value(sdr_mdm::time_cat::MONTH, "2000/1").unwrap();
        assert!(compare(dim, day, CmpOp::Ne, other, SelectMode::Conservative).unwrap());
        // Liberal equality: a partial overlap might be "the" position.
        assert!(compare(dim, quarter, CmpOp::Eq, month, SelectMode::Liberal).unwrap());
    }

    #[test]
    fn weighted_selection_weights() {
        // A quarter-level fact vs `month ≤ 1999/11`: the GLB of quarter
        // and month is month, and 2 of 1999Q4's 3 months (Oct, Nov)
        // satisfy the bound → weight 2/3.
        let (red, now) = reduced_paper_mo();
        let p = parse_pexp(red.schema(), "Time.month <= 1999/11").unwrap();
        let weighted = select_weighted(&red, &p, now, 0.1).unwrap();
        assert_eq!(weighted.len(), 2);
        for (_, w) in &weighted {
            assert!((w - 2.0 / 3.0).abs() < 1e-9, "weight {w}");
        }
        let threshold = select(&red, &p, now, SelectMode::Weighted { threshold: 0.7 }).unwrap();
        assert!(threshold.is_empty());
        // And no month of 1999Q4 is ≤ 1999/9 → weight 0 everywhere.
        let p0 = parse_pexp(red.schema(), "Time.month <= 1999/9").unwrap();
        assert!(select_weighted(&red, &p0, now, 1e-9).unwrap().is_empty());
    }

    #[test]
    fn figure4_projection() {
        let (red, _) = reduced_paper_mo();
        let p = project(&red, &["URL"], &["Number_of", "Dwell_time"]).unwrap();
        assert_eq!(p.len(), 4);
        let r = renders(&p);
        assert!(
            r.contains(&"fact(amazon.com | 2, 689)".to_string()),
            "{r:?}"
        );
        assert!(r.contains(&"fact(cnn.com | 2, 2489)".to_string()));
        assert!(r.contains(&"fact(cnn.com | 2, 955)".to_string()));
        assert!(r.contains(&"fact(http://www.cc.gatech.edu/ | 1, 32)".to_string()));
        assert_eq!(p.schema().n_dims(), 1);
        assert_eq!(p.schema().n_measures(), 2);
        assert!(project(&red, &["Bogus"], &[]).is_err());
        assert!(project(&red, &["URL"], &["Bogus"]).is_err());
    }

    #[test]
    fn figure5_aggregation_availability() {
        // Q5 = α[Time.month, URL.domain] at 2000/11/5: fact_45 and fact_6
        // land at month level; fact_03/fact_12 stay at quarter (their
        // finest available level).
        let (red, _) = reduced_paper_mo();
        let a = aggregate(
            &red,
            &["Time.month", "URL.domain"],
            AggApproach::Availability,
        )
        .unwrap();
        let r = renders(&a);
        assert_eq!(a.len(), 4, "{r:?}");
        assert!(r.contains(&"fact(1999Q4, amazon.com | 2, 689, 3, 68000)".to_string()));
        assert!(r.contains(&"fact(1999Q4, cnn.com | 2, 2489, 7, 94000)".to_string()));
        assert!(r.contains(&"fact(2000/1, cnn.com | 2, 955, 10, 99000)".to_string()));
        assert!(r.contains(&"fact(2000/1, gatech.edu | 1, 32, 1, 12000)".to_string()));
    }

    #[test]
    fn q4_aggregation_uniform_when_available() {
        // Q4 = α[Time.year, URL.domain]: year and domain are available for
        // every fact → the whole answer has the requested granularity.
        let (red, _) = reduced_paper_mo();
        let a = aggregate(
            &red,
            &["Time.year", "URL.domain"],
            AggApproach::Availability,
        )
        .unwrap();
        let r = renders(&a);
        assert_eq!(a.len(), 4);
        assert!(
            r.contains(&"fact(1999, amazon.com | 2, 689, 3, 68000)".to_string()),
            "{r:?}"
        );
        assert!(r.contains(&"fact(1999, cnn.com | 2, 2489, 7, 94000)".to_string()));
        assert!(r.contains(&"fact(2000, cnn.com | 2, 955, 10, 99000)".to_string()));
        assert!(r.contains(&"fact(2000, gatech.edu | 1, 32, 1, 12000)".to_string()));
    }

    #[test]
    fn strict_aggregation_drops_coarse_facts() {
        let (red, _) = reduced_paper_mo();
        let a = aggregate(&red, &["Time.month", "URL.domain"], AggApproach::Strict).unwrap();
        let r = renders(&a);
        assert_eq!(a.len(), 2, "{r:?}");
        assert!(r.contains(&"fact(2000/1, cnn.com | 2, 955, 10, 99000)".to_string()));
        assert!(r.contains(&"fact(2000/1, gatech.edu | 1, 32, 1, 12000)".to_string()));
    }

    #[test]
    fn lub_aggregation_uniform_granularity() {
        let (red, _) = reduced_paper_mo();
        let a = aggregate(&red, &["Time.month", "URL.domain"], AggApproach::Lub).unwrap();
        let r = renders(&a);
        // LUB of {month, quarter, day} with request month = quarter.
        assert_eq!(a.len(), 4, "{r:?}");
        assert!(r.contains(&"fact(1999Q4, amazon.com | 2, 689, 3, 68000)".to_string()));
        assert!(r.contains(&"fact(2000Q1, cnn.com | 2, 955, 10, 99000)".to_string()));
        assert!(r.contains(&"fact(2000Q1, gatech.edu | 1, 32, 1, 12000)".to_string()));
        for f in a.facts() {
            assert_eq!(a.value(f, DimId(0)).cat, sdr_mdm::time_cat::QUARTER);
        }
    }

    #[test]
    fn aggregation_conserves_sums() {
        let (red, _) = reduced_paper_mo();
        for approach in [AggApproach::Availability, AggApproach::Lub] {
            let a = aggregate(&red, &["Time.year", "URL.domain_grp"], approach).unwrap();
            for j in 0..red.schema().n_measures() {
                let m = MeasureId(j as u16);
                let before: i64 = red.facts().map(|f| red.measure(f, m)).sum();
                let after: i64 = a.facts().map(|f| a.measure(f, m)).sum();
                assert_eq!(before, after, "{approach:?} measure {j}");
            }
        }
    }

    #[test]
    fn conservative_subset_of_liberal() {
        let (red, now) = reduced_paper_mo();
        for src in [
            "Time.month <= 1999/11",
            "Time.week <= 2000W1",
            "URL.domain = cnn.com",
            "Time.quarter = 1999Q4 AND URL.domain_grp = .com",
            "Time.day >= 2000/1/1 OR URL.domain = amazon.com",
        ] {
            let p = parse_pexp(red.schema(), src).unwrap();
            for f in red.facts() {
                let cons = satisfies(&red, &p, f, now, SelectMode::Conservative).unwrap();
                let lib = satisfies(&red, &p, f, now, SelectMode::Liberal).unwrap();
                assert!(!cons || lib, "conservative ⊄ liberal for {src}");
                let w = predicate_weight(&red, &p, f, now).unwrap();
                assert!((0.0..=1.0).contains(&w));
                if cons {
                    assert!(w > 0.0);
                }
                if !lib {
                    assert!(w == 0.0);
                }
            }
        }
    }

    #[test]
    fn selection_on_enum_dimension() {
        let (red, now) = reduced_paper_mo();
        let p = parse_pexp(red.schema(), "URL.domain = cnn.com").unwrap();
        let r = select(&red, &p, now, SelectMode::Conservative).unwrap();
        assert_eq!(r.len(), 2); // fact_12 (quarter) and fact_45 (month)
        let p2 = parse_pexp(red.schema(), "URL.domain_grp = .edu").unwrap();
        let r2 = select(&red, &p2, now, SelectMode::Conservative).unwrap();
        assert_eq!(r2.len(), 1);
        // Negation: NOT (.com) keeps only the gatech fact conservatively.
        let p3 = parse_pexp(red.schema(), "NOT (URL.domain_grp = .com)").unwrap();
        let r3 = select(&red, &p3, now, SelectMode::Conservative).unwrap();
        assert_eq!(r3.len(), 1);
    }
}
