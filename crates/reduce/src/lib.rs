//! # sdr-reduce — the data-reduction engine
//!
//! The paper's primary contribution (Sections 4–5 of *Specification-Based
//! Data Reduction in Dimensional Data Warehouses*):
//!
//! * [`semantics`] — `Spec_gran`, `Cell`, `AggLevel_i` (Equations 11–13)
//!   and the reduction operator of Definition 2, with per-fact provenance;
//! * [`schedule`] — [`ActionAnalysis`], each action's predicate analyzed
//!   once (groundings are staircase functions of `NOW`); the NonCrossing
//!   (Equation 14, Section 5.2) and Growing (Equation 17, Theorem 1's
//!   syntactic fast path plus the three-step check of Section 5.3)
//!   decisions over it, [`crossings`] and [`escapes`], which return
//!   witnesses; and the transition-day [`ReductionSchedule`] that drives
//!   incremental aging;
//! * [`spec_set`] — [`DataReductionSpec`], the checked specification
//!   container with the `insert`/`delete` operators of Definitions 3–4:
//!   it analyzes each action as it enters and holds the schedule.

#![warn(missing_docs)]

pub mod error;
pub mod purge;
pub mod schedule;
pub mod semantics;
pub mod spec_set;

pub use error::ReduceError;
pub use purge::{reduce_and_purge, PurgeSpec};
pub use schedule::{crossings, escapes, ActionAnalysis, Crossing, Escape, ReductionSchedule};
pub use semantics::{
    agg_level, cell, cell_for, reduce, reduce_naive, spec_gran, CellMemo, CellResult, Decision,
};
pub use spec_set::DataReductionSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::{
        calendar::days_from_civil, time_cat as tc, DimId, FactId, Granularity, MeasureId,
        ORIGIN_USER,
    };
    use sdr_spec::{parse_action, ActionId};
    use sdr_workload::{paper_mo, paper_schema, ACTION_A1, ACTION_A2};

    fn paper_spec() -> (sdr_mdm::Mo, DataReductionSpec) {
        let (mo, _) = paper_mo();
        let schema = std::sync::Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
        (mo, spec)
    }

    #[test]
    fn paper_spec_is_sound() {
        let (_, spec) = paper_spec();
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn a1_alone_violates_growing() {
        // Figure 2: {a1} alone is not Growing — cells fall off the moving
        // 12-month lower bound with nothing to catch them.
        let (schema, _) = paper_schema();
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let err = DataReductionSpec::new(schema, vec![a1]).unwrap_err();
        assert!(matches!(err, ReduceError::NotGrowing { .. }), "{err}");
    }

    #[test]
    fn a2_alone_is_growing() {
        // a2 has only a growing upper bound (category B).
        let (schema, _) = paper_schema();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        DataReductionSpec::new(schema, vec![a2]).unwrap();
    }

    #[test]
    fn crossing_actions_rejected() {
        // The paper's a2/a3 example (Section 4.3): a3 aggregates higher in
        // URL but lower in Time than a2, with overlapping predicates —
        // unordered, so NonCrossing must fail.
        let (schema, _) = paper_schema();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        // Aggregates *lower* in Time (month < quarter) but *higher* in URL
        // (domain_grp > domain) than a2, with overlapping predicates.
        // (The paper's own a3 of Equation 15 additionally violates the
        // Section 4.1 Clist convention, which our validator enforces — so
        // this test uses a convention-conforming crossing pair.)
        let a3 = parse_action(
            &schema,
            "p(a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O))",
        )
        .unwrap();
        let err = DataReductionSpec::new(schema, vec![a2, a3]).unwrap_err();
        assert!(matches!(err, ReduceError::NotNonCrossing { .. }), "{err}");
    }

    #[test]
    fn parallel_branch_crossing_rejected() {
        // The paper's a2/a4 example: aggregating into the week branch while
        // a2 aggregates into the quarter branch, with overlap → unordered.
        let (schema, _) = paper_schema();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let a4 = parse_action(
            &schema,
            "p(a[Time.week, URL.url] o[URL.domain = cnn.com AND \
             Time.week <= 1999W50](O))",
        )
        .unwrap();
        let err = DataReductionSpec::new(schema, vec![a2, a4]).unwrap_err();
        assert!(matches!(err, ReduceError::NotNonCrossing { .. }), "{err}");
    }

    #[test]
    fn disjoint_unordered_actions_accepted() {
        // Unordered granularities are fine when the predicates can never
        // overlap (.com vs .edu).
        let (schema, _) = paper_schema();
        let x = parse_action(
            &schema,
            "a[Time.quarter, URL.domain] o[URL.domain_grp = .com AND Time.quarter <= NOW - 4 quarters](O)",
        )
        .unwrap();
        let y = parse_action(
            &schema,
            "a[Time.month, URL.domain_grp] o[URL.domain_grp = .edu AND Time.month <= NOW - 12 months](O)",
        )
        .unwrap();
        DataReductionSpec::new(schema, vec![x, y]).unwrap();
    }

    #[test]
    fn figure3_snapshot_2000_04_05_no_reduction() {
        let (mo, spec) = paper_spec();
        let r = reduce(&mo, &spec, days_from_civil(2000, 4, 5)).unwrap();
        assert_eq!(r.len(), 7);
        for f in r.facts() {
            assert_eq!(r.gran(f), r.schema().bottom_granularity());
            assert_eq!(r.store().origin[f.index()], ORIGIN_USER);
        }
    }

    #[test]
    fn figure3_snapshot_2000_06_05() {
        // fact_1 + fact_2 → fact_12 (1999/12, cnn.com); fact_0 and fact_3
        // move to month×domain individually; facts 4–6 untouched.
        let (mo, spec) = paper_spec();
        let r = reduce(&mo, &spec, days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(r.len(), 6);
        let rendered: Vec<String> = r.facts().map(|f| r.render_fact(f)).collect();
        // fact_12 with Number_of 2, dwell 2335+154=2489, delivery 7,
        // datasize 94k (Figure 3 middle snapshot).
        assert!(
            rendered.contains(&"fact(1999/12, cnn.com | 2, 2489, 7, 94000)".to_string()),
            "{rendered:?}"
        );
        assert!(rendered.contains(&"fact(1999/11, amazon.com | 1, 677, 2, 34000)".to_string()));
        assert!(rendered.contains(&"fact(1999/12, amazon.com | 1, 12, 1, 34000)".to_string()));
        // Unchanged detail facts.
        assert!(rendered
            .contains(&"fact(2000/1/4, http://www.cnn.com/ | 1, 654, 4, 47000)".to_string()));
        assert!(rendered
            .contains(&"fact(2000/1/20, http://www.cc.gatech.edu/ | 1, 32, 1, 12000)".to_string()));
    }

    #[test]
    fn figure3_snapshot_2000_11_05() {
        // All 1999 facts at quarter×domain: fact_03 and fact_12; facts 4+5
        // merge at month×domain (fact_45); fact_6 stays detailed.
        let (mo, spec) = paper_spec();
        let r = reduce(&mo, &spec, days_from_civil(2000, 11, 5)).unwrap();
        assert_eq!(r.len(), 4);
        let rendered: Vec<String> = r.facts().map(|f| r.render_fact(f)).collect();
        assert!(
            rendered.contains(&"fact(1999Q4, amazon.com | 2, 689, 3, 68000)".to_string()),
            "{rendered:?}"
        );
        assert!(rendered.contains(&"fact(1999Q4, cnn.com | 2, 2489, 7, 94000)".to_string()));
        assert!(rendered.contains(&"fact(2000/1, cnn.com | 2, 955, 10, 99000)".to_string()));
        assert!(rendered
            .contains(&"fact(2000/1/20, http://www.cc.gatech.edu/ | 1, 32, 1, 12000)".to_string()));
    }

    #[test]
    fn reduction_is_incremental() {
        // Reducing the 2000/6 snapshot again at 2000/11 equals reducing the
        // original at 2000/11 (gradual reduction is well-defined).
        let (mo, spec) = paper_spec();
        let mid = reduce(&mo, &spec, days_from_civil(2000, 6, 5)).unwrap();
        let late_direct = reduce(&mo, &spec, days_from_civil(2000, 11, 5)).unwrap();
        let late_via_mid = reduce(&mid, &spec, days_from_civil(2000, 11, 5)).unwrap();
        let a: Vec<String> = late_direct
            .facts()
            .map(|f| late_direct.render_fact(f))
            .collect();
        let b: Vec<String> = late_via_mid
            .facts()
            .map(|f| late_via_mid.render_fact(f))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn reduction_is_idempotent() {
        let (mo, spec) = paper_spec();
        let t = days_from_civil(2000, 11, 5);
        let once = reduce(&mo, &spec, t).unwrap();
        let twice = reduce(&once, &spec, t).unwrap();
        let a: Vec<String> = once.facts().map(|f| once.render_fact(f)).collect();
        let b: Vec<String> = twice.facts().map(|f| twice.render_fact(f)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sum_measures_are_conserved() {
        let (mo, spec) = paper_spec();
        for t in sdr_workload::snapshot_days() {
            let r = reduce(&mo, &spec, t).unwrap();
            for j in 0..mo.schema().n_measures() {
                let m = MeasureId(j as u16);
                let before: i64 = mo.facts().map(|f| mo.measure(f, m)).sum();
                let after: i64 = r.facts().map(|f| r.measure(f, m)).sum();
                assert_eq!(before, after, "measure {j} not conserved at {t}");
            }
        }
    }

    #[test]
    fn provenance_identifies_responsible_action() {
        let (mo, spec) = paper_spec();
        let r = reduce(&mo, &spec, days_from_civil(2000, 11, 5)).unwrap();
        // The quarter-level facts were produced by a2 (id 1), the
        // month-level fact by a1 (id 0), and fact_6 is untouched.
        let mut origins: Vec<(String, u32)> = r
            .facts()
            .map(|f| (r.render_fact(f), r.store().origin[f.index()]))
            .collect();
        origins.sort();
        let by_prefix = |p: &str| {
            origins
                .iter()
                .find(|(s, _)| s.starts_with(p))
                .map(|(_, o)| *o)
                .unwrap()
        };
        assert_eq!(by_prefix("fact(1999Q4, amazon.com"), 1);
        assert_eq!(by_prefix("fact(1999Q4, cnn.com"), 1);
        assert_eq!(by_prefix("fact(2000/1, cnn.com"), 0);
        assert_eq!(by_prefix("fact(2000/1/20"), ORIGIN_USER);
    }

    #[test]
    fn cell_matches_paper_example() {
        // Section 4.2: Cell(fact_1, 2000/11/5) = (1999Q4, cnn.com) with
        // Spec_gran containing day×url, month×domain (wait — a1's grain is
        // month×domain), and quarter×domain.
        let (mo, spec) = paper_spec();
        let now = days_from_civil(2000, 11, 5);
        let f1 = FactId(1);
        let grans = spec_gran(&mo, &spec, f1, now).unwrap();
        assert_eq!(grans.len(), 3);
        let c = cell(&mo, &spec, f1, now).unwrap();
        let schema = spec.schema();
        assert_eq!(schema.dim(DimId(0)).render(c.coords[0]), "1999Q4");
        assert_eq!(schema.dim(DimId(1)).render(c.coords[1]), "cnn.com");
        assert_eq!(c.responsible, Some(ActionId(1)));
    }

    #[test]
    fn agg_level_defaults_to_bottom() {
        let (mo, spec) = paper_spec();
        let now = days_from_civil(2000, 11, 5);
        // fact_6's cell (.edu) matches no action → bottom in both dims.
        let coords = mo.coords(FactId(6));
        assert_eq!(agg_level(&spec, &coords, DimId(0), now).unwrap(), tc::DAY);
        // fact_1's cell is aggregated to quarter by a2.
        let coords1 = mo.coords(FactId(1));
        assert_eq!(
            agg_level(&spec, &coords1, DimId(0), now).unwrap(),
            tc::QUARTER
        );
        let urlg = spec.schema().dim(DimId(1)).graph();
        assert_eq!(
            urlg.name(agg_level(&spec, &coords1, DimId(1), now).unwrap()),
            "domain"
        );
    }

    #[test]
    fn insert_rejects_unsound_and_keeps_spec() {
        let (schema, _) = paper_schema();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let mut spec = DataReductionSpec::new(std::sync::Arc::clone(&schema), vec![a2]).unwrap();
        // Inserting a crossing action must fail and leave the spec intact.
        let a3 = parse_action(
            &schema,
            "p(a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O))",
        )
        .unwrap();
        let err = spec.insert(vec![a3]).unwrap_err();
        assert!(matches!(err, ReduceError::InsertRejected(_)));
        assert_eq!(spec.len(), 1);
        // Inserting a1 together with nothing works because a2 is present.
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let ids = spec.insert(vec![a1]).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn insert_set_checked_as_a_whole() {
        // a1 alone is rejected, but {a1, a2} inserted together is fine —
        // Definition 3 checks the full set.
        let (schema, _) = paper_schema();
        let mut spec = DataReductionSpec::empty(std::sync::Arc::clone(&schema));
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        assert!(spec.insert(vec![a1.clone()]).is_err());
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        spec.insert(vec![a1, a2]).unwrap();
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn delete_paper_a7_a8_example() {
        // Section 5.1's example: a NOW-relative a7 can be deleted after
        // inserting the fixed a8 that currently aggregates the same facts.
        let (mo, _) = paper_mo();
        let schema = std::sync::Arc::clone(mo.schema());
        let a7 = parse_action(
            &schema,
            "p(a[Time.month, URL.domain] o[Time.month <= NOW - 12 months](O))",
        )
        .unwrap();
        let mut spec = DataReductionSpec::new(std::sync::Arc::clone(&schema), vec![a7]).unwrap();
        let now = days_from_civil(2000, 12, 15);
        let reduced = reduce(&mo, &spec, now).unwrap();
        // a8 freezes the same boundary (month ≤ 1999/12).
        let a8 = parse_action(
            &schema,
            "p(a[Time.month, URL.domain] o[Time.month <= 1999/12](O))",
        )
        .unwrap();
        spec.insert(vec![a8]).unwrap();
        // Now a7 (id 0) has no effect beyond a8 and can be deleted.
        spec.delete(&[ActionId(0)], &reduced, now).unwrap();
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn delete_rejected_while_responsible() {
        let (mo, _) = paper_mo();
        let schema = std::sync::Arc::clone(mo.schema());
        let a7 = parse_action(
            &schema,
            "p(a[Time.month, URL.domain] o[Time.month <= NOW - 12 months](O))",
        )
        .unwrap();
        let mut spec = DataReductionSpec::new(std::sync::Arc::clone(&schema), vec![a7]).unwrap();
        let now = days_from_civil(2000, 12, 15);
        // Without a8, a7 is responsible for the 1999 facts: delete fails
        // against the *unreduced* MO (the facts still satisfy the pred and
        // would be aggregated).
        let err = spec.delete(&[ActionId(0)], &mo, now).unwrap_err();
        assert!(matches!(err, ReduceError::DeleteRejected(_)), "{err}");
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn delete_allowed_on_empty_mo() {
        // The paper's motivation for instance-dependent delete: a "too
        // radical" action can be removed while no facts are affected.
        let (schema, _) = paper_schema();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let mut spec = DataReductionSpec::new(std::sync::Arc::clone(&schema), vec![a2]).unwrap();
        let empty = sdr_mdm::Mo::new(std::sync::Arc::clone(&schema));
        spec.delete(&[ActionId(0)], &empty, days_from_civil(2000, 1, 1))
            .unwrap();
        assert!(spec.is_empty());
    }

    #[test]
    fn growing_monotone_over_time() {
        // For the (Growing) paper spec, each fact's granularity at a later
        // time dominates the earlier one.
        let (mo, spec) = paper_spec();
        let times: Vec<i32> = (0..14)
            .map(|k| {
                sdr_mdm::time::shift_day(
                    days_from_civil(2000, 1, 5),
                    sdr_mdm::Span::new(k, sdr_mdm::TimeUnit::Month),
                    1,
                )
            })
            .collect();
        let schema = spec.schema();
        for w in times.windows(2) {
            let r1 = reduce(&mo, &spec, w[0]).unwrap();
            let r2 = reduce(&mo, &spec, w[1]).unwrap();
            // Compare via per-original-fact cell granularity.
            for f in mo.facts() {
                let c1 = cell(&mo, &spec, f, w[0]).unwrap();
                let c2 = cell(&mo, &spec, f, w[1]).unwrap();
                let g1 = Granularity(c1.coords.iter().map(|v| v.cat).collect());
                let g2 = Granularity(c2.coords.iter().map(|v| v.cat).collect());
                assert!(g1.leq(&g2, schema), "fact {f:?} regressed {w:?}");
            }
            assert!(r2.len() <= r1.len());
        }
    }

    #[test]
    fn unknown_action_id_errors() {
        let (mo, mut spec) = paper_spec();
        let err = spec
            .delete(&[ActionId(99)], &mo, days_from_civil(2000, 1, 1))
            .unwrap_err();
        assert!(matches!(err, ReduceError::UnknownAction(99)));
    }
}
