//! # sdr-subcube — the subcube implementation strategy
//!
//! Implements Section 7 of *Specification-Based Data Reduction in
//! Dimensional Data Warehouses*: the logical reduced MO is stored as a set
//! of physical subcubes (one per distinct action granularity plus a
//! bottom-level cube), synchronized by migrating facts along the cube DAG
//! as `NOW` advances, and queried by parallel per-cube sub-queries whose
//! results are combined by one final (distributive) aggregation — in both
//! the synchronized and un-synchronized states.

#![warn(missing_docs)]

mod durable;
pub mod error;
pub mod layout;
pub mod manager;
pub mod op;
pub mod persist;
pub mod query;
pub mod shard;
pub mod stats;

pub use error::SubcubeError;
pub use layout::WarehouseLayout;
pub use manager::{AgeStats, Chunk, CubeId, Subcube, SubcubeManager, WarehouseView, CHUNK_ROWS};
pub use op::{OpOutcome, WarehouseOp};
pub use persist::{read_manifest, Manifest};
pub use query::CubeQuery;
pub use shard::{RecoveryReport, ShardRouter, ShardViewSet};
pub use stats::{ChunkSummary, DimColStats, SubcubeStats};

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::{calendar::days_from_civil, time_cat as tc, MeasureId, Mo};
    use sdr_query::{AggApproach, SelectMode};
    use sdr_reduce::{reduce, DataReductionSpec};
    use sdr_spec::{parse_action, parse_pexp};
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};
    use std::sync::Arc;

    fn manager_with_paper_data() -> (SubcubeManager, Mo) {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
        let m = SubcubeManager::new(spec);
        m.bulk_load(&mo).unwrap();
        (m, mo)
    }

    fn domain_cat(m: &SubcubeManager) -> sdr_mdm::CatId {
        m.schema()
            .dim(sdr_mdm::DimId(1))
            .graph()
            .by_name("domain")
            .unwrap()
    }

    #[test]
    fn cube_layout_matches_spec() {
        let (m, _) = manager_with_paper_data();
        let v = m.view();
        // Bottom cube + (month, domain) + (quarter, domain).
        assert_eq!(v.cubes().len(), 3);
        assert_eq!(v.cubes()[0].grain, m.schema().bottom_granularity());
        // The DAG: bottom → month cube → quarter cube.
        let d = m.view().describe();
        assert!(d.contains("K1 (Time.month, URL.domain)"), "{d}");
        assert!(d.contains("K2 (Time.quarter, URL.domain)"), "{d}");
        assert_eq!(v.parents(CubeId(1)), &[CubeId(0)]);
        assert_eq!(v.parents(CubeId(2)), &[CubeId(1)]);
        assert_eq!(v.parents(CubeId(0)), &[]);
    }

    #[test]
    fn sync_matches_monolithic_reduce() {
        let (m, mo) = manager_with_paper_data();
        for t in sdr_workload::snapshot_days() {
            m.sync(t).unwrap();
            let whole = m.to_mo().unwrap();
            let expected = reduce(&mo, &m.spec(), t).unwrap();
            let mut a: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
            let mut b: Vec<String> = expected.facts().map(|f| expected.render_fact(f)).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "mismatch at t={t}");
        }
    }

    #[test]
    fn sync_stats_track_migrations() {
        let (m, _) = manager_with_paper_data();
        // Never synchronized: one homing-only step over all seven facts,
        // none of which an action selects yet.
        let s1 = m.sync(days_from_civil(2000, 4, 5)).unwrap();
        assert_eq!((s1.ticks, s1.rows_homed, s1.cells_delta), (0, 7, 0));
        let s2 = m.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(s2.cells_delta, 4); // facts 0..=3 move to the month cube
        assert_eq!(s2.merged, 1); // facts 1+2 merge into fact_12
        let s3 = m.sync(days_from_civil(2000, 11, 5)).unwrap();
        assert_eq!(s3.cells_delta, 5); // 3 month-level facts + facts 4,5
        assert_eq!(s3.merged, 2);
        assert!(s2.ticks >= 1 && s3.ticks > s2.ticks, "{s2:?} {s3:?}");
        assert_eq!(m.view().len(), 4);
    }

    #[test]
    fn figure8_query_over_synchronized_cubes() {
        // Q = α[month, domain_grp](σ[1999/6 < month ≤ 2000/5](O)) — the
        // shape of Figure 8's query, on the paper data at 2000/11/5.
        let (m, _) = manager_with_paper_data();
        let now = days_from_civil(2000, 11, 5);
        m.sync(now).unwrap();
        let grp = m
            .schema()
            .dim(sdr_mdm::DimId(1))
            .graph()
            .by_name("domain_grp")
            .unwrap();
        let q = CubeQuery {
            pred: Some(
                parse_pexp(m.schema(), "1999/6 < Time.month AND Time.month <= 2000/5").unwrap(),
            ),
            mode: SelectMode::Liberal,
            levels: vec![tc::MONTH, grp],
            approach: AggApproach::Availability,
        };
        for parallel in [false, true] {
            let r = m.query(&q, now, parallel).unwrap();
            let rendered: Vec<String> = r.facts().map(|f| r.render_fact(f)).collect();
            // The 1999Q4 facts (liberal: might be in range) stay at
            // quarter level and merge across domains: 689+2489 dwell.
            assert!(
                rendered.contains(&"fact(1999Q4, .com | 4, 3178, 10, 162000)".to_string()),
                "{rendered:?}"
            );
            // fact_45 aggregates to (2000/1, .com), fact_6 to (2000/1, .edu).
            assert!(rendered.contains(&"fact(2000/1, .com | 2, 955, 10, 99000)".to_string()));
            assert!(rendered.contains(&"fact(2000/1, .edu | 1, 32, 1, 12000)".to_string()));
        }
    }

    #[test]
    fn unsync_query_equals_synced_query() {
        // Load data, do NOT sync, and compare the un-synchronized query
        // against the query on a fully synced clone (Figure 9's strategy
        // must hide staleness).
        let now = days_from_civil(2000, 11, 5);
        let (stale, mo) = manager_with_paper_data();
        // Partially sync: only to an earlier time, so cubes are stale
        // relative to `now`.
        stale.sync(days_from_civil(2000, 6, 5)).unwrap();
        let fresh = {
            let schema = Arc::clone(mo.schema());
            let a1 = parse_action(&schema, ACTION_A1).unwrap();
            let a2 = parse_action(&schema, ACTION_A2).unwrap();
            let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
            let m = SubcubeManager::new(spec);
            m.bulk_load(&mo).unwrap();
            m
        };
        fresh.sync(now).unwrap();
        let domain = domain_cat(&stale);
        let q = CubeQuery {
            pred: None,
            mode: SelectMode::Conservative,
            levels: vec![tc::QUARTER, domain],
            approach: AggApproach::Availability,
        };
        for parallel in [false, true] {
            let a = stale.query_unsync(&q, now, parallel).unwrap();
            let b = fresh.query(&q, now, parallel).unwrap();
            let mut ra: Vec<String> = a.facts().map(|f| a.render_fact(f)).collect();
            let mut rb: Vec<String> = b.facts().map(|f| b.render_fact(f)).collect();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn unsync_query_on_never_synced_manager() {
        // Even with everything still in the bottom cube, the unsync query
        // must produce the reduced answer.
        let (m, mo) = manager_with_paper_data();
        let now = days_from_civil(2000, 11, 5);
        let domain = domain_cat(&m);
        let q = CubeQuery {
            pred: None,
            mode: SelectMode::Conservative,
            levels: vec![tc::YEAR, domain],
            approach: AggApproach::Availability,
        };
        let r = m.query_unsync(&q, now, false).unwrap();
        let expected = sdr_query::aggregate_ids(
            &reduce(&mo, &m.spec(), now).unwrap(),
            &[tc::YEAR, domain],
            AggApproach::Availability,
        )
        .unwrap();
        let mut ra: Vec<String> = r.facts().map(|f| r.render_fact(f)).collect();
        let mut rb: Vec<String> = expected.facts().map(|f| expected.render_fact(f)).collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn sync_never_moves_the_watermark_backwards() {
        let (m, mo) = manager_with_paper_data();
        let [_, earlier, watermark] = sdr_workload::snapshot_days();
        m.sync(watermark).unwrap();
        // Clean: an earlier day changes nothing, the watermark included.
        let s = m.sync(earlier).unwrap();
        assert_eq!(s, AgeStats::default());
        assert_eq!(m.last_sync(), Some(watermark));
        // Dirty: the new rows are homed as of the watermark, so the
        // warehouse is still the reduction at one day.
        m.bulk_load(&mo).unwrap();
        let s = m.sync(earlier).unwrap();
        assert_eq!((s.ticks, s.rows_homed), (0, mo.len()));
        assert_eq!(m.last_sync(), Some(watermark));
        let mut twice = mo.clone();
        twice.absorb(&mo).unwrap();
        let want = sdr_reduce::reduce_naive(&twice, &m.spec(), watermark).unwrap();
        let rows = |mo: &Mo| {
            let mut r: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
            r.sort();
            r
        };
        assert_eq!(rows(&m.to_mo().unwrap()), rows(&want));
    }

    #[test]
    fn measures_conserved_through_sync() {
        let (m, mo) = manager_with_paper_data();
        for t in sdr_workload::snapshot_days() {
            m.sync(t).unwrap();
            let whole = m.to_mo().unwrap();
            for j in 0..mo.schema().n_measures() {
                let mid = MeasureId(j as u16);
                let before: i64 = mo.facts().map(|f| mo.measure(f, mid)).sum();
                let after: i64 = whole.facts().map(|f| whole.measure(f, mid)).sum();
                assert_eq!(before, after);
            }
        }
    }

    #[test]
    fn storage_stats_shrink_with_reduction() {
        let (m, _) = manager_with_paper_data();
        m.sync(days_from_civil(2000, 4, 5)).unwrap();
        let before: usize = m.view().storage_stats().iter().map(|(_, s)| s.rows).sum();
        m.sync(days_from_civil(2000, 11, 5)).unwrap();
        let after: usize = m.view().storage_stats().iter().map(|(_, s)| s.rows).sum();
        assert!(after < before);
    }

    #[test]
    fn incremental_loads_between_syncs() {
        // Figure 7's scenario shape: load, sync, more data arrives, sync
        // again; totals stay consistent with monolithic reduction.
        let (m, mo) = manager_with_paper_data();
        m.sync(days_from_civil(2000, 6, 5)).unwrap();
        // New click arrives (bottom granularity).
        let mut newbie = Mo::new(Arc::clone(mo.schema()));
        let sdr_mdm::Dimension::Enum(e) = mo.schema().dim(sdr_mdm::DimId(1)) else {
            unreachable!()
        };
        let urlcat = mo
            .schema()
            .dim(sdr_mdm::DimId(1))
            .graph()
            .by_name("url")
            .unwrap();
        let u = e.value(urlcat, "http://www.cnn.com/").unwrap();
        let d = sdr_mdm::DimValue::new(
            tc::DAY,
            sdr_mdm::TimeValue::Day(days_from_civil(2000, 5, 7)).code(),
        );
        newbie.insert_fact(&[d, u], &[1, 100, 2, 9000]).unwrap();
        m.bulk_load(&newbie).unwrap();
        let now = days_from_civil(2001, 1, 5);
        m.sync(now).unwrap();
        let mut all = mo.clone();
        all.absorb(&newbie).unwrap();
        let expected = reduce(&all, &m.spec(), now).unwrap();
        let whole = m.to_mo().unwrap();
        let mut ra: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
        let mut rb: Vec<String> = expected.facts().map(|f| expected.render_fact(f)).collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use sdr_mdm::calendar::days_from_civil;
    use sdr_reduce::DataReductionSpec;
    use sdr_spec::parse_action;
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};
    use std::sync::Arc;

    #[test]
    fn next_sync_due_finds_month_boundaries() {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
        let v = SubcubeManager::new(spec).view();
        // a1's bounds are month-granular: from mid-June the next step is
        // July 1st.
        let due = v.next_sync_due(days_from_civil(2000, 6, 15)).unwrap();
        assert_eq!(sdr_mdm::calendar::civil_from_days(due), (2000, 7, 1));
        // From the very end of the horizon nothing remains.
        assert!(v.next_sync_due(days_from_civil(2002, 12, 30)).is_none());
    }

    #[test]
    fn needs_sync_tracks_step_days_and_loads() {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
        let m = SubcubeManager::new(spec);
        // Fresh manager always wants a first sync.
        assert!(m.view().needs_sync(days_from_civil(2000, 6, 5)));
        m.bulk_load(&mo).unwrap();
        m.sync(days_from_civil(2000, 6, 5)).unwrap();
        // Same month, later day: nothing stepped.
        assert!(!m.view().needs_sync(days_from_civil(2000, 6, 20)));
        // Crossing into July: a1's window moved.
        assert!(m.view().needs_sync(days_from_civil(2000, 7, 2)));
        // A bulk load dirties the manager even without time passing.
        let (more, _) = paper_mo();
        m.bulk_load(&more).unwrap();
        assert!(m.view().needs_sync(days_from_civil(2000, 6, 6)));
        // Homing the load needs no transition day: one homing-only step.
        let stats = m.sync(days_from_civil(2000, 6, 6)).unwrap();
        assert_eq!((stats.ticks, stats.rows_homed), (0, more.len()));
        assert!(!m.view().needs_sync(days_from_civil(2000, 6, 20)));
    }
}
