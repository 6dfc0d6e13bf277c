//! Integration tests for the implementation strategy of Section 7
//! (Figures 6–9), driven at a larger scale than the paper's seven facts:
//! a synthetic click-stream warehouse with the standard retention policy.
//!
//! Each figure's warehouse is a one-shard durable warehouse that
//! additionally survives a crash before its assertions run: the state is
//! checkpointed, the write-ahead log gets a torn record (a simulated power
//! cut mid-append), and the warehouse is recovered from disk.

use std::io::Write;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat, Mo};
use specdr::query::{AggApproach, SelectMode};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::spec::{parse_action, parse_pexp};
use specdr::subcube::{CubeId, CubeQuery, ShardRouter, WarehouseView};
use specdr::workload::{generate, retention_policy, ClickstreamConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A one-shard warehouse in a fresh temporary directory, removed on drop.
struct Warehouse(ShardRouter);

impl Warehouse {
    fn new(spec: DataReductionSpec) -> Warehouse {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("specdr-subfig-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Warehouse(ShardRouter::create(spec, &dir, 1).unwrap())
    }

    /// The one shard's published view.
    fn view(&self) -> WarehouseView {
        self.view_set().views()[0].clone()
    }

    /// Checkpoints, simulates a crash mid-append (a torn record on the
    /// write-ahead log), and recovers the warehouse from disk. The
    /// recovered warehouse must be behaviorally identical to the live
    /// one — the figure assertions run against it.
    fn crash_roundtrip(&mut self) {
        let epoch = self.checkpoint().unwrap();
        let wal = self.dir().join(format!("wal-{epoch:06}.log"));
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[42, 0, 0, 0, 0xDE, 0xAD]).unwrap();
        drop(f);
        let (rec, report) = ShardRouter::recover(self.spec().as_ref().clone(), self.dir()).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.dropped_bytes, 6);
        self.0 = rec;
    }
}

impl Deref for Warehouse {
    type Target = ShardRouter;
    fn deref(&self) -> &ShardRouter {
        &self.0
    }
}

impl Drop for Warehouse {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.dir()).ok();
    }
}

fn build_manager(clicks_per_day: usize) -> (Warehouse, Mo) {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day,
        start: (1999, 1, 1),
        end: (2000, 12, 28),
        ..Default::default()
    });
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let m = Warehouse::new(spec);
    m.bulk_load(&cs.mo).unwrap();
    (m, cs.mo)
}

fn sorted_rows(mo: &Mo) -> Vec<String> {
    let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    v.sort();
    v
}

/// Figure 6: one cube per distinct action granularity + the bottom cube,
/// arranged in a parent→child DAG along which data flows.
#[test]
fn figure6_cube_dag() {
    let (mut m, _) = build_manager(10);
    m.crash_roundtrip();
    let v = m.view();
    assert_eq!(v.cubes().len(), 3);
    assert_eq!(v.cubes()[0].grain, m.schema().bottom_granularity());
    assert_eq!(v.parents(CubeId(1)), &[CubeId(0)]);
    assert_eq!(v.parents(CubeId(2)), &[CubeId(1)]);
    // All loaded data sits in the bottom cube before synchronization.
    assert_eq!(v.cubes()[0].data().len(), m.len());
}

/// Figure 7: synchronization migrates facts bottom → month → quarter as
/// NOW advances, and the physical content always equals the monolithic
/// reduction of Definition 2.
#[test]
fn figure7_sync_flow_matches_reduce() {
    let (mut m, mo) = build_manager(20);
    for (y, mm) in [(1999, 8), (2000, 6), (2002, 3), (2004, 6)] {
        let now = days_from_civil(y, mm, 15);
        m.sync(now).unwrap();
        m.crash_roundtrip();
        let physical = m.view_set().to_mo().unwrap();
        let logical = reduce(&mo, &m.spec(), now).unwrap();
        assert_eq!(
            sorted_rows(&physical),
            sorted_rows(&logical),
            "divergence at {y}/{mm}"
        );
    }
    // By 2004/6 everything old sits in the quarter cube; the bottom cube
    // holds only recent data (there is none, the stream stops in 2000).
    m.crash_roundtrip();
    let v = m.view();
    assert_eq!(v.cubes()[0].data().len(), 0);
    assert_eq!(v.cubes()[1].data().len(), 0);
    assert!(!v.cubes()[2].data().is_empty());
}

/// Figure 8: parallel sub-query evaluation over synchronized cubes equals
/// the same query over the monolithic reduced MO.
#[test]
fn figure8_query_equals_monolithic() {
    let (mut m, mo) = build_manager(20);
    let now = days_from_civil(2001, 6, 15);
    m.sync(now).unwrap();
    m.crash_roundtrip();
    let grp = m.schema().resolve_cat("URL.domain_grp").unwrap().1;
    let q = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "URL.domain_grp = .com").unwrap()),
        mode: SelectMode::Conservative,
        levels: vec![time_cat::QUARTER, grp],
        approach: AggApproach::Availability,
    };
    let via_cubes = m.view_set().query(&q, now, true).unwrap();
    let logical = reduce(&mo, &m.spec(), now).unwrap();
    let selected = specdr::query::select(
        &logical,
        q.pred.as_ref().unwrap(),
        now,
        SelectMode::Conservative,
    )
    .unwrap();
    let expected = specdr::query::aggregate_ids(
        &selected,
        &[time_cat::QUARTER, grp],
        AggApproach::Availability,
    )
    .unwrap();
    assert_eq!(sorted_rows(&via_cubes), sorted_rows(&expected));
    // Sequential evaluation gives the identical answer.
    let seq = m.view_set().query(&q, now, false).unwrap();
    assert_eq!(sorted_rows(&via_cubes), sorted_rows(&seq));
}

/// Figure 9: querying the un-synchronized state — stale by several
/// months — still produces the synchronized answer.
#[test]
fn figure9_unsync_equals_sync() {
    let (mut m, _) = build_manager(20);
    m.sync(days_from_civil(2000, 1, 15)).unwrap();
    m.crash_roundtrip();
    // Warehouse is now ~18 months stale relative to the query time.
    let now = days_from_civil(2001, 8, 1);
    let domain = m.schema().resolve_cat("URL.domain").unwrap().1;
    let q = CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels: vec![time_cat::YEAR, domain],
        approach: AggApproach::Availability,
    };
    let unsync = m.view_set().query_unsync(&q, now, true).unwrap();
    m.sync(now).unwrap();
    let synced = m.view_set().query(&q, now, true).unwrap();
    assert_eq!(sorted_rows(&unsync), sorted_rows(&synced));
}

/// Bulk loads interleaved with syncs keep the warehouse equal to the
/// monolithic reduction of the concatenated stream.
#[test]
fn interleaved_loads_and_syncs() {
    let cs1 = generate(&ClickstreamConfig {
        clicks_per_day: 15,
        start: (1999, 1, 1),
        end: (1999, 12, 28),
        ..Default::default()
    });
    let cs2 = generate(&ClickstreamConfig {
        seed: 99,
        clicks_per_day: 15,
        start: (2000, 1, 1),
        end: (2000, 6, 28),
        ..Default::default()
    });
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs1.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs1.schema), actions).unwrap();
    let mut m = Warehouse::new(spec);
    m.bulk_load(&cs1.mo).unwrap();
    m.sync(days_from_civil(2000, 1, 5)).unwrap();
    m.bulk_load(&cs2.mo).unwrap();
    let now = days_from_civil(2001, 3, 5);
    m.sync(now).unwrap();
    m.crash_roundtrip();
    let mut all = cs1.mo.clone();
    all.absorb(&cs2.mo).unwrap();
    let logical = reduce(&all, &m.spec(), now).unwrap();
    assert_eq!(
        sorted_rows(&m.view_set().to_mo().unwrap()),
        sorted_rows(&logical)
    );
}

/// Storage accounting: the reduced, encoded warehouse is much smaller
/// than the raw one (experiment E1's invariant at test scale).
#[test]
fn storage_shrinks_dramatically_with_age() {
    let (mut m, mo) = build_manager(50);
    let raw = specdr::storage::table_stats(&mo);
    m.sync(days_from_civil(2004, 6, 15)).unwrap();
    m.crash_roundtrip();
    let reduced: usize = m
        .view()
        .storage_stats()
        .iter()
        .map(|(_, s)| s.encoded_bytes)
        .sum();
    assert!(
        (reduced as f64) < raw.raw_bytes as f64 / 50.0,
        "raw={} reduced={}",
        raw.raw_bytes,
        reduced
    );
}
