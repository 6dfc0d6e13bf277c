//! Warehouse introspection: `specdr explain --query/--reduce/--age`.
//!
//! Runs one operation — a subcube query or a reduction — with the
//! `sdr-obs` registry recording, then assembles an
//! [`Introspection`]: the subcube DAG annotated with each cube's exact
//! [`SubcubeStats`](crate::subcube::SubcubeStats) (rows, bytes, distinct
//! values, zone map, epoch), which cubes the operation scanned and which
//! were skippable (their selection matched nothing), memoization hits,
//! and a per-phase time/row breakdown aggregated from the hierarchical
//! trace spans the instrumented kernels emit.
//!
//! The numbers are **exact, not estimates**: per-cube row counts come
//! from the maintained stats, and the scanned/output counts
//! come from span attributes the kernels stamp with the same locals they
//! return to callers — `tests/introspect.rs` asserts both against naive
//! recomputation. Rendering follows the CLI's three formats: an aligned
//! table for humans, one JSON object for machines, and a chrome
//! `trace_event` document (load in `chrome://tracing` or Perfetto) for
//! the raw span tree.

use std::sync::Arc;

use sdr_mdm::{DayNum, Mo};
use sdr_obs::Snapshot;
use sdr_query::QueryError;
use sdr_subcube::{AgeStats, CubeQuery, ShardRouter, ShardViewSet, SubcubeError, WarehouseView};

/// One cube of the warehouse DAG, annotated for explain output.
#[derive(Debug, Clone)]
pub struct CubeReport {
    /// Cube index (`K0` is the bottom cube).
    pub id: usize,
    /// Rendered granularity, e.g. `(Time.month, URL.domain)`.
    pub grain: String,
    /// Immediate parents in the data-flow DAG.
    pub parents: Vec<usize>,
    /// Facts in the cube (from its maintained stats).
    pub rows: u64,
    /// Resident bytes of the cube's columnar store.
    pub bytes: u64,
    /// Shard version epoch at which the cube's facts last changed.
    pub epoch: u64,
    /// Distinct direct values per dimension (schema order).
    pub distinct: Vec<u32>,
    /// Zone map over the packed cell key, when the schema packs.
    pub key_range: Option<(u128, u128)>,
    /// True when the operation evaluated this cube.
    pub scanned: bool,
    /// Rows this cube contributed to the operation's result.
    pub rows_out: u64,
    /// The cube's chunks.
    pub chunks: u64,
    /// Chunks of a scanned cube the query read, and those its hull test
    /// skipped (both 0 when the cube was not scanned).
    pub chunks_scanned: u64,
    /// See [`chunks_scanned`](CubeReport::chunks_scanned).
    pub chunks_skipped: u64,
    /// True when scanning the cube was provably unnecessary — the
    /// operation read it and produced nothing from it.
    pub skippable: bool,
    /// The query planner's verdict (`"scan"`, `"skip(empty)"`,
    /// `"skip(zone)"`, `"skip(region)"`); `None` for non-query
    /// operations, which have no plan.
    pub planned: Option<String>,
    /// The planner's scan-cost estimate (stored rows — exact, since
    /// statistics are maintained). `None` when there is no plan.
    pub cost: Option<u64>,
}

/// One phase of the operation: all trace spans sharing a path,
/// aggregated.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// The span path, e.g. `subcube.query/subcube.query.subquery`.
    pub path: String,
    /// Number of spans on this path.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Summed `rows_in` attributes (0 when never stamped).
    pub rows_in: u64,
    /// Summed `rows_out` attributes.
    pub rows_out: u64,
}

/// The assembled introspection report for one operation.
#[derive(Debug, Clone)]
pub struct Introspection {
    /// What ran: `"query"`, `"query_unsync"` or `"age"`.
    pub op: String,
    /// The `NOW` the operation ran at.
    pub now: DayNum,
    /// The shard's version epoch after the operation: the shard
    /// publishes one version per reduction step, on the same clock as
    /// the cubes' `epoch`s. It is not the router's set epoch (one per
    /// operation) that `serve`'s explain and `specdr concurrent` print.
    pub epoch: u64,
    /// Rows in the operation's result (query answer or post-reduction
    /// total).
    pub result_rows: u64,
    /// The annotated subcube DAG.
    pub cubes: Vec<CubeReport>,
    /// Per-phase time/row breakdown, sorted by path.
    pub phases: Vec<PhaseReport>,
    /// The full metric snapshot of the run (counters, spans, traces) —
    /// `--format=trace` renders its span tree.
    pub snapshot: Snapshot,
}

fn attr_u64(attrs: &[(String, String)], key: &str) -> Option<u64> {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}

fn attr_str<'a>(attrs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Runs `op` with the global registry recording (restoring the previous
/// enabled state afterwards) and returns its result plus the snapshot.
fn recorded<T>(
    op: impl FnOnce() -> Result<T, SubcubeError>,
) -> Result<(T, Snapshot), SubcubeError> {
    let was_enabled = sdr_obs::enabled();
    sdr_obs::set_enabled(true);
    sdr_obs::reset();
    let result = op();
    let snap = sdr_obs::snapshot();
    sdr_obs::set_enabled(was_enabled);
    let value = result?;
    Ok((value, snap))
}

fn phases_of(snap: &Snapshot) -> Vec<PhaseReport> {
    let mut by_path = std::collections::BTreeMap::<&str, PhaseReport>::new();
    for t in &snap.traces {
        let p = by_path.entry(&t.path).or_insert_with(|| PhaseReport {
            path: t.path.clone(),
            ..PhaseReport::default()
        });
        p.count += 1;
        p.total_ns += t.dur_ns;
        p.rows_in += attr_u64(&t.attrs, "rows_in").unwrap_or(0);
        p.rows_out += attr_u64(&t.attrs, "rows_out").unwrap_or(0);
    }
    by_path.into_values().collect()
}

/// The one shard's view of `set`: the subcube DAG an explain annotates
/// is a shard's, so a warehouse of several shards is refused with a
/// typed error rather than reported as one of its shards.
fn sole_view(set: &ShardViewSet) -> Result<WarehouseView, SubcubeError> {
    match set.views() {
        [one] => Ok(one.clone()),
        views => Err(QueryError::Unsupported(format!(
            "explain annotates one shard's subcube DAG; the warehouse has {} shards",
            views.len()
        ))
        .into()),
    }
}

/// The DAG skeleton: every cube with its maintained stats, not yet
/// annotated with scan results.
fn dag_of(view: &WarehouseView) -> Vec<CubeReport> {
    let schema = Arc::clone(view.schema());
    view.cubes()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let s = c.stats();
            CubeReport {
                id: i,
                grain: schema.render_granularity(&c.grain),
                parents: view
                    .parents(sdr_subcube::CubeId(i))
                    .iter()
                    .map(|p| p.0)
                    .collect(),
                rows: s.rows,
                bytes: s.bytes,
                epoch: s.last_epoch,
                distinct: s.dims.iter().map(|d| d.distinct).collect(),
                key_range: s.key_min.zip(s.key_max),
                scanned: false,
                rows_out: 0,
                chunks: c.chunks().len() as u64,
                chunks_scanned: 0,
                chunks_skipped: 0,
                skippable: false,
                planned: None,
                cost: None,
            }
        })
        .collect()
}

/// Explains a query: evaluates `q` on the one-shard warehouse's current
/// view with tracing on and returns the answer plus the annotated
/// report; a warehouse of several shards is a
/// [`QueryError::Unsupported`] error.
/// Scanned/output counts per cube come from the `subcube.query.subquery`
/// span attributes; a scanned cube that contributed no rows is marked
/// skippable. Each cube also carries the planner's verdict (scan with a
/// cost estimate, or the skip reason) — planning is deterministic, so
/// the report's plan is the one the evaluation followed.
///
/// With `unsync` the query is the un-synchronized one
/// ([`query_unsync`](sdr_subcube::WarehouseView::query_unsync), op
/// `"query_unsync"`): the DAG, scans and planner verdicts are those of
/// the **virtually aged** version the answer came from (nothing was
/// published: `epoch` is the pinned view's), and the report carries the
/// `subcube.query.virtual_age` span, which the table and JSON renderings
/// show as the memo line.
pub fn explain_query(
    router: &ShardRouter,
    q: &CubeQuery,
    now: DayNum,
    parallel: bool,
    unsync: bool,
) -> Result<(Mo, Introspection), SubcubeError> {
    let pinned = sole_view(&router.view_set())?;
    let ((view, answer), snap) = recorded(|| {
        let view = if unsync {
            pinned.virtual_age(now)?.0
        } else {
            pinned.clone()
        };
        let answer = view.query(q, now, parallel)?;
        Ok((view, answer))
    })?;
    let mut cubes = dag_of(&view);
    annotate_query_scans(&mut cubes, &snap);
    annotate_plan(&mut cubes, &view.plan(q, now, view.region_oracle()));
    let report = Introspection {
        op: if unsync { "query_unsync" } else { "query" }.into(),
        now,
        epoch: pinned.epoch(),
        result_rows: answer.len() as u64,
        cubes,
        phases: phases_of(&snap),
        snapshot: snap,
    };
    Ok((answer, report))
}

/// Marks every cube with a `subcube.query.subquery` span as scanned and
/// copies its `rows_out`, `chunks_scanned` and `chunks_skipped`
/// attributes; a scanned cube that produced nothing is skippable. Spans stamped with a `skipped` attr were planner skips:
/// the cube was *not* evaluated (and by planner soundness contributed
/// nothing).
fn annotate_query_scans(cubes: &mut [CubeReport], snap: &Snapshot) {
    for t in &snap.traces {
        if t.name != "subcube.query.subquery" {
            continue;
        }
        let Some(id) = attr_str(&t.attrs, "subcube")
            .and_then(|s| s.strip_prefix('K'))
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        if let Some(c) = cubes.get_mut(id) {
            if attr_str(&t.attrs, "skipped").is_some() {
                c.scanned = false;
                c.rows_out = 0;
                c.skippable = false;
                continue;
            }
            c.scanned = true;
            c.rows_out = attr_u64(&t.attrs, "rows_out").unwrap_or(0);
            c.chunks_scanned = attr_u64(&t.attrs, "chunks_scanned").unwrap_or(0);
            c.chunks_skipped = attr_u64(&t.attrs, "chunks_skipped").unwrap_or(0);
            c.skippable = c.rows_out == 0;
        }
    }
}

/// Stamps each cube with the verdict and cost of `plan` — re-planned by
/// the caller exactly as the evaluation planned (planning is
/// deterministic and side-effect-free).
fn annotate_plan(cubes: &mut [CubeReport], plan: &sdr_plan::QueryPlan) {
    for (c, p) in cubes.iter_mut().zip(&plan.cubes) {
        match p.decision {
            sdr_plan::Decision::Scan { cost } => {
                c.planned = Some("scan".into());
                c.cost = Some(cost);
            }
            sdr_plan::Decision::Skip { reason } => {
                c.planned = Some(format!("skip({})", reason.label()));
                c.cost = Some(0);
            }
        }
    }
}

/// Explains a reduction: runs [`ShardRouter::age`] to `until` on a
/// one-shard warehouse with tracing on and reports the DAG it leaves (a
/// warehouse of several shards is a [`QueryError::Unsupported`] error,
/// and nothing is aged). The phase table lists the
/// steps (`subcube.age.tick`, one per transition day or one homing-only
/// step) under the router's `shard.age` with their summed
/// `rows_in`/`rows_out` — on a warehouse never
/// synchronized the one step examines every row, on a synchronized one
/// only what the transitions touch. The schedule the steps follow was
/// analyzed when the specification was built (`reduce.analyze`), before
/// this recording, so no scheduling phase appears. Every cube counts as
/// scanned; `rows_out` is each cube's row count afterwards.
pub fn explain_age(
    router: &ShardRouter,
    until: DayNum,
) -> Result<(AgeStats, Introspection), SubcubeError> {
    sole_view(&router.view_set())?;
    let (stats, snap) = recorded(|| router.age(until))?;
    let view = sole_view(&router.view_set())?;
    let mut cubes = dag_of(&view);
    for c in &mut cubes {
        c.scanned = true;
        c.rows_out = c.rows;
        c.skippable = false;
    }
    let report = Introspection {
        op: "age".into(),
        now: until,
        epoch: view.epoch(),
        result_rows: view.len() as u64,
        cubes,
        phases: phases_of(&snap),
        snapshot: snap,
    };
    Ok((stats, report))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_ns(v: u64) -> String {
    if v < 1_000 {
        format!("{v}ns")
    } else if v < 1_000_000 {
        format!("{:.1}µs", v as f64 / 1e3)
    } else if v < 1_000_000_000 {
        format!("{:.1}ms", v as f64 / 1e6)
    } else {
        format!("{:.2}s", v as f64 / 1e9)
    }
}

impl Introspection {
    /// The attributes of the run's first `subcube.query.virtual_age` span
    /// (`memo`, `ticks`, `rows_homed`, …) — present for un-synchronized
    /// queries only; rendered as the memo line.
    pub fn virtual_age(&self) -> Option<&[(String, String)]> {
        let span = self
            .snapshot
            .traces
            .iter()
            .find(|t| t.name == "subcube.query.virtual_age")?;
        Some(&span.attrs)
    }

    /// Renders one JSON object (stable key order; keys documented in
    /// `DESIGN.md` § Introspection).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"op\":\"{}\",\"now\":{},\"epoch\":{},\"result_rows\":{},",
            json_escape(&self.op),
            self.now,
            self.epoch,
            self.result_rows
        ));
        if let Some(attrs) = self.virtual_age() {
            let attrs: Vec<String> = attrs
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
                .collect();
            out.push_str(&format!("\"virtual_age\":{{{}}},", attrs.join(",")));
        }
        out.push_str("\"cubes\":[");
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parents: Vec<String> = c.parents.iter().map(|p| p.to_string()).collect();
            let distinct: Vec<String> = c.distinct.iter().map(|d| d.to_string()).collect();
            let keys = match c.key_range {
                Some((lo, hi)) => format!("\"key_min\":\"{lo:#x}\",\"key_max\":\"{hi:#x}\","),
                None => String::new(),
            };
            let planned = match (&c.planned, c.cost) {
                (Some(p), Some(cost)) => {
                    format!("\"planned\":\"{}\",\"cost\":{cost},", json_escape(p))
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "{{\"id\":{},\"grain\":\"{}\",\"parents\":[{}],\"rows\":{},\"bytes\":{},\
                 \"epoch\":{},\"distinct\":[{}],{keys}{planned}\"scanned\":{},\"rows_out\":{},\
                 \"chunks\":{},\"chunks_scanned\":{},\"chunks_skipped\":{},\"skippable\":{}}}",
                c.id,
                json_escape(&c.grain),
                parents.join(","),
                c.rows,
                c.bytes,
                c.epoch,
                distinct.join(","),
                c.scanned,
                c.rows_out,
                c.chunks,
                c.chunks_scanned,
                c.chunks_skipped,
                c.skippable
            ));
        }
        out.push_str("],\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"count\":{},\"total_ns\":{},\"rows_in\":{},\
                 \"rows_out\":{}}}",
                json_escape(&p.path),
                p.count,
                p.total_ns,
                p.rows_in,
                p.rows_out
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders an aligned human-readable report.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "explain {}: epoch {}, {} result rows\n",
            self.op, self.epoch, self.result_rows
        ));
        if let Some(attrs) = self.virtual_age() {
            let attrs: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("virtual age: {}\n", attrs.join(" ")));
        }
        out.push_str("\nsubcube DAG:\n");
        for c in &self.cubes {
            let parents: Vec<String> = c.parents.iter().map(|p| format!("K{p}")).collect();
            let mark = match (&c.planned, c.scanned) {
                (Some(p), false) if p.starts_with("skip") => {
                    format!("planner skipped: {p}")
                }
                (Some(_), true) if c.skippable => {
                    format!(
                        "planned scan (cost={}), skippable (0 rows matched)",
                        c.cost.unwrap_or(c.rows)
                    )
                }
                (Some(_), true) => format!("planned scan (cost={})", c.cost.unwrap_or(c.rows)),
                (_, false) => "not scanned".to_string(),
                (_, true) if c.skippable => "scanned, skippable (0 rows matched)".to_string(),
                (_, true) => "scanned".to_string(),
            };
            out.push_str(&format!(
                "  K{} {:<38} rows={:<8} bytes={:<10} epoch={:<4} parents=[{}]\n",
                c.id,
                c.grain,
                c.rows,
                c.bytes,
                c.epoch,
                parents.join(",")
            ));
            let distinct: Vec<String> = c.distinct.iter().map(|d| d.to_string()).collect();
            let chunks = if c.chunks_scanned + c.chunks_skipped > 0 {
                format!(
                    "chunks={} (scanned={} skipped={})",
                    c.chunks, c.chunks_scanned, c.chunks_skipped
                )
            } else {
                format!("chunks={}", c.chunks)
            };
            out.push_str(&format!(
                "     distinct/dim=[{}] {mark}, rows_out={}, {chunks}\n",
                distinct.join(","),
                c.rows_out
            ));
        }
        out.push_str(&format!(
            "\nphases:\n  {:<62} {:>6} {:>10} {:>10} {:>10}\n",
            "path", "count", "time", "rows_in", "rows_out"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<62} {:>6} {:>10} {:>10} {:>10}\n",
                p.path,
                p.count,
                fmt_ns(p.total_ns),
                p.rows_in,
                p.rows_out
            ));
        }
        out
    }

    /// Renders the run's span tree as a chrome `trace_event` document.
    pub fn to_chrome_trace(&self) -> String {
        self.snapshot.to_chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::{calendar::days_from_civil, time_cat as tc};
    use sdr_query::{AggApproach, SelectMode};
    use sdr_reduce::DataReductionSpec;
    use sdr_spec::parse_action;
    use sdr_storage::fs::MemFs;
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};

    fn warehouse(shards: usize) -> ShardRouter {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
        let dir = std::path::Path::new("/w");
        let w = ShardRouter::create_with_fs(spec, dir, shards, MemFs::shared()).unwrap();
        w.bulk_load(&mo).unwrap();
        w
    }

    #[test]
    fn explain_query_annotates_every_cube_and_restores_registry() {
        let _g = crate::OBS_REGISTRY.lock().unwrap();
        let m = warehouse(1);
        let now = days_from_civil(2000, 11, 5);
        m.sync(now).unwrap();
        sdr_obs::set_enabled(false);
        let q = CubeQuery {
            pred: None,
            mode: SelectMode::Conservative,
            levels: vec![tc::YEAR, m.schema().dim(sdr_mdm::DimId(1)).graph().top()],
            approach: AggApproach::Availability,
        };
        let (answer, report) = explain_query(&m, &q, now, true, false).unwrap();
        assert!(!sdr_obs::enabled(), "registry state restored");
        assert_eq!(report.op, "query");
        assert_eq!(report.result_rows, answer.len() as u64);
        assert_eq!(report.cubes.len(), m.view_set().views()[0].cubes().len());
        for c in &report.cubes {
            // Every cube is either evaluated or provably irrelevant —
            // and the planner's verdict agrees with what actually ran.
            match c.planned.as_deref() {
                Some("scan") => assert!(c.scanned, "planned scan must run: {c:?}"),
                Some(skip) => {
                    assert!(skip.starts_with("skip("), "{c:?}");
                    assert!(!c.scanned, "planner-skipped cube must not run: {c:?}");
                }
                None => panic!("query explain always carries a plan: {c:?}"),
            }
        }
        assert!(
            report.cubes.iter().any(|c| c.scanned),
            "a non-empty warehouse scans at least one cube"
        );
        // The per-cube output rows sum to at least the answer (the final
        // combine can only merge rows, never invent them).
        let contributed: u64 = report.cubes.iter().map(|c| c.rows_out).sum();
        assert!(contributed >= report.result_rows);
        // Formats render and carry the cube ids.
        let (t, j) = (report.to_table(), report.to_json());
        assert!(t.contains("K0") && t.contains("subcube DAG"), "{t}");
        assert!(j.starts_with('{') && j.contains("\"op\":\"query\""), "{j}");
        assert!(report.to_chrome_trace().contains("traceEvents"));
    }

    #[test]
    fn explain_age_reports_phase_breakdown() {
        let _g = crate::OBS_REGISTRY.lock().unwrap();
        let m = warehouse(1);
        let now = days_from_civil(2000, 6, 5);
        let loaded = m.len();
        let (stats, report) = explain_age(&m, now).unwrap();
        assert_eq!(report.op, "age");
        assert!(stats.cells_delta > 0);
        let paths: Vec<&str> = report.phases.iter().map(|p| p.path.as_str()).collect();
        assert!(paths.contains(&"shard.age/subcube.age"), "{paths:?}");
        // The span attributes agree with the stats the call returned:
        // the one step of a never-synchronized warehouse examines every
        // loaded fact, the outer span stamps the warehouse total after.
        let tick = report
            .phases
            .iter()
            .find(|p| p.path == "shard.age/subcube.age/subcube.age.tick")
            .unwrap_or_else(|| panic!("{paths:?}"));
        assert_eq!((tick.count, tick.rows_in), (1, loaded as u64));
        assert_eq!(stats.rows_homed, loaded);
        let age = report
            .phases
            .iter()
            .find(|p| p.path == "shard.age/subcube.age")
            .unwrap();
        assert_eq!(age.rows_out, report.result_rows);
        assert_eq!(
            report.cubes.iter().map(|c| c.rows).sum::<u64>(),
            report.result_rows
        );
    }

    #[test]
    fn explain_refuses_a_warehouse_of_several_shards() {
        let _g = crate::OBS_REGISTRY.lock().unwrap();
        let m = warehouse(2);
        let now = days_from_civil(2000, 11, 5);
        let q = CubeQuery {
            pred: None,
            mode: SelectMode::Conservative,
            levels: m.schema().bottom_granularity().0,
            approach: AggApproach::Availability,
        };
        let refused = |e: SubcubeError| {
            assert!(
                matches!(e, SubcubeError::Query(QueryError::Unsupported(_))),
                "{e}"
            )
        };
        refused(explain_query(&m, &q, now, true, false).unwrap_err());
        refused(explain_age(&m, now).unwrap_err());
        assert_eq!(m.last_sync(), None, "a refused explain ages nothing");
    }
}
