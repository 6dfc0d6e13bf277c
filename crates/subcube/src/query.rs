//! Querying a set of subcubes (Section 7.3).
//!
//! A query is evaluated on every subcube *separately and in parallel*,
//! producing up to `m` sub-results that are combined by **one** final
//! aggregation — exact because all default aggregate functions are
//! distributive (Section 3). One scan loop (`eval_per_cube`, over the
//! cubes a [`QueryPlan`] scans; the naive fan-out is that loop under
//! [`QueryPlan::scan_all`]) feeds one `merge`, applied once per query
//! at whichever level is the top: a view merges its own sub-results, a
//! sharded set every shard's. `parallel` fans a view's scanned cubes out
//! over scoped threads; a set of several shards fans out the shards
//! instead. Two states are supported:
//!
//! * **synchronized** — each cube holds exactly its own facts; the
//!   planner skips the cubes whose statistics prove them irrelevant, the
//!   query runs on the rest and the sub-results are unioned and
//!   re-aggregated (Figure 8);
//! * **un-synchronized** — facts may still sit in ancestor cubes, or
//!   un-homed in the bottom cube. The paper answers with a *virtual*
//!   synchronization (`α[G_i]σ[P_i](K_i ∪ parents)`, Figure 9); here that
//!   is literally one: [`WarehouseView::query_unsync`]`(q, now)` is
//!   [`WarehouseView::query`]`(q, now)` on the version `age(now)` would
//!   publish ([`WarehouseView::virtual_age`]), computed by the write
//!   path's own reduction steps, published nowhere, and kept in a single
//!   slot on the pinned version so the next read of the same `(version,
//!   now)` finds it. The aged version's chunk summaries fold into exact
//!   statistics, so this path is planned like the other. Query answers
//!   are thereby independent of the sync state, which the test suite
//!   verifies.
//!
//! Evaluation runs against a [`WarehouseView`] — one pinned version of
//! the warehouse — so a multi-cube fan-out can never mix cube states from
//! before and after a concurrent sync. Worker threads receive `Arc<Mo>`
//! snapshots outright; no lock is held anywhere during evaluation.

use std::sync::{Arc, OnceLock};

use sdr_mdm::{DayNum, Mo, Schema};
use sdr_plan::{CubeSummary, QueryPlan, RegionOracle};
use sdr_query::{aggregate_ids, select_snapshot, AggApproach, SelectMode};
use sdr_spec::Pexp;
use sdr_sync::thread;

use crate::error::SubcubeError;
use crate::manager::{union, Subcube, SubcubeManager, WarehouseView};

/// A query against the subcube warehouse: optional selection followed by
/// aggregate formation (the operators of Section 6).
#[derive(Debug, Clone)]
pub struct CubeQuery {
    /// Selection predicate (`None` = all facts).
    pub pred: Option<Pexp>,
    /// Selection mode for varying granularities.
    pub mode: SelectMode,
    /// Aggregation target, one category per dimension.
    pub levels: Vec<sdr_mdm::CatId>,
    /// Aggregation approach for varying granularities.
    pub approach: AggApproach,
}

/// The planner's view of one cube: exact maintained statistics plus the
/// cube's granularity.
fn summarize(c: &Subcube) -> CubeSummary {
    let s = c.stats();
    CubeSummary {
        rows: s.rows,
        hulls: s.hulls.clone(),
        origins: s.origins.clone(),
        grain: c.grain.0.clone(),
    }
}

/// `SDR_PLAN_VERIFY=1` — debug mode: planner-skipped cubes are evaluated
/// anyway and the process panics if one contributes a row (the
/// differential suite runs the whole test matrix under this). Read from
/// the environment once per process.
fn plan_verify() -> bool {
    static VERIFY: OnceLock<bool> = OnceLock::new();
    *VERIFY.get_or_init(|| std::env::var("SDR_PLAN_VERIFY").is_ok_and(|v| v == "1"))
}

/// `f` over every item concurrently, results in item order. The calling
/// thread takes the first item itself and only the others get a scoped
/// thread: a caller that spawns one worker per item and sleeps on the
/// joins leaves all of them to be placed at once, and two new threads
/// regularly start on the same core while the caller's idles — the
/// fan-out then waits for a worker that has not run yet.
pub(crate) fn fan_out<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut results = vec![f(first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("fan-out worker panicked")),
        );
        results
    })
}

impl WarehouseView {
    /// Plans `q` against this view's cubes: a scan/skip verdict per cube
    /// from their exact statistics (and `oracle`'s proved regions, when
    /// given), plus a cheapest-first scan order. Pruning is sound: the
    /// planned evaluation returns exactly the naive full fan-out's
    /// answer.
    pub fn plan(&self, q: &CubeQuery, now: DayNum, oracle: Option<&RegionOracle>) -> QueryPlan {
        let summaries: Vec<CubeSummary> = self.cubes().iter().map(summarize).collect();
        sdr_plan::plan(
            self.schema(),
            q.pred.as_ref(),
            q.mode,
            now,
            &summaries,
            oracle,
        )
    }

    /// Evaluates `q` assuming synchronized cubes, planned with the full
    /// oracle set: cubes proved irrelevant by their exact statistics
    /// (empty, hull-disjoint) or by the schedule's proved regions
    /// ([`region_oracle`](WarehouseView::region_oracle)) are skipped, the
    /// rest scanned — one worker per scanned cube (scoped threads) when
    /// `parallel` — and the sub-results merged.
    /// [`query_planned`](WarehouseView::query_planned) chooses the
    /// oracle, [`query_naive`](WarehouseView::query_naive) is the
    /// unplanned full fan-out.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        self.query_planned(q, now, parallel, self.region_oracle())
    }

    /// [`query`](WarehouseView::query) with the region oracle the caller
    /// picks (`None`: statistics-only pruning).
    pub fn query_planned(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
        oracle: Option<&RegionOracle>,
    ) -> Result<Mo, SubcubeError> {
        let plan = self.plan(q, now, oracle);
        let parts = self.eval_per_cube(q, now, parallel, &plan)?;
        merge(self.schema(), q, &parts)
    }

    /// The unplanned full fan-out over every cube — what
    /// [`query`](WarehouseView::query) degenerates to when nothing can be
    /// pruned. Kept as the differential baseline: planned and naive
    /// answers must be identical.
    pub fn query_naive(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        let rows: Vec<u64> = self.cubes().iter().map(|c| c.rows() as u64).collect();
        let plan = QueryPlan::scan_all(&rows);
        let parts = self.eval_per_cube(q, now, parallel, &plan)?;
        merge(self.schema(), q, &parts)
    }

    /// Evaluates `q` without assuming synchronization: the planned
    /// [`query`](WarehouseView::query) on this view
    /// [virtually aged](WarehouseView::virtual_age) to `now`.
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        self.virtual_age(now)?.0.query(q, now, parallel)
    }

    /// The region oracle for this view, built once per `(specification,
    /// last_sync)` from the specification's reduction schedule and kept on
    /// the version. `None` when the view was never synchronized (no cube
    /// content is action-placed yet) — planning then falls back to
    /// statistics-only pruning.
    pub fn region_oracle(&self) -> Option<&RegionOracle> {
        let build = || {
            let last = self.last_sync()?;
            Some(RegionOracle::build(self.v.spec.schedule(), last))
        };
        self.v.oracle.get_or_init(build).as_ref()
    }

    /// The one scan loop: `q` on every cube `plan` scans — in the plan's
    /// cheapest-first order, or each on its own thread when `parallel` —
    /// with the sub-results returned un-merged (a shard hands them to the
    /// cross-shard `merge`, which is order-insensitive). A skipped cube
    /// costs a span, never a thread or a placeholder result.
    pub(crate) fn eval_per_cube(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
        plan: &QueryPlan,
    ) -> Result<Vec<Mo>, SubcubeError> {
        let _span = sdr_obs::span("subcube.query");
        sdr_obs::attr("epoch", self.epoch());
        // Sub-query spans open under this context — on this thread for a
        // sequential evaluation, handed off explicitly to the fan-out
        // workers otherwise — so both trees nest identically.
        let ctx = sdr_obs::ctx();
        let run = |i: usize| -> Result<Mo, SubcubeError> {
            // Evaluate on the cube's shared snapshot — no guard, no
            // clone; the `Arc` keeps the version alive in the worker.
            // `select_snapshot` shares it when nothing is filtered (in
            // particular for `pred: None`), so aggregation runs directly
            // on the cube's storage with no deep copy.
            let input = self.cubes()[i].snapshot();
            let selected = select_snapshot(&input, q.pred.as_ref(), now, q.mode)?;
            Ok(aggregate_ids(&selected, &q.levels, q.approach)?)
        };
        // One span per cube, scanned or skipped: its p50/p99 spread
        // exposes cube-size skew across workers, and `explain` reads
        // every verdict off the trace.
        let visit = |&i: &usize| -> Result<Option<Mo>, SubcubeError> {
            let skip = plan.skip_reason(i);
            let sub = sdr_obs::span_in("subcube.query.subquery", &ctx);
            let r = skip.is_none().then(|| run(i)).transpose();
            if sub.is_recording() {
                let cube = &self.cubes()[i];
                sdr_obs::attr("subcube", format_args!("K{i}"));
                sdr_obs::attr("epoch", cube.epoch());
                sdr_obs::attr("rows_in", cube.rows());
                if let Ok(mo) = &r {
                    sdr_obs::attr("rows_out", mo.as_ref().map_or(0, Mo::len));
                }
                if let Some(reason) = skip {
                    sdr_obs::attr("skipped", reason.label());
                }
            }
            r
        };
        let scanned: Result<Vec<_>, _> = if parallel {
            sdr_obs::add("subcube.query.fanout", plan.order.len() as u64);
            fan_out(&plan.order, visit).into_iter().collect()
        } else {
            plan.order.iter().map(visit).collect()
        };
        let scanned = scanned?;
        for (i, reason) in (0..plan.cubes.len()).filter_map(|i| Some((i, plan.skip_reason(i)?))) {
            visit(&i)?;
            // Under `SDR_PLAN_VERIFY=1` the skipped cube is evaluated
            // anyway (span-free, so the fan-out telemetry matches the
            // plan) — one that contributes a row is a planner soundness
            // bug and aborts loudly.
            if plan_verify() {
                let rows = run(i)?.len();
                let why = reason.label();
                assert_eq!(
                    rows, 0,
                    "planner skipped K{i} ({why}) but it contributes {rows} rows"
                );
            }
        }
        Ok(scanned.into_iter().flatten().collect())
    }
}

/// The one union + final aggregation of a query's sub-results — exact
/// because all default aggregate functions are distributive (Section 3),
/// and therefore applied once per query, over the per-cube sub-results of
/// however many views the query spans. A sub-result over another schema
/// is the same error at every level.
pub(crate) fn merge(schema: &Arc<Schema>, q: &CubeQuery, parts: &[Mo]) -> Result<Mo, SubcubeError> {
    let rows = parts.iter().map(Mo::len).sum();
    let all = union(schema, rows, parts)?;
    Ok(aggregate_ids(&all, &q.levels, q.approach)?)
}

impl SubcubeManager {
    /// [`WarehouseView::query`] on a fresh view of the current version.
    /// Counts a stale read when a newer version was published while the
    /// query ran — the answer is still consistent (it saw one whole
    /// version), just not the newest.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        let view = self.view();
        let r = view.query(q, now, parallel);
        if self.epoch() > view.epoch() {
            sdr_obs::inc("subcube.query.stale_reads");
        }
        r
    }

    /// [`WarehouseView::query_unsync`] on a fresh view of the current
    /// version, with the same stale-read accounting as
    /// [`query`](SubcubeManager::query).
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        let view = self.view();
        let r = view.query_unsync(q, now, parallel);
        if self.epoch() > view.epoch() {
            sdr_obs::inc("subcube.query.stale_reads");
        }
        r
    }
}
