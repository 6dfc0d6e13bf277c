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
//! before and after a concurrent sync; no lock is held anywhere during
//! evaluation.
//!
//! # Chunk-native scans
//!
//! A query is compiled once (`CompiledQuery`: the fused select/aggregate
//! [`Scan`] plus the predicate's [`Grounding`]) and shared read-only by
//! every worker of every shard. A scanned cube is read chunk by chunk in
//! row order: a chunk whose summary hulls fail the planner's hull test
//! — the one a cube's skip is decided by — is skipped, and the kept rows
//! of the rest are folded straight into one accumulator per cube scan.
//! No cube is concatenated and no row is copied before it is grouped.

use std::sync::Arc;

use sdr_mdm::{DayNum, Mo, Schema};
use sdr_plan::{CubeSummary, Grounding, QueryPlan, RegionOracle};
use sdr_query::{aggregate_ids, AggApproach, Scan, SelectMode};
use sdr_reduce::ReduceError;
use sdr_spec::Pexp;
use sdr_sync::thread;

use crate::error::SubcubeError;
use crate::manager::{union, Chunk, Subcube, SubcubeManager, WarehouseView};

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

/// A query compiled once and shared read-only by every scan worker: the
/// fused kernel and the predicate grounded for the hull test.
pub(crate) struct CompiledQuery {
    scan: Scan,
    pub(crate) grounding: Grounding,
}

impl CompiledQuery {
    /// Compiles `q` at `now` against `schema`. `planned: false` grounds
    /// no predicate, so the hull test keeps every chunk — the unplanned
    /// baseline.
    pub(crate) fn new(
        schema: &Arc<Schema>,
        q: &CubeQuery,
        now: DayNum,
        planned: bool,
    ) -> Result<CompiledQuery, SubcubeError> {
        let pred = q.pred.as_ref();
        let grounded = pred.filter(|_| planned);
        Ok(CompiledQuery {
            scan: Scan::compile(schema, pred, now, q.mode, &q.levels, q.approach)?,
            grounding: Grounding::new(schema, grounded, q.mode, now),
        })
    }

    /// `q` over one cube: the chunks the hull test keeps, in row order,
    /// into one accumulator. Returns the sub-result and the chunks
    /// scanned and skipped.
    fn scan_cube(&self, i: usize, cube: &Subcube) -> Result<(Mo, u64, u64), SubcubeError> {
        let _span = sdr_obs::span("query.aggregate");
        let mut acc = self.scan.start();
        let mut skipped = 0u64;
        for (c, chunk) in cube.chunks().iter().enumerate() {
            if self.grounding.may_match(chunk.summary().hulls()) {
                acc.feed(chunk.mo())?;
            } else {
                skipped += 1;
                self.verify_skipped(chunk, || format!("chunk {c} of K{i} (zone)"))?;
            }
        }
        let scanned = cube.chunks().len() as u64 - skipped;
        if sdr_obs::enabled() {
            sdr_obs::add("query.select.cells_visited", acc.visited());
            sdr_obs::add("query.select.cells_kept", acc.kept());
            sdr_obs::add("plan.chunks_scanned", scanned);
            sdr_obs::add("plan.chunks_skipped", skipped);
        }
        Ok((acc.finish()?, scanned, skipped))
    }

    /// In a debug build, scans a chunk the planner skipped — span- and
    /// counter-free, so the telemetry matches the plan — and panics if
    /// its selection keeps a row: a planner soundness bug. Every debug
    /// test run checks every skip this way.
    fn verify_skipped(
        &self,
        chunk: &Chunk,
        what: impl FnOnce() -> String,
    ) -> Result<(), SubcubeError> {
        if cfg!(debug_assertions) {
            let mut probe = self.scan.start();
            probe.feed(chunk.mo())?;
            let rows = probe.kept();
            assert_eq!(
                rows,
                0,
                "planner skipped {} but it keeps {rows} rows",
                what()
            );
        }
        Ok(())
    }
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
        let grounding = Grounding::new(self.schema(), q.pred.as_ref(), q.mode, now);
        self.plan_grounded(&grounding, oracle)
    }

    /// [`plan`](WarehouseView::plan) for a predicate already grounded.
    pub(crate) fn plan_grounded(
        &self,
        grounding: &Grounding,
        oracle: Option<&RegionOracle>,
    ) -> QueryPlan {
        let summaries: Vec<CubeSummary> = self.cubes().iter().map(summarize).collect();
        sdr_plan::plan(self.schema(), grounding, &summaries, oracle)
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
        let cq = CompiledQuery::new(self.schema(), q, now, true)?;
        let plan = self.plan_grounded(&cq.grounding, oracle);
        let parts = self.eval_per_cube(&cq, parallel, &plan)?;
        merge(self.schema(), q, &parts)
    }

    /// The unplanned full fan-out over every chunk of every cube — what
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
        let cq = CompiledQuery::new(self.schema(), q, now, false)?;
        let parts = self.eval_per_cube(&cq, parallel, &plan)?;
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

    /// The one scan loop: `cq` on every cube `plan` scans — in the plan's
    /// cheapest-first order, or each on its own thread when `parallel` —
    /// with the sub-results returned un-merged (a shard hands them to the
    /// cross-shard `merge`, which is order-insensitive). A skipped cube
    /// costs a span, never a thread or a placeholder result. A view over
    /// another schema than `cq`'s is the error the merge of its parts
    /// would be.
    pub(crate) fn eval_per_cube(
        &self,
        cq: &CompiledQuery,
        parallel: bool,
        plan: &QueryPlan,
    ) -> Result<Vec<Mo>, SubcubeError> {
        let _span = sdr_obs::span("subcube.query");
        sdr_obs::attr("epoch", self.epoch());
        sdr_mdm::check_same_schema(cq.scan.schema(), self.schema()).map_err(ReduceError::Model)?;
        // Sub-query spans open under this context — on this thread for a
        // sequential evaluation, handed off explicitly to the fan-out
        // workers otherwise — so both trees nest identically.
        let ctx = sdr_obs::ctx();
        // One span per cube, scanned or skipped: its p50/p99 spread
        // exposes cube-size skew across workers, and `explain` reads
        // every verdict and chunk count off the trace.
        let visit = |&i: &usize| -> Result<Option<Mo>, SubcubeError> {
            let skip = plan.skip_reason(i);
            let sub = sdr_obs::span_in("subcube.query.subquery", &ctx);
            let cube = &self.cubes()[i];
            let r = skip.is_none().then(|| cq.scan_cube(i, cube)).transpose();
            if sub.is_recording() {
                sdr_obs::attr("subcube", format_args!("K{i}"));
                sdr_obs::attr("epoch", cube.epoch());
                sdr_obs::attr("rows_in", cube.rows());
                match &r {
                    Ok(Some((mo, chunks, skipped))) => {
                        sdr_obs::attr("rows_out", mo.len());
                        sdr_obs::attr("chunks_scanned", chunks);
                        sdr_obs::attr("chunks_skipped", skipped);
                    }
                    Ok(None) => sdr_obs::attr("rows_out", 0),
                    Err(_) => {}
                }
                if let Some(reason) = skip {
                    sdr_obs::attr("skipped", reason.label());
                }
            }
            Ok(r?.map(|(mo, _, _)| mo))
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
            for (c, chunk) in self.cubes()[i].chunks().iter().enumerate() {
                let why = || format!("K{i} ({}), its chunk {c}", reason.label());
                cq.verify_skipped(chunk, why)?;
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
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        self.view().query(q, now, parallel)
    }

    /// [`WarehouseView::query_unsync`] on a fresh view of the current
    /// version.
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        self.view().query_unsync(q, now, parallel)
    }
}
