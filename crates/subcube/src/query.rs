//! Querying a set of subcubes (Section 7.3).
//!
//! The paper evaluates a query on every subcube separately and combines
//! the sub-results by one final aggregation — exact because all default
//! aggregate functions are distributive (Section 3). The same property
//! lets every subcube's kept rows fold into **one** accumulator, so
//! there are no sub-results here at all: one scan loop
//! (`WarehouseView::scan_into`, over the cubes a [`QueryPlan`] scans; the
//! naive fan-out is that loop under [`QueryPlan::scan_all`]) feeds every
//! kept chunk of every scanned cube, of every shard a query spans, into
//! one [`ScanAcc`], which is finished once. `parallel` fans a view's
//! scanned cubes out over scoped threads, and a set of several shards
//! fans out the shards instead; each worker then fills an accumulator of
//! its own, and the caller [absorbs](ScanAcc::absorb) them by packed key
//! before the one finish. Two states are supported:
//!
//! * **synchronized** — each cube holds exactly its own facts; the
//!   planner skips the cubes whose chunks' values prove them irrelevant
//!   and the query folds the rest into its accumulator (Figure 8);
//! * **un-synchronized** — facts may still sit in ancestor cubes, or
//!   un-homed in the bottom cube. The paper answers with a *virtual*
//!   synchronization (`α[G_i]σ[P_i](K_i ∪ parents)`, Figure 9); here that
//!   is literally one: [`WarehouseView::query_unsync`]`(q, now)` is
//!   [`WarehouseView::query`]`(q, now)` on the version `age(now)` would
//!   publish ([`WarehouseView::virtual_age`]), computed by the write
//!   path's own reduction steps, published nowhere, and kept in a single
//!   slot on the pinned version so the next read of the same `(version,
//!   now)` finds it. The aged version's chunks carry their summaries, so
//!   this path is planned like the other. Query answers
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
//! [`Scan`]) and shared read-only by every worker of every shard. Before
//! a shard's cubes are read, each chunk is judged once by the query's
//! own predicate: [`ScanAcc::may_keep`] over the per-dimension distinct
//! values of the chunk's summary, on the memo of the accumulator that
//! then scans it. A cube none of whose chunks survives is skipped, and a
//! scanned cube is read chunk by chunk in row order, the kept rows of its
//! surviving chunks folded straight into the worker's accumulator. No
//! cube is concatenated, no row is copied before it is grouped, and no
//! group is aggregated twice.

use std::sync::Arc;

use sdr_mdm::{DayNum, Mo, Schema};
use sdr_plan::QueryPlan;
use sdr_query::{AggApproach, Scan, ScanAcc, SelectMode};
use sdr_reduce::ReduceError;
use sdr_spec::Pexp;
use sdr_sync::thread;

use crate::error::SubcubeError;
use crate::manager::{Chunk, Subcube, SubcubeManager, WarehouseView};

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

/// A query compiled once and shared read-only by every scan worker.
pub(crate) struct CompiledQuery {
    pub(crate) scan: Scan,
}

impl CompiledQuery {
    /// Compiles `q` at `now` against `schema`.
    pub(crate) fn new(
        schema: &Arc<Schema>,
        q: &CubeQuery,
        now: DayNum,
    ) -> Result<CompiledQuery, SubcubeError> {
        let scan = Scan::compile(schema, q.pred.as_ref(), now, q.mode, &q.levels, q.approach)?;
        Ok(CompiledQuery { scan })
    }

    /// The query's answer: the one accumulator left after every worker's
    /// was absorbed, finished once.
    pub(crate) fn finish(&self, acc: ScanAcc<'_>) -> Result<Mo, SubcubeError> {
        let _span = sdr_obs::span("query.aggregate");
        Ok(acc.finish()?)
    }

    /// `q` over one cube: the chunks `keep` marks, in row order, into
    /// `acc`. Returns the rows the selection kept and the chunks scanned
    /// and skipped.
    fn scan_cube(
        &self,
        i: usize,
        cube: &Subcube,
        keep: &[bool],
        acc: &mut ScanAcc<'_>,
    ) -> Result<(u64, u64, u64), SubcubeError> {
        let _span = sdr_obs::span("query.aggregate");
        let (visited, kept) = (acc.visited(), acc.kept());
        let mut skipped = 0u64;
        for (c, (chunk, &keep)) in cube.chunks().iter().zip(keep).enumerate() {
            if keep {
                acc.feed(chunk.mo())?;
            } else {
                skipped += 1;
                self.verify_skipped(chunk, || format!("chunk {c} of K{i} (zone)"))?;
            }
        }
        let scanned = cube.chunks().len() as u64 - skipped;
        let kept = acc.kept() - kept;
        if sdr_obs::enabled() {
            sdr_obs::add("query.select.cells_visited", acc.visited() - visited);
            sdr_obs::add("query.select.cells_kept", kept);
            sdr_obs::add("plan.chunks_scanned", scanned);
            sdr_obs::add("plan.chunks_skipped", skipped);
        }
        Ok((kept, scanned, skipped))
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
/// fan-out then waits for a worker that has not run yet. Each worker
/// [adopts](sdr_obs::adopt) the caller's span context, so the spans of
/// every item nest as the first item's do on the calling thread.
pub(crate) fn fan_out<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let (f, ctx) = (&f, &sdr_obs::ctx());
    thread::scope(|s| {
        let worker = |item| {
            s.spawn(move || {
                let _nested = sdr_obs::adopt(ctx);
                f(item)
            })
        };
        let handles: Vec<_> = items.map(worker).collect();
        let mut results = vec![f(first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("fan-out worker panicked")),
        );
        results
    })
}

/// `visit` on every item, folding into `acc`: in item order on the
/// calling thread, or — when `parallel` — each item into an accumulator
/// of its own on a [`fan_out`] worker, absorbed into `acc` in item order.
pub(crate) fn fold_each<T: Sync>(
    cq: &CompiledQuery,
    items: &[T],
    parallel: bool,
    acc: &mut ScanAcc<'_>,
    visit: impl Fn(&T, &mut ScanAcc<'_>) -> Result<(), SubcubeError> + Sync,
) -> Result<(), SubcubeError> {
    if !parallel {
        return items.iter().try_for_each(|item| visit(item, acc));
    }
    let workers = fan_out(items, |item| {
        let mut own = cq.scan.start();
        visit(item, &mut own).map(|()| own)
    });
    for worker in workers {
        acc.absorb(worker?);
    }
    Ok(())
}

impl WarehouseView {
    /// Plans `q` against this view's cubes: every chunk judged by the
    /// query's own predicate over the chunk's distinct values
    /// ([`ScanAcc::may_keep`]), a cube skipped when it is empty or none
    /// of its chunks survives, and a cheapest-first scan order. Pruning
    /// is sound: the planned evaluation returns exactly the naive full
    /// fan-out's answer. A query that does not compile is planned as the
    /// full fan-out; evaluating it reports the error.
    pub fn plan(&self, q: &CubeQuery, now: DayNum) -> QueryPlan {
        match CompiledQuery::new(self.schema(), q, now) {
            Ok(cq) => self.judge(&mut cq.scan.start()),
            Err(_) => self.scan_all(),
        }
    }

    /// The plan whose chunk verdicts `acc` gives, on its memo. `acc`'s
    /// scan must be over this view's schema, so that the chunks' codes
    /// index its plan. A verdict that fails keeps its chunk: the scan
    /// then reports the error.
    fn judge(&self, acc: &mut ScanAcc<'_>) -> QueryPlan {
        sdr_plan::plan(self.cubes().iter().map(|c| {
            let keep = |ch: &Arc<Chunk>| acc.may_keep(ch.summary().distinct()).unwrap_or(true);
            (c.rows() as u64, c.chunks().iter().map(keep).collect())
        }))
    }

    /// The naive fan-out: every chunk of every cube.
    fn scan_all(&self) -> QueryPlan {
        QueryPlan::scan_all(
            self.cubes()
                .iter()
                .map(|c| (c.rows() as u64, c.chunks().len())),
        )
    }

    /// Evaluates `q` assuming synchronized cubes: the chunks and cubes
    /// [`plan`](WarehouseView::plan) proves irrelevant are skipped, the
    /// rest scanned — one worker per scanned cube (scoped threads) when
    /// `parallel` — into one accumulator, finished once.
    /// [`query_naive`](WarehouseView::query_naive) is the unplanned full
    /// fan-out.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        let cq = CompiledQuery::new(self.schema(), q, now)?;
        self.answer(&cq, parallel, true)
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
        let cq = CompiledQuery::new(self.schema(), q, now)?;
        self.answer(&cq, parallel, false)
    }

    /// `cq` over this view, planned or not, into one accumulator finished
    /// once.
    fn answer(
        &self,
        cq: &CompiledQuery,
        parallel: bool,
        planned: bool,
    ) -> Result<Mo, SubcubeError> {
        let mut acc = cq.scan.start();
        self.scan_into(cq, parallel, planned, &mut acc)?;
        cq.finish(acc)
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

    /// The one scan loop: `cq` on every cube its plan scans, folded into
    /// `acc` — in the plan's cheapest-first order, or each cube into an
    /// accumulator of its own on its own thread when `parallel`, absorbed
    /// into `acc` in plan order. `planned` judges every chunk on `acc`'s
    /// memo first ([`plan`](WarehouseView::plan)); otherwise every chunk
    /// of every cube is read. A skipped cube costs a span, never a thread
    /// or an accumulator. A view over another schema than `cq`'s is a
    /// schema-mismatch error, raised before any chunk is judged.
    pub(crate) fn scan_into(
        &self,
        cq: &CompiledQuery,
        parallel: bool,
        planned: bool,
        acc: &mut ScanAcc<'_>,
    ) -> Result<(), SubcubeError> {
        let _span = sdr_obs::span("subcube.query");
        sdr_obs::attr("epoch", self.epoch());
        sdr_mdm::check_same_schema(cq.scan.schema(), self.schema()).map_err(ReduceError::Model)?;
        let plan = &if planned {
            self.judge(acc)
        } else {
            self.scan_all()
        };
        // One span per cube, scanned or skipped: its p50/p99 spread
        // exposes cube-size skew across workers, and `explain` reads
        // every verdict and chunk count off the trace.
        let visit = |i: usize, acc: &mut ScanAcc<'_>| -> Result<(), SubcubeError> {
            let skip = plan.skip_reason(i);
            let sub = sdr_obs::span("subcube.query.subquery");
            let cube = &self.cubes()[i];
            let keep = &plan.cubes[i].chunks;
            let r = skip
                .is_none()
                .then(|| cq.scan_cube(i, cube, keep, acc))
                .transpose();
            if sub.is_recording() {
                sdr_obs::attr("subcube", format_args!("K{i}"));
                sdr_obs::attr("epoch", cube.epoch());
                sdr_obs::attr("rows_in", cube.rows());
                match &r {
                    Ok(Some((kept, chunks, skipped))) => {
                        sdr_obs::attr("rows_kept", kept);
                        sdr_obs::attr("chunks_scanned", chunks);
                        sdr_obs::attr("chunks_skipped", skipped);
                    }
                    Ok(None) => sdr_obs::attr("rows_kept", 0),
                    Err(_) => {}
                }
                if let Some(reason) = skip {
                    sdr_obs::attr("skipped", reason.label());
                }
            }
            r.map(|_| ())
        };
        if parallel {
            sdr_obs::add("subcube.query.fanout", plan.order.len() as u64);
        }
        fold_each(cq, &plan.order, parallel, acc, |&i, acc| visit(i, acc))?;
        for (i, reason) in (0..plan.cubes.len()).filter_map(|i| Some((i, plan.skip_reason(i)?))) {
            visit(i, acc)?;
            for (c, chunk) in self.cubes()[i].chunks().iter().enumerate() {
                let why = || format!("K{i} ({}), its chunk {c}", reason.label());
                cq.verify_skipped(chunk, why)?;
            }
        }
        Ok(())
    }
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
