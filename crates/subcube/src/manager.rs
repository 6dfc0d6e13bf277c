//! The per-shard core (Section 7), snapshot-isolated: the subcubes of
//! one shard of a [`ShardRouter`](crate::ShardRouter) warehouse.
//!
//! The implementation strategy of the paper: the logical MO is stored as a
//! set of physical *subcubes*, one per distinct target granularity of the
//! (disjoint) action set, plus one bottom-granularity subcube that
//! receives all new data (Figure 6). Because at most one action is
//! responsible for each fact (NonCrossing), every fact has exactly one
//! *home* cube at any time; synchronization migrates facts along the
//! parent→child DAG as `NOW` advances.
//!
//! # Epoch-versioned snapshots
//!
//! Warehouse state is **immutable once published**: the manager holds one
//! [`Arc`] to the current version (spec, cube contents, DAG, sync
//! watermarks) and every mutator — [`bulk_load`](SubcubeManager::bulk_load),
//! [`sync`](SubcubeManager::sync), the spec evolutions — builds its
//! successor off to the side from a frozen snapshot and publishes it with
//! a single pointer swap under a momentary write lock. Readers acquire a
//! [`WarehouseView`] (an `Arc` clone) and evaluate against it for as long
//! as they like: they never block behind an in-flight reduction and can
//! never observe a half-applied one. Each version carries a monotonically
//! increasing epoch, and each subcube remembers the epoch at which its
//! facts last changed plus the day it was last synchronized to — together
//! the *version vector* that makes Section 7's "query the un-synchronized
//! state" an explicit, testable mode instead of an accident of lock
//! timing.
//!
//! # Version shape
//!
//! A cube's facts are an ordered list of immutable [`Chunk`]s of at most
//! [`CHUNK_ROWS`] rows, each summarized once when it is built. A
//! mutator builds its successor by **sharing every chunk it does not
//! change**: a load appends chunks to the bottom cube and marks them
//! *un-homed*; an aging step rewrites only the chunks that lose or gain
//! rows and coalesces what it appends into the preceding chunk while
//! both fit one chunk; everything else crosses versions by pointer, so
//! a day's write costs what the day changed, not what the warehouse
//! holds. Readers scan the chunks too: a query skips the chunks whose
//! summary rules it out and folds the rest straight into its group map
//! (`query.rs`), so no contiguous copy of a cube is ever kept. The
//! cube's [`SubcubeStats`] are folded from the chunk summaries on first
//! use, at most once per cube version, and carried along for as long as
//! the cube's chunk list is unchanged.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use sdr_sync::{fail, Mutex, OnceCell, Swap};

use sdr_mdm::{
    DayNum, DimValue, Dimension, FactId, FxHashMap, Granularity, KeyPacker, MeasureId, Mo, Schema,
    ORIGIN_USER,
};
use sdr_plan::RegionOracle;
use sdr_reduce::{cell_for, DataReductionSpec, ReduceError, ReductionSchedule};
use sdr_spec::{ActionId, ActionSpec, CompiledPred, LeafMaskPlan};

use crate::error::SubcubeError;
use crate::stats::{ChunkSummary, SubcubeStats};

/// Identifies a subcube within a manager. Cube `0` is always the
/// bottom-granularity cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CubeId(pub usize);

/// The chunk capacity in rows: a load appends chunks of at most this
/// size, whole-cube rebuilds cut at it in row order, and an aging step
/// coalesces what it appends into the preceding chunk while both fit.
/// It bounds what one publication copies beyond the rows it changed.
pub const CHUNK_ROWS: usize = 4096;

/// `parts` (`rows` facts in all) appended into one MO over `schema` —
/// the crate's one union, whether of a cube's chunks, of a view's cubes,
/// of shards or of a query's sub-results. A part over another schema is
/// its one failure.
pub(crate) fn union<'a>(
    schema: &Arc<Schema>,
    rows: usize,
    parts: impl IntoIterator<Item = &'a Mo>,
) -> Result<Mo, SubcubeError> {
    let mut all = Mo::new(Arc::clone(schema));
    all.reserve(rows);
    for part in parts {
        all.absorb(part).map_err(ReduceError::Model)?;
    }
    Ok(all)
}

/// [`union`] of chunks cut over `schema` itself.
fn concat<'a>(schema: &Arc<Schema>, rows: usize, parts: impl IntoIterator<Item = &'a Mo>) -> Mo {
    union(schema, rows, parts).expect("parts share the warehouse schema")
}

/// One immutable run of a cube's facts (at most [`CHUNK_ROWS`] rows,
/// never empty) with the summary the cube's statistics fold from.
#[derive(Debug)]
pub struct Chunk {
    mo: Arc<Mo>,
    summary: ChunkSummary,
}

impl Chunk {
    fn new(mo: Arc<Mo>) -> Arc<Chunk> {
        debug_assert!(!mo.is_empty() && mo.len() <= CHUNK_ROWS);
        Arc::new(Chunk {
            summary: ChunkSummary::compute(&mo),
            mo,
        })
    }

    /// Copies `rows` of `mo` into chunks of at most [`CHUNK_ROWS`] rows
    /// over `schema`, in row order (none for an empty range).
    fn cut(
        schema: &Arc<Schema>,
        mo: &Mo,
        rows: Range<usize>,
    ) -> Result<Vec<Arc<Chunk>>, SubcubeError> {
        rows.clone()
            .step_by(CHUNK_ROWS)
            .map(|lo| {
                let mut part = Mo::new(Arc::clone(schema));
                part.absorb_rows(mo, lo..rows.end.min(lo + CHUNK_ROWS))
                    .map_err(ReduceError::Model)?;
                Ok(Chunk::new(Arc::new(part)))
            })
            .collect()
    }

    /// `prev` followed by `next` as one chunk; the summary is folded,
    /// not recomputed.
    fn merged(schema: &Arc<Schema>, prev: &Chunk, next: &Chunk) -> Arc<Chunk> {
        let rows = prev.mo.len() + next.mo.len();
        Arc::new(Chunk {
            mo: Arc::new(concat(schema, rows, [&*prev.mo, &*next.mo])),
            summary: ChunkSummary::fold(schema, [&prev.summary, &next.summary]),
        })
    }

    /// The chunk's facts.
    pub fn mo(&self) -> &Mo {
        &self.mo
    }

    /// The chunk's summary.
    pub fn summary(&self) -> &ChunkSummary {
        &self.summary
    }
}

/// The facts of one cube version: the chunk list plus the statistics
/// folded from it on first use. Shared by `Arc` across every warehouse
/// version in which the cube is unchanged, so the statistics are too.
#[derive(Debug)]
struct CubeData {
    schema: Arc<Schema>,
    chunks: Vec<Arc<Chunk>>,
    rows: usize,
    /// The warehouse epoch at which this chunk list was published.
    epoch: u64,
    /// The chunk summaries folded.
    stats: OnceCell<SubcubeStats>,
}

impl CubeData {
    fn from_chunks(schema: &Arc<Schema>, chunks: Vec<Arc<Chunk>>, epoch: u64) -> Arc<CubeData> {
        Arc::new(CubeData {
            schema: Arc::clone(schema),
            rows: chunks.iter().map(|c| c.mo.len()).sum(),
            chunks,
            epoch,
            stats: OnceCell::new(),
        })
    }

    /// A cube built whole (checkpoint load): cut at the chunk capacity
    /// in row order; a cube of at most one chunk takes `mo` as it is.
    fn from_mo(mo: Mo, epoch: u64) -> Arc<CubeData> {
        let schema = Arc::clone(mo.schema());
        let chunks = if (1..=CHUNK_ROWS).contains(&mo.len()) {
            vec![Chunk::new(Arc::new(mo))]
        } else {
            Chunk::cut(&schema, &mo, 0..mo.len()).expect("rows fit their own schema")
        };
        CubeData::from_chunks(&schema, chunks, epoch)
    }
}

/// One physical subcube inside a published warehouse version: a fixed
/// granularity, the actions it represents, and a frozen fact snapshot.
/// Cloning is cheap (the fact data is shared through an [`Arc`]).
#[derive(Debug, Clone)]
pub struct Subcube {
    /// The cube's fixed granularity.
    pub grain: Granularity,
    /// The actions whose target granularity this cube holds (grouping of
    /// disjoint actions on identical granularities, Section 7.1).
    pub actions: Vec<ActionId>,
    /// The cube's facts, immutable for the lifetime of this version.
    data: Arc<CubeData>,
    /// The last day this cube's contents were synchronized to. The bottom
    /// cube's watermark lags after a bulk load: its new rows have not been
    /// migrated yet.
    synced_to: Option<DayNum>,
}

impl Subcube {
    /// The cube's facts as one contiguous MO: a fresh concatenation of
    /// the [`chunks`](Subcube::chunks) on every call, cached nowhere.
    /// No query path reads it — queries scan the chunks — so it is for
    /// callers outside the engine that want one MO per cube.
    pub fn data(&self) -> Mo {
        concat(
            &self.data.schema,
            self.data.rows,
            self.data.chunks.iter().map(|c| c.mo()),
        )
    }

    /// [`data`](Subcube::data) behind an `Arc`: an uncached
    /// concatenation, except that a cube of one chunk shares it.
    pub fn snapshot(&self) -> Arc<Mo> {
        match self.data.chunks.as_slice() {
            [one] => Arc::clone(&one.mo),
            _ => Arc::new(self.data()),
        }
    }

    /// The cube's facts as stored: immutable chunks in row order.
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.data.chunks
    }

    /// Number of facts in the cube.
    pub fn rows(&self) -> usize {
        self.data.rows
    }

    /// Exact statistics of this cube's facts — the fold of its chunk
    /// summaries, persisted through the checkpoint manifest and verified
    /// against recomputation on recovery.
    pub fn stats(&self) -> &SubcubeStats {
        let d = &self.data;
        d.stats.get_or_init(|| {
            ChunkSummary::fold(&d.schema, d.chunks.iter().map(|c| &c.summary)).into_stats(d.epoch)
        })
    }

    /// The warehouse epoch at which this cube's facts last changed.
    pub fn epoch(&self) -> u64 {
        self.data.epoch
    }

    /// The last day this cube was synchronized to (`None` = never).
    pub fn synced_to(&self) -> Option<DayNum> {
        self.synced_to
    }
}

/// Statistics from one reduction ([`ShardRouter::sync`] or
/// [`ShardRouter::age`]), accumulated over every step it applied; a
/// router adds up its shards' (see [`ShardRouter::apply`]).
///
/// [`ShardRouter::sync`]: crate::ShardRouter::sync
/// [`ShardRouter::age`]: crate::ShardRouter::age
/// [`ShardRouter::apply`]: crate::ShardRouter::apply
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgeStats {
    /// Transition-day ticks applied (each published atomically).
    pub ticks: usize,
    /// Facts whose cube or cell changed, across all steps.
    pub cells_delta: usize,
    /// Facts merged away by per-cube re-aggregation across all ticks.
    pub merged: usize,
    /// Cube rebuilds across all ticks (a cube rebuilt in two ticks
    /// counts twice).
    pub cubes_rebuilt: usize,
    /// Cube carry-forwards across all ticks: the cube's facts (and
    /// version-vector entry) survived the tick untouched.
    pub cubes_skipped: usize,
    /// Un-homed (bulk-loaded, not yet synchronized) rows this call
    /// resolved to their home cell.
    pub rows_homed: usize,
    /// Chunks built across all ticks: rewritten without the rows that
    /// left, appended for the rows that arrived, or coalesced.
    pub chunks_rewritten: usize,
    /// Chunks that crossed a tick by pointer, over all cubes.
    pub chunks_carried: usize,
}

impl AgeStats {
    pub(crate) fn absorb(&mut self, o: AgeStats) {
        self.ticks += o.ticks;
        self.cells_delta += o.cells_delta;
        self.merged += o.merged;
        self.cubes_rebuilt += o.cubes_rebuilt;
        self.cubes_skipped += o.cubes_skipped;
        self.rows_homed += o.rows_homed;
        self.chunks_rewritten += o.chunks_rewritten;
        self.chunks_carried += o.chunks_carried;
    }
}

/// One immutable warehouse version. Everything a query can observe lives
/// here, so a reader holding a version sees a single consistent state.
#[derive(Debug)]
pub(crate) struct VersionInner {
    /// Monotonically increasing publication counter.
    pub(crate) epoch: u64,
    /// The specification this version's cube layout derives from.
    pub(crate) spec: Arc<DataReductionSpec>,
    /// The subcubes (cube 0 is the bottom cube).
    pub(crate) cubes: Vec<Subcube>,
    /// Immediate parent edges of the data-flow DAG (Hasse diagram of the
    /// cube granularities; the bottom cube is the ultimate ancestor).
    pub(crate) parents: Vec<Vec<CubeId>>,
    /// The last day the cubes were synchronized to.
    pub(crate) last_sync: Option<DayNum>,
    /// How many trailing chunks of the bottom cube hold **un-homed**
    /// rows: appended by a bulk load (or staged by a specification
    /// change) and not yet resolved to their home cell by a reduction
    /// step. Everything else is synchronized to `last_sync`.
    pub(crate) unhomed: usize,
    /// The planner's region oracle, a function of `(spec.schedule(),
    /// last_sync)` built on first use: shared by every successor that
    /// moves neither, fresh otherwise.
    pub(crate) oracle: Arc<OnceCell<Option<RegionOracle>>>,
    /// The single-slot memo of [`WarehouseView::virtual_age`]: the last
    /// day this version was virtually aged to and the version that
    /// produced. It lives and dies with this version, and costs only
    /// what the aging steps rewrote — every other chunk is shared.
    aged: Mutex<Option<(DayNum, Arc<VersionInner>)>>,
}

impl VersionInner {
    /// The first version of a warehouse under `spec`: empty cubes.
    fn initial(spec: DataReductionSpec, epoch: u64) -> VersionInner {
        let (cubes, parents) = layout(&spec, epoch);
        VersionInner {
            epoch,
            spec: Arc::new(spec),
            cubes,
            parents,
            last_sync: None,
            unhomed: 0,
            oracle: Arc::new(OnceCell::new()),
            aged: Mutex::new(None),
        }
    }

    /// The successor of this version under the same specification.
    fn successor(
        &self,
        cubes: Vec<Subcube>,
        last_sync: Option<DayNum>,
        unhomed: usize,
    ) -> VersionInner {
        VersionInner {
            epoch: self.epoch + 1,
            spec: Arc::clone(&self.spec),
            cubes,
            parents: self.parents.clone(),
            last_sync,
            unhomed,
            oracle: if last_sync == self.last_sync {
                Arc::clone(&self.oracle)
            } else {
                Arc::new(OnceCell::new())
            },
            aged: Mutex::new(None),
        }
    }

    /// The successor that only advances the sync watermark to `now`:
    /// cube contents (and their version-vector entries) are untouched.
    fn with_watermark(&self, now: DayNum) -> VersionInner {
        let mut cubes = self.cubes.clone();
        for c in &mut cubes {
            c.synced_to = Some(now);
        }
        self.successor(cubes, Some(now), self.unhomed)
    }

    /// The day a synchronization asked for at `now` brings this version
    /// to: `now`, but never a day before the watermark.
    fn day_of(&self, now: DayNum) -> DayNum {
        self.last_sync.map_or(now, |last| last.max(now))
    }

    fn n_chunks(&self) -> usize {
        self.cubes.iter().map(|c| c.chunks().len()).sum()
    }

    fn rows(&self) -> usize {
        self.cubes.iter().map(Subcube::rows).sum()
    }
}

/// The cube a cell at `target` belongs to: the one of exactly its
/// granularity, else the bottom cube — a fact whose own granularity
/// exceeds every action's target (possible after spec changes) stays
/// where it is.
fn home_of(cubes: &[Subcube], target: &[DimValue]) -> usize {
    let cats = || target.iter().map(|v| v.cat);
    cubes
        .iter()
        .position(|k| k.grain.0.iter().copied().eq(cats()))
        .unwrap_or(0)
}

/// Builds the cube set and parent DAG for a validated specification: one
/// cube per distinct action granularity plus the bottom cube.
fn layout(spec: &DataReductionSpec, epoch: u64) -> (Vec<Subcube>, Vec<Vec<CubeId>>) {
    let schema = Arc::clone(spec.schema());
    // Every cube starts empty, so one (chunk-less) fact list serves all.
    let empty = CubeData::from_chunks(&schema, Vec::new(), epoch);
    let mut cubes: Vec<Subcube> = vec![Subcube {
        grain: schema.bottom_granularity(),
        actions: Vec::new(),
        data: Arc::clone(&empty),
        synced_to: None,
    }];
    for (id, a) in spec.actions() {
        if let Some(c) = cubes.iter_mut().find(|c| c.grain == a.grain) {
            c.actions.push(*id);
        } else {
            cubes.push(Subcube {
                grain: a.grain.clone(),
                actions: vec![*id],
                data: Arc::clone(&empty),
                synced_to: None,
            });
        }
    }
    // Hasse diagram on cube granularities: P is a parent of C when
    // grain_P < grain_C with no cube strictly between.
    let n = cubes.len();
    let mut parents = vec![Vec::new(); n];
    let lt = |a: usize, b: usize| {
        cubes[a].grain != cubes[b].grain && cubes[a].grain.leq(&cubes[b].grain, &schema)
    };
    for (c, slot) in parents.iter_mut().enumerate() {
        for p in 0..n {
            if p != c && lt(p, c) {
                let between = (0..n).any(|q| q != p && q != c && lt(p, q) && lt(q, c));
                if !between {
                    slot.push(CubeId(p));
                }
            }
        }
    }
    (cubes, parents)
}

/// An arriving group of one cube: the measures and provenance of every
/// row a step has folded into one target cell so far.
struct Arrival {
    acc: Vec<i64>,
    /// The action origin of the member latest in `(cube, chunk, row)`
    /// order among those that carry one (`origin_at` is its place) —
    /// what a row-ordered scan of the members leaves behind.
    origin: u32,
    origin_at: Option<(usize, usize, u32)>,
    /// The first measure whose SUM or COUNT left `i64`: the step fails,
    /// naming it and the cell, before it builds anything.
    overflow: Option<MeasureId>,
}

impl Arrival {
    fn new(schema: &Schema) -> Arrival {
        Arrival {
            acc: schema.measures.iter().map(|m| m.agg.identity()).collect(),
            origin: ORIGIN_USER,
            origin_at: None,
            overflow: None,
        }
    }

    /// Folds in row `f` of `mo`, found at `at`, carrying `origin`.
    fn fold(&mut self, schema: &Schema, mo: &Mo, f: FactId, at: (usize, usize, u32), origin: u32) {
        let row = |j| mo.measure(f, MeasureId(j as u16));
        if let Err(m) = schema.fold_measures(&mut self.acc, row) {
            self.overflow.get_or_insert(m);
        }
        if origin != ORIGIN_USER && Some(at) > self.origin_at {
            (self.origin, self.origin_at) = (origin, Some(at));
        }
    }
}

/// The reduction step, as a pure function of a version: it builds the
/// successor without publishing it. [`SubcubeManager::sync`] and
/// [`SubcubeManager::age`] publish what it returns; an un-synchronized
/// read ([`WarehouseView::virtual_age`]) only keeps it.
impl VersionInner {
    /// Brings this version forward to `until` (not before its
    /// watermark) by folding the reduction steps: one per scheduled
    /// transition day in `(last_sync, until]`, un-homed rows riding the
    /// first — or a step of their own at `until` when no transition is
    /// in range (the schedule proves their cell at `until` is their cell
    /// on any day since `last_sync`) — then the watermark. A version
    /// never synchronized has no transition to replay: every row it
    /// holds is un-homed, and homing them at `until` *is* the reduction
    /// at `until`. With a manager each step is traced as a
    /// `subcube.age.tick` and published; without one nothing is, and the
    /// result is the version `age(until)` *would* publish.
    fn aged(
        self: &Arc<Self>,
        until: DayNum,
        live: Option<&SubcubeManager>,
    ) -> Result<(Arc<VersionInner>, AgeStats), SubcubeError> {
        let land = |next: VersionInner| match live {
            Some(mgr) => mgr.publish(next),
            None => Arc::new(next),
        };
        let sched = self.spec.schedule();
        let ticks = self
            .last_sync
            .map_or(Vec::new(), |last| sched.transitions_between(last, until));
        let unhomed = self.unhomed > 0 || self.last_sync.is_none();
        let homing_only = (ticks.is_empty() && unhomed).then_some(until);
        let mut cur = Arc::clone(self);
        let mut stats = AgeStats::default();
        for t in ticks.iter().copied().chain(homing_only) {
            let _span = live.map(|_| sdr_obs::span("subcube.age.tick"));
            let (next, s, scanned) =
                cur.age_step(sched, t, homing_only.is_none(), live.is_some())?;
            if live.is_some() && sdr_obs::enabled() {
                sdr_obs::attr("day", t);
                sdr_obs::attr("ticks", s.ticks);
                sdr_obs::attr("rows_in", scanned);
                sdr_obs::attr("cells_delta", s.cells_delta);
                sdr_obs::attr("cubes_rebuilt", s.cubes_rebuilt);
                sdr_obs::attr("cubes_skipped", s.cubes_skipped);
                sdr_obs::attr("rows_homed", s.rows_homed);
                sdr_obs::attr("chunks_rewritten", s.chunks_rewritten);
                sdr_obs::attr("chunks_carried", s.chunks_carried);
                if s.cubes_rebuilt > 0 {
                    sdr_obs::attr("epoch", next.epoch);
                    sdr_obs::attr("rows_out", next.rows());
                }
                sdr_obs::event(
                    "subcube.age.tick",
                    format!(
                        "day={t} cells_delta={} rebuilt={} skipped={}",
                        s.cells_delta, s.cubes_rebuilt, s.cubes_skipped
                    ),
                );
            }
            cur = land(next);
            stats.absorb(s);
        }
        if cur.last_sync != Some(until) {
            // No transition lands exactly on `until`: advance the
            // watermark (contents at `until` equal those at the last
            // transition — the schedule proves nothing moves between).
            cur = land(cur.with_watermark(until));
        }
        Ok((cur, stats))
    }

    /// One reduction step `last_sync → t` (nothing moves strictly in
    /// between): evaluates the step's **changed disjuncts** on the rows
    /// of every chunk whose time hull meets a Δ window, resolves every
    /// un-homed row — all rows, when the version was never synchronized
    /// — re-homes exactly the rows whose cell moved (or that were never
    /// homed) and rewrites only the chunks that lose or gain rows.
    /// `sched` is the specification's schedule; `transition` says whether
    /// `t` is a scheduled transition day (counted as a tick) or a
    /// homing-only step. Returns the successor, what the step did, and
    /// how many rows it examined.
    fn age_step(
        &self,
        sched: &ReductionSchedule,
        t: DayNum,
        transition: bool,
        traced: bool,
    ) -> Result<(VersionInner, AgeStats, usize), SubcubeError> {
        let cur = self;
        let n = cur.cubes.len();
        let schema = cur.spec.schema();
        let mut stats = AgeStats {
            ticks: usize::from(transition),
            ..AgeStats::default()
        };
        // The changed disjuncts, compiled once per step at the day they
        // are compared from and at `t`, and the time windows they can
        // touch. A conservative schedule may list a day where no
        // grounding actually changed: then, as in a version never
        // synchronized, only un-homed rows can move.
        let changed = cur
            .last_sync
            .and_then(|prev| Some((prev, sched.delta_pred(prev, t)?)));
        let (mut delta, windows) = match changed {
            Some((prev, d)) => {
                let at = |day| CompiledPred::compile(schema, &d, day).map_err(ReduceError::Spec);
                let windows = sched.delta_time_windows(schema, prev, t);
                (Some(LeafMaskPlan::new(vec![at(prev)?, at(t)?])), windows)
            }
            None => (None, None),
        };
        let ti = schema.dims.iter().position(Dimension::is_time);
        // The first reduction of a version finds every chunk un-homed and
        // enters every cube into the version vector; afterwards only the
        // bottom cube's chunks from index `homed` on are un-homed.
        let first = cur.last_sync.is_none();
        let homed = cur.cubes[0].chunks().len() - cur.unhomed;
        let is_unhomed = |ci: usize, k: usize| first || (ci == 0 && k >= homed);
        // Scan phase: find the rows whose home cube or target cell
        // changes across the step, note per chunk which rows leave, and
        // fold each into the group arriving at its target cell as it is
        // found. A homed row on which every changed disjunct evaluates
        // false at both endpoints evaluates the whole spec identically at
        // both days and provably stays put; a chunk whose time hull
        // misses every Δ window holds no other kind. The Δ pair is one
        // leaf-mask plan read straight from the chunk's columns, so only
        // a row that passes is read out as a cell. Un-homed rows always
        // move: they are taken out of their chunk and grouped by cell
        // like any arriving row, so duplicates merge.
        let scan_span = traced.then(|| sdr_obs::span("subcube.age.scan"));
        let mut leaving: Vec<BTreeMap<usize, Vec<u32>>> = vec![BTreeMap::new(); n];
        let mut arriving: Vec<FxHashMap<Vec<DimValue>, Arrival>> =
            (0..n).map(|_| FxHashMap::default()).collect();
        let mut cell_memo = sdr_reduce::CellMemo::new(&cur.spec, t)?;
        let mut coords: Vec<DimValue> = Vec::new();
        let mut scanned = 0usize;
        for (ci, cube) in cur.cubes.iter().enumerate() {
            for (k, chunk) in cube.chunks().iter().enumerate() {
                let unhomed = is_unhomed(ci, k);
                if unhomed {
                    stats.rows_homed += chunk.mo.len();
                } else {
                    if delta.is_none() {
                        continue;
                    }
                    // No hull (or no window list) means "never skip".
                    if let (Some(ws), Some((lo, hi))) =
                        (&windows, ti.and_then(|ti| chunk.summary.hull(ti)))
                    {
                        let overlaps = |&(wlo, whi): &(DayNum, DayNum)| {
                            i64::from(wlo) <= hi && lo <= i64::from(whi)
                        };
                        if !ws.iter().any(overlaps) {
                            continue; // disjoint from every Δ window
                        }
                    }
                }
                let mo = chunk.mo();
                let store = mo.store();
                let mut gone: Vec<u32> = Vec::new();
                for f in mo.facts() {
                    scanned += 1;
                    if let (false, Some(delta)) = (unhomed, &mut delta) {
                        if !delta
                            .any_row(schema, store, f.index())
                            .map_err(ReduceError::Spec)?
                        {
                            continue;
                        }
                    }
                    mo.coords_into(f, &mut coords);
                    let (target, responsible) = cell_memo.cell(&coords)?;
                    let home = home_of(&cur.cubes, target);
                    if home != ci || target != coords.as_slice() {
                        stats.cells_delta += 1;
                    } else if !unhomed {
                        continue; // already at its fixed point
                    }
                    let origin = match responsible {
                        Some(id) => id.0,
                        None => store.origin[f.index()],
                    };
                    gone.push(f.0);
                    let group = match arriving[home].get_mut(target) {
                        Some(group) => group,
                        None => arriving[home]
                            .entry(target.to_vec())
                            .or_insert_with(|| Arrival::new(schema)),
                    };
                    group.fold(schema, mo, f, (ci, k, f.0), origin);
                }
                if !gone.is_empty() {
                    leaving[ci].insert(k, gone);
                }
            }
        }
        drop(scan_span);
        if !first && leaving.iter().all(BTreeMap::is_empty) {
            stats.cubes_skipped = n;
            stats.chunks_carried = cur.n_chunks();
            return Ok((cur.with_watermark(t), stats, scanned));
        }
        // Rebuild phase: only chunks that lose rows or may hold a row an
        // arriving group merges into. Measures combine commutatively and
        // a group's provenance is that of its member latest in `(cube,
        // chunk, row)` order, so the result is what Definition 2 gives
        // over the same facts scanned in that order.
        let _rebuild_span = traced.then(|| sdr_obs::span("subcube.age.rebuild"));
        let epoch = cur.epoch + 1;
        let packer = KeyPacker::new(schema);
        let mut cubes = cur.cubes.clone();
        for (ci, cube) in cubes.iter_mut().enumerate() {
            cube.synced_to = Some(t);
            let old = cur.cubes[ci].chunks();
            let mut groups = std::mem::take(&mut arriving[ci]);
            if !first && leaving[ci].is_empty() && groups.is_empty() {
                // Carry-forward: same facts, stats and epoch.
                stats.cubes_skipped += 1;
                stats.chunks_carried += old.len();
                continue;
            }
            stats.cubes_rebuilt += 1;
            // The groups' packed keys, in the map's iteration order (the
            // map gains no entry below, so the order holds).
            let keys: Vec<Option<u128>> = groups
                .keys()
                .map(|target| packer.as_ref().map(|p| p.pack_coords(target)))
                .collect();
            // The successor chunk list; `true` marks a chunk built here.
            let mut chunks: Vec<(Arc<Chunk>, bool)> = Vec::with_capacity(old.len() + 1);
            for (k, chunk) in old.iter().enumerate() {
                let gone = leaving[ci].get(&k).map_or(&[][..], Vec::as_slice);
                if gone.len() == chunk.mo.len() {
                    continue; // every row left (an un-homed chunk, typically)
                }
                let absorbs = groups
                    .keys()
                    .zip(&keys)
                    .any(|(target, key)| chunk.summary.may_hold(target, *key));
                if gone.is_empty() && !absorbs {
                    chunks.push((Arc::clone(chunk), false));
                    continue;
                }
                let mo = chunk.mo();
                let mut gone = gone.iter().peekable();
                let mut keep: Vec<u32> = Vec::with_capacity(mo.len());
                for f in mo.facts() {
                    if gone.next_if_eq(&&f.0).is_some() {
                        continue; // re-homed elsewhere
                    }
                    if absorbs {
                        mo.coords_into(f, &mut coords);
                        if let Some(group) = groups.get_mut(coords.as_slice()) {
                            // An arriving group merges into this existing
                            // row: fold it in as a member instead of
                            // keeping it.
                            let origin = mo.store().origin[f.index()];
                            group.fold(schema, mo, f, (ci, k, f.0), origin);
                            continue;
                        }
                    }
                    keep.push(f.0);
                }
                if keep.len() == mo.len() {
                    chunks.push((Arc::clone(chunk), false));
                } else if !keep.is_empty() {
                    chunks.push((Chunk::new(Arc::new(mo.gather(&keep))), true));
                }
            }
            // Sorted by cell, the arrivals are checked and inserted in
            // the order a coordinate-keyed scan gives.
            let mut groups: Vec<(Vec<DimValue>, Arrival)> = groups.into_iter().collect();
            groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
            let mut arrivals = Mo::new(Arc::clone(schema));
            for (target, group) in groups {
                if let Some(m) = group.overflow {
                    let e = schema.measure_overflow(m, &target);
                    return Err(ReduceError::Model(e).into());
                }
                arrivals
                    .insert_fact_at(&target, &group.acc, group.origin)
                    .map_err(ReduceError::Model)?;
            }
            chunks.extend(
                Chunk::cut(schema, &arrivals, 0..arrivals.len())?
                    .into_iter()
                    .map(|c| (c, true)),
            );
            // Coalesce: a chunk built here joins its predecessor while
            // both fit one chunk, so the list stays ≈ rows / CHUNK_ROWS.
            let mut list: Vec<(Arc<Chunk>, bool)> = Vec::with_capacity(chunks.len());
            for (chunk, built) in chunks {
                match list.last_mut() {
                    Some((prev, prev_built))
                        if built && prev.mo.len() + chunk.mo.len() <= CHUNK_ROWS =>
                    {
                        *prev = Chunk::merged(schema, prev, &chunk);
                        *prev_built = true;
                    }
                    _ => list.push((chunk, built)),
                }
            }
            let built = list.iter().filter(|(_, built)| *built).count();
            stats.chunks_rewritten += built;
            stats.chunks_carried += list.len() - built;
            cube.data =
                CubeData::from_chunks(schema, list.into_iter().map(|(c, _)| c).collect(), epoch);
        }
        let next = cur.successor(cubes, Some(t), 0);
        stats.merged = cur.rows().saturating_sub(next.rows());
        Ok((next, stats, scanned))
    }
}

/// A consistent, immutable read view of one shard: one published
/// version, held alive for as long as the view exists — the per-shard
/// element of a [`ShardViewSet`](crate::ShardViewSet). Cheap to clone
/// and [`Send`], so it can be handed to worker threads outright. All
/// read-side accessors — cube contents, the parent DAG, the spec, the
/// sync watermarks — answer from the same version, which is what makes
/// multi-step query evaluation torn-read-free.
#[derive(Clone)]
pub struct WarehouseView {
    pub(crate) v: Arc<VersionInner>,
}

impl WarehouseView {
    /// The epoch of the version this view pins.
    pub fn epoch(&self) -> u64 {
        self.v.epoch
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.v.spec.schema()
    }

    /// The specification driving the cubes of this version.
    pub fn spec(&self) -> &DataReductionSpec {
        &self.v.spec
    }

    /// The subcubes (cube 0 is the bottom cube).
    pub fn cubes(&self) -> &[Subcube] {
        &self.v.cubes
    }

    /// Immediate parents of a cube in the data-flow DAG.
    pub fn parents(&self, c: CubeId) -> &[CubeId] {
        &self.v.parents[c.0]
    }

    /// The last day the cubes were synchronized to.
    pub fn last_sync(&self) -> Option<DayNum> {
        self.v.last_sync
    }

    /// True when facts were bulk-loaded since the last reduction — i.e.
    /// querying this view exercises the *un-synchronized* state of
    /// Section 7.3.
    pub fn is_dirty(&self) -> bool {
        self.v.unhomed > 0
    }

    /// The version vector: per cube, the epoch at which its facts last
    /// changed. Two views observed the same warehouse contents iff their
    /// version vectors are equal.
    pub fn version_vector(&self) -> Vec<u64> {
        self.v.cubes.iter().map(Subcube::epoch).collect()
    }

    /// Total number of facts across all cubes.
    pub fn len(&self) -> usize {
        self.v.rows()
    }

    /// How many rows of the bottom cube — its last, in row order — were
    /// loaded but not yet homed by a reduction step.
    pub fn unhomed_rows(&self) -> usize {
        let tail = self.v.cubes[0].chunks().iter().rev().take(self.v.unhomed);
        tail.map(|c| c.mo.len()).sum()
    }

    /// True when no cube holds facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The home cube of a cell at time `now`: the cube of the responsible
    /// action's granularity, or the bottom cube.
    pub fn home_cube(
        &self,
        coords: &[DimValue],
        now: DayNum,
    ) -> Result<(CubeId, Vec<DimValue>), SubcubeError> {
        let c = cell_for(&self.v.spec, coords, now)?;
        Ok((CubeId(home_of(&self.v.cubes, &c.coords)), c.coords))
    }

    /// The view `age(now)` would publish from this one, **without
    /// publishing it** — the virtual synchronization of Section 7.3 —
    /// and whether it came from this version's memo. The aging is the
    /// write path's own: the steps of [`SubcubeManager::age`] from the
    /// watermark to `now` (to the watermark itself when `now` lies before
    /// it: reduction is never undone). A view with nothing un-homed that
    /// is already there is its own aged view and counts as a hit. The
    /// result is kept in a single slot on the pinned version, so every
    /// further read of the same `(version, now)` is one lock and an
    /// `Arc` clone; another day replaces it, and it is dropped with the
    /// version. Nothing the manager publishes — epoch, version vector,
    /// `age.*` counters — moves.
    pub fn virtual_age(&self, now: DayNum) -> Result<(WarehouseView, bool), SubcubeError> {
        let _span = sdr_obs::span("subcube.query.virtual_age");
        let v = &self.v;
        let day = v.day_of(now);
        // `unsync.memo-any-day` is a model-only mutation: returning the
        // slot without comparing its day is exactly the bug `specdr
        // check memo` must catch (a reader answered for another day).
        let memo = if v.unhomed == 0 && v.last_sync == Some(day) {
            Some(Arc::clone(v))
        } else {
            let slot = v.aged.lock().clone();
            slot.filter(|(at, _)| *at == day || fail::point("unsync.memo-any-day"))
                .map(|(_, aged)| aged)
        };
        let hit = memo.is_some();
        let (aged, stats) = match memo {
            Some(aged) => (aged, AgeStats::default()),
            None => {
                let (aged, stats) = v.aged(day, None)?;
                // (Never `v` itself — that case was answered above — so
                // the slot cannot make a version keep itself alive.)
                debug_assert!(!Arc::ptr_eq(&aged, v));
                *v.aged.lock() = Some((day, Arc::clone(&aged)));
                (aged, stats)
            }
        };
        if sdr_obs::enabled() {
            sdr_obs::inc(if hit {
                "subcube.unsync.memo_hits"
            } else {
                "subcube.unsync.memo_misses"
            });
            sdr_obs::attr("ticks", stats.ticks);
            sdr_obs::attr("rows_homed", stats.rows_homed);
            sdr_obs::attr("cells_delta", stats.cells_delta);
            sdr_obs::attr("chunks_rewritten", stats.chunks_rewritten);
            sdr_obs::attr("chunks_carried", stats.chunks_carried);
            sdr_obs::attr("memo", if hit { "hit" } else { "miss" });
        }
        Ok((WarehouseView { v: aged }, hit))
    }

    /// True when a reduction at `now` could move any fact: the view was
    /// never synchronized, new data was bulk-loaded since, or the
    /// [`ReductionSchedule`] lists a transition day in `(last_sync,
    /// now]`. One lookup in the schedule the specification holds — which
    /// makes frequent scheduled syncs nearly free (Section 7.2's argument
    /// that synchronization is not a bottleneck).
    pub fn needs_sync(&self, now: DayNum) -> bool {
        let Some(last) = self.v.last_sync else {
            return true;
        };
        let sched = self.v.spec.schedule();
        self.is_dirty() || !sched.transitions_between(last, now).is_empty()
    }

    /// The next scheduled transition day strictly after `after` — the
    /// next day a reduction has work to do. `None` when no further
    /// migration can ever happen — the scheduling primitive Section 8
    /// leaves as future work.
    pub fn next_sync_due(&self, after: DayNum) -> Option<DayNum> {
        self.v.spec.schedule().next_transition(after)
    }

    /// Materializes the whole warehouse version as one MO (union of all
    /// cubes).
    pub fn to_mo(&self) -> Result<Mo, SubcubeError> {
        let chunks = self.v.cubes.iter().flat_map(Subcube::chunks);
        union(self.schema(), self.len(), chunks.map(|c| c.mo()))
    }

    /// Re-derives every cube's [`SubcubeStats`] from its rows (every
    /// chunk summarized afresh, the summaries folded) and compares against
    /// the fold of its maintained chunk summaries — the stats-drift
    /// invariant check (`Err` names the first diverging
    /// cube). Cheap enough to run after every recovery and in the
    /// integration suite.
    pub fn verify_stats(&self) -> Result<(), SubcubeError> {
        for (i, c) in self.v.cubes.iter().enumerate() {
            let recomputed: Vec<ChunkSummary> = c
                .chunks()
                .iter()
                .map(|k| ChunkSummary::compute(k.mo()))
                .collect();
            let want = ChunkSummary::fold(self.schema(), &recomputed).into_stats(c.epoch());
            if want != *c.stats() {
                return Err(SubcubeError::Storage(format!(
                    "cube K{i}: maintained statistics diverge from recomputation \
                     (maintained {:?}, recomputed {want:?})",
                    c.stats()
                )));
            }
        }
        Ok(())
    }

    /// Storage statistics per cube (rows, raw and encoded bytes), via the
    /// `sdr-storage` layer.
    pub fn storage_stats(&self) -> Vec<(CubeId, sdr_storage::TableStats)> {
        let stats = |(i, c): (usize, &Subcube)| {
            let chunks = c.chunks().iter().map(|k| k.mo());
            (CubeId(i), sdr_storage::table_stats(self.schema(), chunks))
        };
        self.v.cubes.iter().enumerate().map(stats).collect()
    }

    /// A human-readable description of the cube layout (Figure 6 / the
    /// disjoint-action example of Section 7.1), including each cube's
    /// version-vector entry.
    pub fn describe(&self) -> String {
        let schema = Arc::clone(self.schema());
        let mut s = String::new();
        for (i, c) in self.v.cubes.iter().enumerate() {
            let acts: Vec<String> = c.actions.iter().map(|a| format!("a{}", a.0)).collect();
            let parents: Vec<String> = self.v.parents[i]
                .iter()
                .map(|p| format!("K{}", p.0))
                .collect();
            s.push_str(&format!(
                "K{i} {} actions=[{}] parents=[{}] rows={} epoch={}\n",
                schema.render_granularity(&c.grain),
                acts.join(","),
                parents.join(","),
                c.rows(),
                c.epoch()
            ));
        }
        s
    }
}

/// The per-shard core: one shard's part of the physical MO of Section
/// 7, published as epoch-versioned immutable snapshots. The warehouse is
/// [`ShardRouter`](crate::ShardRouter), which logs every operation and
/// applies it to one core per shard; the core is public only as the
/// seam the model checker (`sdr-check`) and the benchmark's reference
/// drive.
///
/// All mutators take `&self` (they serialize on an internal writer lock
/// and publish a successor version), so a core can be shared across
/// threads as `Arc<SubcubeManager>` with readers pinning views
/// concurrently.
#[doc(hidden)]
pub struct SubcubeManager {
    schema: Arc<Schema>,
    /// The current published version. Readers clone the `Arc` with one
    /// atomic pointer load; the only write-side critical section is the
    /// pointer swap in [`publish`](SubcubeManager::publish). `sdr-check`
    /// model-checks this publish/acquire pair exhaustively.
    current: Swap<VersionInner>,
    /// Serializes mutators so each builds its successor from the latest
    /// published version.
    writer: Mutex<()>,
}

impl SubcubeManager {
    /// Builds the cube set for a validated specification: one cube per
    /// distinct action granularity plus the bottom cube.
    pub fn new(spec: DataReductionSpec) -> Self {
        SubcubeManager {
            schema: Arc::clone(spec.schema()),
            current: Swap::new(Arc::new(VersionInner::initial(spec, 0))),
            writer: Mutex::new(()),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Acquires a consistent read view of the current version. The view
    /// pins the version: it stays fully readable (and immutable) no
    /// matter how many reductions publish after it.
    pub fn view(&self) -> WarehouseView {
        WarehouseView {
            v: self.current.load(),
        }
    }

    /// The specification driving the cubes (of the current version).
    pub(crate) fn spec(&self) -> Arc<DataReductionSpec> {
        Arc::clone(&self.current.load().spec)
    }

    /// The last day the cubes were synchronized to.
    pub(crate) fn last_sync(&self) -> Option<DayNum> {
        self.current.load().last_sync
    }

    /// Publishes `next` as the current version — the single pointer swap
    /// every reader observes atomically — and returns it.
    fn publish(&self, next: VersionInner) -> Arc<VersionInner> {
        let next = Arc::new(next);
        self.current.store(Arc::clone(&next));
        if sdr_obs::enabled() {
            sdr_obs::inc("subcube.publish.count");
            sdr_obs::gauge_set("subcube.epoch", next.epoch as i64);
        }
        next
    }

    /// Bulk-loads new bottom-granularity facts into the bottom cube
    /// (Section 7.2: "all new data enter into the subcube having the
    /// bottom-level granularity"). Synchronize afterwards to migrate any
    /// facts that immediately satisfy an action. The facts are appended
    /// to the bottom cube as new, **un-homed** chunks; every existing
    /// chunk — and every other cube, with its version-vector entry —
    /// crosses into the new version by pointer.
    pub fn bulk_load(&self, facts: &Mo) -> Result<usize, SubcubeError> {
        if facts.schema().fact_type != self.schema.fact_type {
            return Err(SubcubeError::Reduce(ReduceError::Model(
                sdr_mdm::MdmError::SchemaMismatch("bulk load schema".into()),
            )));
        }
        let _span = sdr_obs::span("subcube.bulk_load");
        sdr_obs::attr("rows_in", facts.len());
        // The one copy a load makes: its own rows, onto the warehouse's
        // schema instance (before the writer lock — it needs no version).
        let appended = Chunk::cut(&self.schema, facts, 0..facts.len())?;
        // `mgr.publish-unlocked` is a model-only mutation: skipping the
        // writer lock lets `specdr check` prove the single-writer
        // serialization is load-bearing (two loads race, one is lost).
        let _w = (!fail::point("mgr.publish-unlocked")).then(|| self.writer.lock());
        let cur = self.current.load();
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        if !appended.is_empty() {
            let mut chunks = cur.cubes[0].chunks().to_vec();
            chunks.extend(appended.iter().cloned());
            cubes[0].data = CubeData::from_chunks(&self.schema, chunks, epoch);
        }
        if sdr_obs::enabled() {
            sdr_obs::attr("epoch", epoch);
            sdr_obs::attr("chunks_rewritten", appended.len());
            sdr_obs::attr("chunks_carried", cur.n_chunks());
            sdr_obs::add("subcube.bulk_load.facts", facts.len() as u64);
        }
        self.publish(cur.successor(cubes, cur.last_sync, cur.unhomed + appended.len()));
        Ok(facts.len())
    }

    /// Synchronizes all cubes to time `now` (Section 7.2): facts whose
    /// home cube changed are aggregated to the target granularity and
    /// moved, and inflows from several parents merge (the "final
    /// aggregation" of the paper). This is [`age`](Self::age) under its
    /// paper name, with one difference: time does not move backwards —
    /// reduction cannot be undone — so a `now` before the watermark
    /// synchronizes to the watermark instead of being refused: every
    /// version is the reduction at one day, and no cell was ever placed
    /// after `last_sync` (the region oracle's premise).
    pub fn sync(&self, now: DayNum) -> Result<AgeStats, SubcubeError> {
        let _span = sdr_obs::span("subcube.sync");
        let stats = self.reduce_to(now, true)?;
        if sdr_obs::enabled() {
            sdr_obs::event(
                "subcube.sync",
                format!(
                    "day={now} ticks={} cells_delta={} merged={} rows_homed={}",
                    stats.ticks, stats.cells_delta, stats.merged, stats.rows_homed
                ),
            );
        }
        Ok(stats)
    }

    /// Ages the warehouse to `until`: the precomputed
    /// [`ReductionSchedule`] yields the transition days in `(last_sync,
    /// until]` — the only days any cell can cross an action boundary —
    /// and each is applied as one **tick** that re-evaluates only facts
    /// touched by the changed groundings. Un-homed rows (bulk-loaded
    /// since the last reduction; every row of a warehouse never
    /// synchronized) are resolved to their home cell by the first step —
    /// a step of their own at `until` when no transition is in range —
    /// so a load followed by `age` costs the rows loaded, not the
    /// warehouse. Untouched chunks and cubes are carried forward by
    /// `Arc` (a carried cube's version-vector entry does not move), and
    /// each step lands as one atomic publication of a whole reduction
    /// state: concurrent readers never see a half-migrated one. After
    /// `age(until)` the warehouse is Definition 2's reduction of every
    /// fact loaded so far at `until` (the differential suites assert
    /// this at every step).
    ///
    /// `until` earlier than the current watermark is rejected with
    /// [`SubcubeError::AgeBeforeWatermark`] — aging is monotone.
    pub fn age(&self, until: DayNum) -> Result<AgeStats, SubcubeError> {
        self.reduce_to(until, false)
    }

    /// The one reduction mutator behind [`sync`](Self::sync) and
    /// [`age`](Self::age): folds the steps to `day` — clamped to the
    /// watermark, or refused when before it — publishing each.
    fn reduce_to(&self, day: DayNum, clamp: bool) -> Result<AgeStats, SubcubeError> {
        let _span = sdr_obs::span("subcube.age");
        // See bulk_load: model-only mutation hook for `specdr check`.
        let _w = (!fail::point("mgr.publish-unlocked")).then(|| self.writer.lock());
        let cur = self.current.load();
        let until = cur.day_of(day);
        if until != day && !clamp {
            return Err(SubcubeError::AgeBeforeWatermark {
                until: day,
                last_sync: until,
            });
        }
        let stats = match cur.aged(until, Some(self)) {
            Ok((_, stats)) => stats,
            Err(e) => {
                // A failed step published nothing, but the steps before it
                // did: put the pre-call contents back, so the failed call
                // is as if never issued — the caller logs nothing.
                if self.current.load().epoch != cur.epoch {
                    self.republish(&cur);
                }
                return Err(e);
            }
        };
        if sdr_obs::enabled() {
            // Same locals returned to the caller — the counters cannot
            // disagree with `AgeStats` (asserted by the integration suite).
            sdr_obs::add("age.ticks", stats.ticks as u64);
            sdr_obs::add("age.cells_delta", stats.cells_delta as u64);
            sdr_obs::add("age.cubes_skipped", stats.cubes_skipped as u64);
            sdr_obs::add("age.rows_homed", stats.rows_homed as u64);
            sdr_obs::add("subcube.chunks.rewritten", stats.chunks_rewritten as u64);
            sdr_obs::add("subcube.chunks.carried", stats.chunks_carried as u64);
            sdr_obs::attr("ticks", stats.ticks);
            sdr_obs::attr("rows_out", self.view().len());
            sdr_obs::event(
                "subcube.age",
                format!(
                    "until={until} ticks={} cells_delta={} cubes_skipped={} rows_homed={}",
                    stats.ticks, stats.cells_delta, stats.cubes_skipped, stats.rows_homed
                ),
            );
        }
        Ok(stats)
    }

    /// Evolves the specification by inserting `new` actions
    /// ([`DataReductionSpec::insert`], Definition 3) and rebuilds the
    /// cube layout for the extended action set. All facts are staged in
    /// the bottom cube and redistributed by the next
    /// [`sync`](SubcubeManager::sync) pass, exactly as after a bulk load.
    /// On rejection (NonCrossing/Growing violation) the manager is
    /// unchanged.
    pub(crate) fn evolve_insert(
        &self,
        new: Vec<ActionSpec>,
    ) -> Result<Vec<ActionId>, SubcubeError> {
        let _w = self.writer.lock();
        let cur = self.current.load();
        let mut spec = (*cur.spec).clone();
        let ids = spec.insert(new)?;
        self.rebuild_with_spec(&cur, spec);
        sdr_obs::inc("subcube.evolve.insert");
        Ok(ids)
    }

    /// Evolves the specification by deleting the given actions
    /// ([`DataReductionSpec::delete`], Definition 4) — checked against the
    /// warehouse's current facts at time `now` — and rebuilds the cube
    /// layout. On rejection the manager is unchanged.
    pub(crate) fn evolve_delete(&self, ids: &[ActionId], now: DayNum) -> Result<(), SubcubeError> {
        let _w = self.writer.lock();
        let cur = self.current.load();
        let mo = WarehouseView {
            v: Arc::clone(&cur),
        }
        .to_mo()?;
        let mut spec = (*cur.spec).clone();
        spec.delete(ids, &mo, now)?;
        self.rebuild_with_spec(&cur, spec);
        sdr_obs::inc("subcube.evolve.delete");
        Ok(())
    }

    /// Publishes a successor version with a new specification: the cube
    /// DAG is re-derived and every existing chunk is staged, by pointer
    /// and un-homed, in the bottom cube (the one cube allowed to hold
    /// foreign-granularity rows; the next reduction step homes them).
    /// Caller holds the writer lock.
    fn rebuild_with_spec(&self, cur: &Arc<VersionInner>, spec: DataReductionSpec) {
        let mut next = VersionInner::initial(spec, cur.epoch + 1);
        let staged: Vec<Arc<Chunk>> = cur
            .cubes
            .iter()
            .flat_map(|c| c.chunks().iter().cloned())
            .collect();
        next.last_sync = cur.last_sync;
        next.unhomed = staged.len();
        next.cubes[0].data = CubeData::from_chunks(&self.schema, staged, next.epoch);
        self.publish(next);
    }

    /// Re-publishes the contents of `view` as a new version (epoch still
    /// advances — epochs never reuse). The rollback path for batched
    /// durability: a batch that fails partway must leave the warehouse
    /// "as if never issued", and with immutable versions that is exactly
    /// one publication of the pre-batch snapshot.
    pub(crate) fn rollback_to(&self, view: &WarehouseView) {
        let _w = self.writer.lock();
        self.republish(&view.v);
    }

    /// [`rollback_to`](Self::rollback_to) with the writer lock held.
    fn republish(&self, v: &VersionInner) {
        let cur = self.current.load();
        self.publish(VersionInner {
            epoch: cur.epoch + 1,
            ..v.successor(v.cubes.clone(), v.last_sync, v.unhomed)
        });
        sdr_obs::inc("subcube.publish.rollbacks");
    }

    /// Installs recovered cube contents wholesale (checkpoint loading):
    /// one publication carrying every cube plus the recovered `last_sync`.
    /// The last `unhomed_rows` rows of the bottom cube were loaded but
    /// not yet homed when the checkpoint was taken; they come back as
    /// un-homed chunks of their own.
    pub(crate) fn install_checkpoint(
        &self,
        mos: Vec<Mo>,
        last_sync: Option<DayNum>,
        unhomed_rows: usize,
    ) -> Result<(), SubcubeError> {
        let _w = self.writer.lock();
        let cur = self.current.load();
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        debug_assert_eq!(mos.len(), cubes.len());
        let mut unhomed = 0;
        for (i, (c, mo)) in cubes.iter_mut().zip(mos).enumerate() {
            c.synced_to = last_sync;
            if i == 0 && unhomed_rows > 0 {
                let split = mo.len() - unhomed_rows;
                let mut chunks = Chunk::cut(&self.schema, &mo, 0..split)?;
                let tail = Chunk::cut(&self.schema, &mo, split..mo.len())?;
                unhomed = tail.len();
                chunks.extend(tail);
                c.data = CubeData::from_chunks(&self.schema, chunks, epoch);
            } else {
                c.data = CubeData::from_mo(mo, epoch);
            }
        }
        self.publish(cur.successor(cubes, last_sync, unhomed));
        Ok(())
    }

    /// Materializes the whole core as one MO (union of all cubes).
    pub fn to_mo(&self) -> Result<Mo, SubcubeError> {
        self.view().to_mo()
    }
}
