//! Reduction semantics (Sections 4.2 and 4.4).
//!
//! Implements the auxiliary functions `Spec_gran`, `Cell`, and `AggLevel_i`
//! (Equations 11–13) and the reduced-object semantics of Definition 2:
//! facts are grouped by the cell they aggregate to, lower-level facts are
//! physically removed, and measures are re-aggregated with their default
//! (distributive) aggregate functions. Every produced fact records the
//! *responsible* action, supporting the paper's requirement that the
//! system can explain why data sits at its current level.

use std::collections::BTreeMap;
use std::ops::Range;

use sdr_mdm::{
    CatId, DayNum, DimId, DimValue, FactId, FxHashMap, Granularity, KeyPacker, Mo, PackedKey,
    Schema, ORIGIN_USER,
};
use sdr_spec::{eval_pred, ActionId, CompiledPred};

use crate::error::ReduceError;
use crate::spec_set::DataReductionSpec;

/// `Spec_gran(f, t)` (Equation 11): the granularities specified for fact
/// `f` at time `t` — one entry per action whose predicate `f`'s direct
/// cell satisfies, plus the fact's own granularity (tagged `None`).
pub fn spec_gran(
    mo: &Mo,
    spec: &DataReductionSpec,
    f: FactId,
    now: DayNum,
) -> Result<Vec<(Option<ActionId>, Granularity)>, ReduceError> {
    let coords = mo.coords(f);
    let mut out = Vec::with_capacity(spec.len() + 1);
    for (id, a) in spec.actions() {
        if eval_pred(spec.schema(), &a.pred, &coords, now)? {
            out.push((Some(*id), a.grain.clone()));
        }
    }
    out.push((None, mo.gran(f)));
    Ok(out)
}

/// The result of `Cell(f, t)` (Equation 12): the target coordinates and
/// the action responsible for them (`None` when the fact keeps its own
/// granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The dimension values of the cell the fact aggregates to.
    pub coords: Vec<DimValue>,
    /// The action responsible for raising the fact to this cell, if any.
    pub responsible: Option<ActionId>,
}

/// `Cell(f, t)` (Equation 12): rolls the fact's coordinates up to the
/// maximum granularity in `Spec_gran(f, t)`.
///
/// # Errors
/// [`ReduceError::IncomparableGranularities`] when two applicable
/// granularities are unordered — impossible for specifications that passed
/// the NonCrossing check.
pub fn cell(
    mo: &Mo,
    spec: &DataReductionSpec,
    f: FactId,
    now: DayNum,
) -> Result<CellResult, ReduceError> {
    cell_for(spec, &mo.coords(f), now)
}

/// Coordinate-level `Cell`: computes the target cell for an arbitrary
/// direct cell (used by the subcube manager, which stores rows outside an
/// `Mo`). The cell's own granularity is derived from its categories.
pub fn cell_for(
    spec: &DataReductionSpec,
    coords: &[DimValue],
    now: DayNum,
) -> Result<CellResult, ReduceError> {
    let schema = spec.schema();
    let own = Granularity(coords.iter().map(|v| v.cat).collect());
    let mut grans: Vec<(ActionId, &Granularity)> = Vec::with_capacity(spec.len());
    for (id, a) in spec.actions() {
        if eval_pred(schema, &a.pred, coords, now)? {
            grans.push((*id, &a.grain));
        }
    }
    // The applicable action grains are totally ordered (NonCrossing);
    // the fact's own granularity may be *incomparable* with them when a
    // coordinate is ⊤ ("unknown value", Section 3), so the target is the
    // per-dimension LUB of the winning action grain and the fact's own
    // categories — a fact can never be rolled down.
    let max_action = Granularity::max_of(grans.iter().map(|(_, g)| *g), schema);
    if !grans.is_empty() && max_action.is_none() {
        return Err(ReduceError::IncomparableGranularities {
            fact: format!("{coords:?}"),
        });
    }
    let target_gran = match &max_action {
        None => own.clone(),
        Some(m) => Granularity(
            m.0.iter()
                .enumerate()
                .map(|(i, &c)| schema.dims[i].graph().lub(c, own.0[i]))
                .collect(),
        ),
    };
    // Responsible: the action achieving the maximum, when it strictly
    // raises the fact; otherwise the fact keeps its provenance.
    let responsible = if target_gran == own {
        None
    } else {
        max_action
            .as_ref()
            .and_then(|m| grans.iter().find(|(_, g)| *g == m).map(|(id, _)| *id))
    };
    let mut target = Vec::with_capacity(coords.len());
    for (i, v) in coords.iter().enumerate() {
        let d = DimId(i as u16);
        target.push(schema.dim(d).rollup(*v, target_gran.cat(d))?);
    }
    Ok(CellResult {
        coords: target,
        responsible,
    })
}

/// `AggLevel_i(v₁,…,vₙ, t)` (Equation 13): the maximum category any action
/// aggregates the given (bottom-level) cell to in dimension `dim`; the
/// dimension's bottom when no action applies.
pub fn agg_level(
    spec: &DataReductionSpec,
    coords: &[DimValue],
    dim: DimId,
    now: DayNum,
) -> Result<CatId, ReduceError> {
    let schema = spec.schema();
    let g = schema.dim(dim).graph();
    let mut best = g.bottom();
    for (_, a) in spec.actions() {
        if eval_pred(schema, &a.pred, coords, now)? {
            let c = a.grain.cat(dim);
            if g.leq(best, c) {
                best = c;
            }
        }
    }
    Ok(best)
}

/// The reduction operator of Definition 2: produces the reduced MO
/// `O'(t)`, grouping facts by `Cell(f, t)` and re-aggregating measures.
///
/// Properties (tested in the suite):
/// * idempotent at a fixed time: `reduce(reduce(O,t),t) = reduce(O,t)`;
/// * monotone for Growing specifications: granularities never decrease as
///   `t` advances;
/// * measure-conserving for SUM/COUNT measures;
/// * schema-preserving (new facts can still be inserted at the bottom).
///
/// # Vectorized kernel
///
/// When the schema's cells pack into a `u64`/`u128` key ([`KeyPacker`]),
/// the scan runs a compiled kernel: every action predicate is compiled
/// once per pass ([`CompiledPred`] — DNF + `NOW` terms pre-resolved), the
/// `Cell` result is memoized per *distinct* direct cell, and large fact
/// sets are scanned in parallel chunks whose partial aggregates merge
/// deterministically (see [`reduce` internals]); output, provenance, and
/// error behaviour are identical to the retained reference
/// [`reduce_naive`], which the differential property suite asserts.
///
/// [`reduce` internals]: self
pub fn reduce(mo: &Mo, spec: &DataReductionSpec, now: DayNum) -> Result<Mo, ReduceError> {
    reduce_with_workers(mo, spec, now, None)
}

/// [`reduce`] with the kernel's scan worker count pinned (1 forces the
/// sequential scan, more the chunk-parallel one even on small inputs)
/// instead of chosen from the input size — for the span-handoff
/// differential test, which compares both trees of the same pass.
#[doc(hidden)]
pub fn reduce_with_workers(
    mo: &Mo,
    spec: &DataReductionSpec,
    now: DayNum,
    workers: Option<usize>,
) -> Result<Mo, ReduceError> {
    let _span = sdr_obs::span("reduce.reduce");
    let out = match KeyPacker::new(spec.schema()) {
        Some(pk) if pk.fits64() => reduce_kernel::<u64>(mo, spec, now, &pk, workers)?,
        Some(pk) => reduce_kernel::<u128>(mo, spec, now, &pk, workers)?,
        None => reduce_core_naive(mo, spec, now)?,
    };
    if sdr_obs::enabled() {
        // Published from the same values the caller observes:
        // scanned = collapsed + kept always holds (the integration suite
        // asserts it against the input fact count).
        let scanned = mo.len() as u64;
        let kept = out.len() as u64;
        sdr_obs::add("reduce.facts_scanned", scanned);
        sdr_obs::add("reduce.facts_kept", kept);
        sdr_obs::add("reduce.facts_collapsed", scanned - kept);
        sdr_obs::attr("rows_in", scanned);
        sdr_obs::attr("rows_out", kept);
    }
    Ok(out)
}

/// The retained fact-at-a-time reference implementation of [`reduce`]:
/// re-evaluates every action predicate per fact through
/// [`eval_pred`] and groups through a `BTreeMap` on coordinate vectors.
/// Kept for the differential property suite and the CI perf smoke's
/// kernel-vs-naive digests; [`reduce`] only falls back to this core when
/// the schema does not pack. Does not publish the `reduce.facts_*`
/// counters (the [`reduce`] wrapper does).
pub fn reduce_naive(mo: &Mo, spec: &DataReductionSpec, now: DayNum) -> Result<Mo, ReduceError> {
    reduce_core_naive(mo, spec, now)
}

fn reduce_core_naive(mo: &Mo, spec: &DataReductionSpec, now: DayNum) -> Result<Mo, ReduceError> {
    let schema = spec.schema();
    let n_measures = schema.n_measures();
    // Grouping is keyed on the target coordinates. BTreeMap keeps the
    // output deterministic (sorted by cell), which the figure-exact tests
    // rely on.
    #[derive(Default)]
    struct Group {
        acc: Vec<i64>,
        origin: u32,
        members: u32,
    }
    let mut groups: BTreeMap<Vec<DimValue>, Group> = BTreeMap::new();
    // Per-action raise counts, accumulated locally and published once
    // after the loop (the hot loop pays one hoisted bool while disabled).
    let obs_on = sdr_obs::enabled();
    let mut raised_by: BTreeMap<u32, u64> = BTreeMap::new();
    for f in mo.facts() {
        let c = cell(mo, spec, f, now)?;
        if obs_on {
            if let Some(id) = c.responsible {
                *raised_by.entry(id.0).or_insert(0) += 1;
            }
        }
        let entry = groups.entry(c.coords).or_insert_with(|| Group {
            acc: schema.measures.iter().map(|m| m.agg.identity()).collect(),
            origin: ORIGIN_USER,
            members: 0,
        });
        for j in 0..n_measures {
            let m = sdr_mdm::MeasureId(j as u16);
            entry.acc[j] = schema.measures[j]
                .agg
                .combine(entry.acc[j], mo.measure(f, m));
        }
        entry.members += 1;
        // Provenance: the responsible action if the fact moved; otherwise
        // the fact's existing origin. When several facts merge, the
        // aggregating action is responsible.
        match c.responsible {
            Some(id) => entry.origin = id.0,
            None => {
                if entry.members == 1 {
                    entry.origin = mo.store().origin[f.index()];
                }
            }
        }
    }
    let mut out = mo.empty_like();
    // Handle looked up once; recording is a few relaxed atomics per group.
    let members_hist = obs_on.then(|| sdr_obs::global().histogram("reduce.group_members"));
    for (coords, grp) in groups {
        if let Some(h) = &members_hist {
            h.record(grp.members as u64);
        }
        out.insert_fact_at(&coords, &grp.acc, grp.origin)?;
    }
    if obs_on {
        publish_raised_by(spec, &raised_by);
    }
    Ok(out)
}

/// Publishes per-action raise counts through the spec's cached metric
/// names (no `format!` on the steady-state path).
fn publish_raised_by(spec: &DataReductionSpec, raised_by: &BTreeMap<u32, u64>) {
    for (&action, &n) in raised_by {
        match spec.raised_metric(ActionId(action)) {
            Some(name) => sdr_obs::add(name, n),
            None => sdr_obs::add(&format!("reduce.action.a{action}.facts_raised"), n),
        }
    }
}

/// Coordinate-level `Cell` over pre-compiled action predicates — mirrors
/// [`cell_for`] exactly, including the incomparable-granularities error.
fn cell_compiled(
    schema: &Schema,
    actions: &[(ActionId, Granularity, CompiledPred)],
    coords: &[DimValue],
) -> Result<CellResult, ReduceError> {
    let own = Granularity(coords.iter().map(|v| v.cat).collect());
    let mut grans: Vec<(ActionId, &Granularity)> = Vec::with_capacity(actions.len());
    for (id, grain, pred) in actions {
        if pred.eval_cell(schema, coords)? {
            grans.push((*id, grain));
        }
    }
    let max_action = Granularity::max_of(grans.iter().map(|(_, g)| *g), schema);
    if !grans.is_empty() && max_action.is_none() {
        return Err(ReduceError::IncomparableGranularities {
            fact: format!("{coords:?}"),
        });
    }
    let target_gran = match &max_action {
        None => own.clone(),
        Some(m) => Granularity(
            m.0.iter()
                .enumerate()
                .map(|(i, &c)| schema.dims[i].graph().lub(c, own.0[i]))
                .collect(),
        ),
    };
    let responsible = if target_gran == own {
        None
    } else {
        max_action
            .as_ref()
            .and_then(|m| grans.iter().find(|(_, g)| *g == m).map(|(id, _)| *id))
    };
    let mut target = Vec::with_capacity(coords.len());
    for (i, v) in coords.iter().enumerate() {
        let d = DimId(i as u16);
        target.push(schema.dim(d).rollup(*v, target_gran.cat(d))?);
    }
    Ok(CellResult {
        coords: target,
        responsible,
    })
}

/// The target cell decision for one (applicable-action set, own
/// granularity) pair: everything in `Cell(v⃗, t)` past predicate
/// evaluation depends only on those two inputs, never on the coordinate
/// codes themselves.
struct CellDecision {
    responsible: Option<u32>,
    target_cats: Vec<CatId>,
}

/// One leaf occurrence within a dimension's plan: its mask bit plus the
/// `(action, conjunction, leaf)` address inside the compiled predicates.
type LeafSlot = (u64, usize, usize, usize);

/// A per-dimension decomposition of `Cell(v⃗, t)`.
///
/// A whole-cell memo caps out when most cells are distinct (a raw
/// clickstream has nearly one cell per fact), leaving the expensive
/// [`cell_compiled`] walk on the memo-miss path. This kernel splits the
/// work along axes with far smaller domains:
///
/// 1. **Leaves per dimension value.** Every compiled leaf reads one
///    dimension; its outcome is memoized per distinct `(cat, code)` of
///    that dimension (hundreds of entries, not tens of thousands).
///    Leaves of all actions share one ≤64-bit space, so a fact's
///    satisfied set is the OR of its per-dimension masks and an action
///    applies iff one of its conjunction masks is contained in it.
/// 2. **Decision per (action set, own granularity).** Granularity
///    maximum, incomparability, LUB target and responsibility are
///    functions of the applicable-action mask and the fact's category
///    vector only — a handful of distinct combinations per pass.
/// 3. **Roll-up per (value, target category).** Graph walks are memoized
///    per distinct dimension value and target, shared across all cells
///    that contain the value.
///
/// Construction returns `None` (callers keep the whole-cell path) when
/// the spec exceeds the mask layout: > 64 leaves, > 32 actions, or
/// > 12 dimensions.
struct CellKernelState {
    /// Per action, its conjunction masks in the shared leaf bit space.
    action_conjs: Vec<Vec<u64>>,
    /// Dimensions carrying leaves: `(dim, [(bit, action, conj, leaf)])`.
    dims: Vec<(DimId, Vec<LeafSlot>)>,
    /// Per entry of `dims`: distinct dimension value → satisfied-leaf mask.
    dim_memos: Vec<FxHashMap<(u8, u64), u64>>,
    /// `(action mask, packed category vector)` → decision.
    decisions: FxHashMap<u128, CellDecision>,
    /// `(dim, cat, code, target cat)` → rolled-up value.
    rollups: FxHashMap<(u16, u8, u64, u8), DimValue>,
    /// Scratch target coordinates of the last [`CellKernelState::resolve`].
    target: Vec<DimValue>,
}

impl CellKernelState {
    fn new(schema: &Schema, actions: &[(ActionId, Granularity, CompiledPred)]) -> Option<Self> {
        let total: usize = actions.iter().map(|(_, _, p)| p.n_leaves()).sum();
        if total > 64 || actions.len() > 32 || schema.n_dims() > 12 {
            return None;
        }
        let mut action_conjs = Vec::with_capacity(actions.len());
        let mut dims: Vec<(DimId, Vec<LeafSlot>)> = Vec::new();
        let mut bit = 0u32;
        for (ai, (_, _, p)) in actions.iter().enumerate() {
            let lens: Vec<usize> = p.conj_lens().collect();
            let mut conjs = Vec::with_capacity(lens.len());
            for (ci, &len) in lens.iter().enumerate() {
                let mut cm = 0u64;
                for li in 0..len {
                    let b = 1u64 << bit;
                    bit += 1;
                    cm |= b;
                    let d = p.leaf_dim(ci, li);
                    match dims.iter_mut().find(|(dim, _)| *dim == d) {
                        Some((_, v)) => v.push((b, ai, ci, li)),
                        None => dims.push((d, vec![(b, ai, ci, li)])),
                    }
                }
                conjs.push(cm);
            }
            action_conjs.push(conjs);
        }
        let dim_memos = dims.iter().map(|_| FxHashMap::default()).collect();
        Some(CellKernelState {
            action_conjs,
            dims,
            dim_memos,
            decisions: FxHashMap::default(),
            rollups: FxHashMap::default(),
            target: Vec::new(),
        })
    }

    /// The decision for one new (action mask, own granularity) pair —
    /// byte-for-byte the tail of [`cell_compiled`].
    fn decide(
        &self,
        schema: &Schema,
        actions: &[(ActionId, Granularity, CompiledPred)],
        amask: u32,
        coords: &[DimValue],
    ) -> Result<CellDecision, ReduceError> {
        let own = Granularity(coords.iter().map(|v| v.cat).collect());
        let mut grans: Vec<(ActionId, &Granularity)> = Vec::with_capacity(actions.len());
        for (ai, (id, grain, _)) in actions.iter().enumerate() {
            if amask & (1 << ai) != 0 {
                grans.push((*id, grain));
            }
        }
        let max_action = Granularity::max_of(grans.iter().map(|(_, g)| *g), schema);
        if !grans.is_empty() && max_action.is_none() {
            return Err(ReduceError::IncomparableGranularities {
                fact: format!("{coords:?}"),
            });
        }
        let target_gran = match &max_action {
            None => own.clone(),
            Some(m) => Granularity(
                m.0.iter()
                    .enumerate()
                    .map(|(i, &c)| schema.dims[i].graph().lub(c, own.0[i]))
                    .collect(),
            ),
        };
        let responsible = if target_gran == own {
            None
        } else {
            max_action
                .as_ref()
                .and_then(|m| grans.iter().find(|(_, g)| *g == m).map(|(id, _)| id.0))
        };
        Ok(CellDecision {
            responsible,
            target_cats: target_gran.0,
        })
    }

    /// Resolves `Cell(coords, t)`: returns the responsible action and
    /// leaves the target coordinates in `self.target`. Agrees with
    /// [`cell_compiled`] on every input.
    fn resolve(
        &mut self,
        schema: &Schema,
        actions: &[(ActionId, Granularity, CompiledPred)],
        coords: &[DimValue],
    ) -> Result<Option<ActionId>, ReduceError> {
        let mut sat = 0u64;
        for (di, (dim, leaves)) in self.dims.iter().enumerate() {
            let v = coords[dim.index()];
            let key = (v.cat.0, v.code);
            sat |= match self.dim_memos[di].get(&key) {
                Some(&m) => m,
                None => {
                    let mut m = 0u64;
                    for &(b, ai, ci, li) in leaves {
                        if actions[ai].2.eval_leaf(schema, ci, li, v)? {
                            m |= b;
                        }
                    }
                    self.dim_memos[di].insert(key, m);
                    m
                }
            };
        }
        let mut amask = 0u32;
        for (ai, conjs) in self.action_conjs.iter().enumerate() {
            if conjs.iter().any(|&cm| cm & !sat == 0) {
                amask |= 1 << ai;
            }
        }
        let mut dkey = amask as u128;
        for v in coords {
            dkey = (dkey << 8) | v.cat.0 as u128;
        }
        if !self.decisions.contains_key(&dkey) {
            let d = self.decide(schema, actions, amask, coords)?;
            self.decisions.insert(dkey, d);
        }
        let dec = &self.decisions[&dkey];
        self.target.clear();
        for (i, v) in coords.iter().enumerate() {
            let tc = dec.target_cats[i];
            let tv = if v.cat == tc {
                *v
            } else {
                let rkey = (i as u16, v.cat.0, v.code, tc.0);
                match self.rollups.get(&rkey) {
                    Some(&t) => t,
                    None => {
                        let t = schema.dim(DimId(i as u16)).rollup(*v, tc)?;
                        self.rollups.insert(rkey, t);
                        t
                    }
                }
            };
            self.target.push(tv);
        }
        Ok(dec.responsible.map(ActionId))
    }
}

/// A memoized coordinate-level `Cell` evaluator for one `(spec, now)`
/// pass: action predicates are compiled once ([`CompiledPred`]) and the
/// result is cached per distinct packed cell when the schema packs into
/// a 128-bit key. Used by callers that resolve cells for many rows
/// outside an `Mo` scan (e.g. the subcube reduction step); agrees with
/// [`cell_for`] on every input.
pub struct CellMemo<'a> {
    schema: &'a Schema,
    actions: Vec<(ActionId, Granularity, CompiledPred)>,
    packer: Option<KeyPacker>,
    kernel: Option<CellKernelState>,
    memo: FxHashMap<u128, u32>,
    cells: Vec<CellResult>,
}

impl<'a> CellMemo<'a> {
    /// Compiles `spec`'s action predicates with `NOW ← now`.
    pub fn new(spec: &'a DataReductionSpec, now: DayNum) -> Result<Self, ReduceError> {
        let schema: &Schema = spec.schema();
        let mut actions = Vec::with_capacity(spec.len());
        for (id, a) in spec.actions() {
            actions.push((
                *id,
                a.grain.clone(),
                CompiledPred::compile(schema, &a.pred, now)?,
            ));
        }
        let kernel = CellKernelState::new(schema, &actions);
        Ok(CellMemo {
            schema,
            actions,
            packer: KeyPacker::new(schema),
            kernel,
            memo: FxHashMap::default(),
            cells: Vec::new(),
        })
    }

    /// One uncached cell resolution — the per-dimension kernel when the
    /// spec fits its mask layout, the whole-cell walk otherwise.
    fn compute(&mut self, coords: &[DimValue]) -> Result<CellResult, ReduceError> {
        match self.kernel.as_mut() {
            Some(k) => {
                let responsible = k.resolve(self.schema, &self.actions, coords)?;
                Ok(CellResult {
                    coords: k.target.clone(),
                    responsible,
                })
            }
            None => cell_compiled(self.schema, &self.actions, coords),
        }
    }

    /// `Cell(v⃗, t)` with `t` fixed at construction — equal to
    /// [`cell_for`] on the same inputs, memoized per distinct cell.
    pub fn cell(&mut self, coords: &[DimValue]) -> Result<CellResult, ReduceError> {
        if let Some(pk) = &self.packer {
            let k = pk.pack_coords(coords);
            if let Some(&ix) = self.memo.get(&k) {
                return Ok(self.cells[ix as usize].clone());
            }
            let c = self.compute(coords)?;
            self.memo.insert(k, self.cells.len() as u32);
            self.cells.push(c.clone());
            Ok(c)
        } else {
            self.compute(coords)
        }
    }

    /// Distinct cells resolved so far (0 when the schema does not pack —
    /// nothing is cached then).
    pub fn distinct(&self) -> usize {
        self.cells.len()
    }
}

/// One chunk's partial aggregation state for a target cell. Provenance
/// merges exactly like the sequential scan: the final origin is the
/// responsible action of the *last* raised member in scan order, else the
/// *first* member's stored origin.
struct LocalGroup {
    coords: Vec<DimValue>,
    acc: Vec<i64>,
    members: u32,
    /// The chunk-local first member's stored origin (meaningful only when
    /// that member was not raised — exactly the case where the sequential
    /// scan would have recorded it).
    first_origin: u32,
    /// The responsible action of the chunk-local last raised member.
    last_resp: Option<u32>,
}

struct ChunkOut {
    groups: Vec<LocalGroup>,
    /// Full-width packed target key per group (parallel to `groups`).
    /// Packed keys order exactly like the coordinate vectors, so the
    /// merge can group and sort on integers.
    keys: Vec<u128>,
    raised_by: BTreeMap<u32, u64>,
    distinct: usize,
}

/// Scans one contiguous fact range, memoizing the `Cell` decision per
/// distinct packed direct cell and accumulating per-target partials in
/// first-seen order.
fn scan_chunk<K: PackedKey>(
    mo: &Mo,
    schema: &Schema,
    actions: &[(ActionId, Granularity, CompiledPred)],
    pk: &KeyPacker,
    range: Range<usize>,
    obs_on: bool,
) -> Result<ChunkOut, ReduceError> {
    let store = mo.store();
    let n_measures = schema.n_measures();
    let n_dims = schema.n_dims();
    // Per-dimension decomposed resolver for the memo-miss path; when the
    // spec exceeds its mask layout, misses fall back to the whole-cell
    // walk.
    let mut cellk = CellKernelState::new(schema, actions);
    let mut coords_buf: Vec<DimValue> = Vec::with_capacity(n_dims);
    // Packed direct cell → (responsible, group slot). Sized for the
    // worst common case (mostly-distinct raw cells) up front — repeated
    // rehash growth costs more than the over-allocation.
    let mut memo: FxHashMap<K, (Option<u32>, u32)> =
        FxHashMap::with_capacity_and_hasher(range.len(), Default::default());
    // Packed target cell → group slot (distinct direct cells may share a
    // target).
    let mut tmap: FxHashMap<K, u32> =
        FxHashMap::with_capacity_and_hasher(range.len() / 2, Default::default());
    let mut groups: Vec<LocalGroup> = Vec::new();
    let mut keys: Vec<u128> = Vec::new();
    let mut raised_by: BTreeMap<u32, u64> = BTreeMap::new();
    for fi in range {
        let f = FactId(fi as u32);
        let key = K::from_wide(pk.pack_row(store, f));
        let (resp, slot) = match memo.get(&key) {
            Some(&e) => e,
            None => {
                coords_buf.clear();
                for d in 0..n_dims {
                    coords_buf.push(store.value(f, DimId(d as u16)));
                }
                let (resp, target) = match cellk.as_mut() {
                    Some(k) => {
                        let r = k.resolve(schema, actions, &coords_buf)?.map(|id| id.0);
                        (r, &k.target)
                    }
                    None => {
                        let c = cell_compiled(schema, actions, &coords_buf)?;
                        coords_buf = c.coords;
                        (c.responsible.map(|id| id.0), &coords_buf)
                    }
                };
                let full = pk.pack_coords(target);
                let tkey = K::from_wide(full);
                let slot = match tmap.get(&tkey) {
                    Some(&s) => s,
                    None => {
                        let s = groups.len() as u32;
                        tmap.insert(tkey, s);
                        keys.push(full);
                        groups.push(LocalGroup {
                            coords: target.clone(),
                            acc: schema.measures.iter().map(|m| m.agg.identity()).collect(),
                            members: 0,
                            first_origin: ORIGIN_USER,
                            last_resp: None,
                        });
                        s
                    }
                };
                memo.insert(key, (resp, slot));
                (resp, slot)
            }
        };
        let g = &mut groups[slot as usize];
        for j in 0..n_measures {
            g.acc[j] = schema.measures[j]
                .agg
                .combine(g.acc[j], store.measures[j][fi]);
        }
        g.members += 1;
        match resp {
            Some(id) => {
                g.last_resp = Some(id);
                if obs_on {
                    *raised_by.entry(id).or_insert(0) += 1;
                }
            }
            None => {
                if g.members == 1 {
                    g.first_origin = store.origin[fi];
                }
            }
        }
    }
    Ok(ChunkOut {
        groups,
        keys,
        raised_by,
        distinct: memo.len(),
    })
}

/// Facts per parallel chunk: below twice this, the scan stays sequential
/// (thread spin-up would dominate).
const CHUNK_TARGET: usize = 16_384;

/// Upper bound on reduce scan workers.
const MAX_WORKERS: usize = 8;

/// The compiled, memoized, chunk-parallel reduction kernel.
fn reduce_kernel<K: PackedKey>(
    mo: &Mo,
    spec: &DataReductionSpec,
    now: DayNum,
    pk: &KeyPacker,
    workers: Option<usize>,
) -> Result<Mo, ReduceError> {
    let schema: &Schema = spec.schema();
    let mut actions: Vec<(ActionId, Granularity, CompiledPred)> = Vec::with_capacity(spec.len());
    for (id, a) in spec.actions() {
        actions.push((
            *id,
            a.grain.clone(),
            CompiledPred::compile(schema, &a.pred, now)?,
        ));
    }
    let n = mo.len();
    let obs_on = sdr_obs::enabled();
    let workers = match workers {
        Some(w) => w.clamp(1, MAX_WORKERS).min(n.max(1)),
        None if n >= 2 * CHUNK_TARGET => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n / CHUNK_TARGET)
            .min(MAX_WORKERS),
        None => 1,
    };
    let chunk_outs: Vec<ChunkOut> = if workers <= 1 {
        let span = sdr_obs::span("reduce.kernel.chunk");
        let co = scan_chunk::<K>(mo, schema, &actions, pk, 0..n, obs_on)?;
        if span.is_recording() {
            sdr_obs::attr("rows_in", n);
            sdr_obs::attr("rows_out", co.groups.len());
            sdr_obs::attr("memo_hits", n - co.distinct);
        }
        drop(span);
        vec![co]
    } else {
        let per = n.div_ceil(workers);
        // Cross-thread handoff: capture the current span context here and
        // open each worker's chunk span under it, so the chunk spans
        // parent under `reduce.reduce` instead of floating as roots.
        let ctx = sdr_obs::ctx();
        let results: Vec<Result<ChunkOut, ReduceError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * per;
                    let hi = ((w + 1) * per).min(n);
                    let actions = &actions;
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let span = sdr_obs::span_in("reduce.kernel.chunk", &ctx);
                        let r = scan_chunk::<K>(mo, schema, actions, pk, lo..hi, obs_on);
                        if span.is_recording() {
                            sdr_obs::attr("rows_in", hi.saturating_sub(lo));
                            if let Ok(co) = &r {
                                sdr_obs::attr("rows_out", co.groups.len());
                                sdr_obs::attr("memo_hits", hi.saturating_sub(lo) - co.distinct);
                            }
                        }
                        drop(span);
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reduce worker panicked"))
                .collect()
        });
        // Surface the lowest-chunk error: chunks partition the scan in
        // order, so this is the same error the sequential scan hits first.
        let mut outs = Vec::with_capacity(results.len());
        for r in results {
            outs.push(r?);
        }
        outs
    };
    let n_chunks = chunk_outs.len();
    // Deterministic merge: chunks are visited in fact order, so per-group
    // member ordering matches the sequential scan; measure partials
    // reassociate only through the (commutative, associative) AggFns.
    // Grouping runs on the packed target keys; the final integer sort
    // reproduces the reference `BTreeMap` coordinate order exactly,
    // because packing is order-preserving (fixed-width fields, first
    // dimension in the highest bits, category above code).
    let mut index: FxHashMap<u128, u32> = FxHashMap::default();
    let mut merged: Vec<(u128, LocalGroup)> = Vec::new();
    let mut raised_by: BTreeMap<u32, u64> = BTreeMap::new();
    let mut distinct = 0usize;
    for co in chunk_outs {
        distinct += co.distinct;
        for (id, r) in co.raised_by {
            *raised_by.entry(id).or_insert(0) += r;
        }
        // A chunk's own groups are already key-distinct; with a single
        // chunk no cross-chunk combination can occur.
        if n_chunks == 1 {
            merged = co.keys.into_iter().zip(co.groups).collect();
            continue;
        }
        for (key, lg) in co.keys.into_iter().zip(co.groups) {
            match index.get(&key) {
                None => {
                    index.insert(key, merged.len() as u32);
                    merged.push((key, lg));
                }
                Some(&ix) => {
                    let m = &mut merged[ix as usize].1;
                    for j in 0..m.acc.len() {
                        m.acc[j] = schema.measures[j].agg.combine(m.acc[j], lg.acc[j]);
                    }
                    m.members += lg.members;
                    if lg.last_resp.is_some() {
                        m.last_resp = lg.last_resp;
                    }
                }
            }
        }
    }
    merged.sort_unstable_by_key(|(k, _)| *k);
    let mut out = mo.empty_like();
    let members_hist = obs_on.then(|| sdr_obs::global().histogram("reduce.group_members"));
    for (_, m) in &merged {
        if let Some(h) = &members_hist {
            h.record(m.members as u64);
        }
        out.insert_fact_at(&m.coords, &m.acc, m.last_resp.unwrap_or(m.first_origin))?;
    }
    if obs_on {
        sdr_obs::add("reduce.kernel.distinct_cells", distinct as u64);
        sdr_obs::add("reduce.kernel.chunks", n_chunks as u64);
        publish_raised_by(spec, &raised_by);
    }
    Ok(out)
}
