//! Reduction semantics (Sections 4.2 and 4.4).
//!
//! Implements the auxiliary functions `Spec_gran`, `Cell`, and `AggLevel_i`
//! (Equations 11–13) and the reduced-object semantics of Definition 2:
//! facts are grouped by the cell they aggregate to, lower-level facts are
//! physically removed, and measures are re-aggregated with their default
//! (distributive) aggregate functions. Every produced fact records the
//! *responsible* action, supporting the paper's requirement that the
//! system can explain why data sits at its current level.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use sdr_mdm::{
    CatId, DayNum, DimId, DimValue, FactId, FxHashMap, Granularity, KeyPacker, MeasureId, Mo,
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
    let mut applicable = Vec::with_capacity(spec.len());
    for (id, a) in spec.actions() {
        if eval_pred(schema, &a.pred, coords, now)? {
            applicable.push((*id, &a.grain));
        }
    }
    roll_up(schema, coords, &applicable)
}

/// The target cell decision for one (applicable-action set, own
/// granularity) pair: everything in `Cell(v⃗, t)` past predicate
/// evaluation depends only on those two inputs, never on the coordinate
/// codes themselves.
struct CellDecision {
    responsible: Option<ActionId>,
    target_cats: Vec<CatId>,
}

/// The one `Cell` decision, given the actions whose predicates the cell
/// satisfies: the maximum of their grains, its LUB with the cell's own
/// categories, and the action responsible.
///
/// # Errors
/// [`ReduceError::IncomparableGranularities`] when two applicable grains
/// are unordered.
fn decide(
    schema: &Schema,
    coords: &[DimValue],
    applicable: &[(ActionId, &Granularity)],
) -> Result<CellDecision, ReduceError> {
    let own: Vec<CatId> = coords.iter().map(|v| v.cat).collect();
    // The applicable action grains are totally ordered (NonCrossing);
    // the fact's own granularity may be *incomparable* with them when a
    // coordinate is ⊤ ("unknown value", Section 3), so the target is the
    // per-dimension LUB of the winning action grain and the fact's own
    // categories — a fact can never be rolled down.
    let Some(max) = Granularity::max_of(applicable.iter().map(|(_, g)| *g), schema) else {
        if !applicable.is_empty() {
            return Err(ReduceError::IncomparableGranularities {
                fact: format!("{coords:?}"),
            });
        }
        return Ok(CellDecision {
            responsible: None,
            target_cats: own,
        });
    };
    let target_cats: Vec<CatId> = max
        .0
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(i, (&c, &o))| schema.dims[i].graph().lub(c, o))
        .collect();
    // Responsible: the action achieving the maximum, when it strictly
    // raises the fact; otherwise the fact keeps its provenance.
    let responsible = if target_cats == own {
        None
    } else {
        applicable
            .iter()
            .find(|(_, g)| **g == max)
            .map(|(id, _)| *id)
    };
    Ok(CellDecision {
        responsible,
        target_cats,
    })
}

/// `Cell(v⃗, t)` from the applicable actions: [`decide`], then every
/// coordinate rolled up to its target category.
fn roll_up(
    schema: &Schema,
    coords: &[DimValue],
    applicable: &[(ActionId, &Granularity)],
) -> Result<CellResult, ReduceError> {
    let d = decide(schema, coords, applicable)?;
    let mut target = Vec::with_capacity(coords.len());
    for (i, (v, &c)) in coords.iter().zip(&d.target_cats).enumerate() {
        target.push(schema.dim(DimId(i as u16)).rollup(*v, c)?);
    }
    Ok(CellResult {
        coords: target,
        responsible: d.responsible,
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
/// One sequential pass: every fact's cell is resolved through the
/// [`CellMemo`] the warehouse's reduction step uses (action predicates
/// compiled once, a per-dimension mask kernel, a memo per packed cell),
/// and folded into its target group in fact order. Output, row order
/// (sorted by target cell), provenance, and error behaviour are those of
/// [`reduce_naive`], which the differential property suite asserts.
pub fn reduce(mo: &Mo, spec: &DataReductionSpec, now: DayNum) -> Result<Mo, ReduceError> {
    let _span = sdr_obs::span("reduce.reduce");
    let out = fold(mo, spec, now, Some(CellMemo::new(spec, now)?))?;
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

/// The fact-at-a-time reference for [`reduce`]: the same fold, with every
/// action predicate interpreted per fact through [`eval_pred`]
/// ([`cell_for`]) instead of compiled and memoized. Kept for the
/// differential property suite and the CI perf smoke's digests. Does not
/// publish the `reduce.facts_*` counters (the [`reduce`] wrapper does).
pub fn reduce_naive(mo: &Mo, spec: &DataReductionSpec, now: DayNum) -> Result<Mo, ReduceError> {
    fold(mo, spec, now, None)
}

/// Definition 2's grouping, shared by [`reduce`] and [`reduce_naive`]:
/// resolves each fact's cell through `memo`, or through [`cell_for`] at
/// `now` when there is none, and folds it into its target group.
fn fold(
    mo: &Mo,
    spec: &DataReductionSpec,
    now: DayNum,
    mut memo: Option<CellMemo>,
) -> Result<Mo, ReduceError> {
    let schema = spec.schema();
    let store = mo.store();
    // Grouping is keyed on the target coordinates. BTreeMap keeps the
    // output deterministic (sorted by cell), which the figure-exact tests
    // rely on.
    struct Group {
        acc: Vec<i64>,
        origin: u32,
        members: u32,
        /// The first measure whose SUM or COUNT left `i64`, reported
        /// with the cell before anything is built.
        overflow: Option<MeasureId>,
    }
    let mut groups: BTreeMap<Vec<DimValue>, Group> = BTreeMap::new();
    // Per-action raise counts, accumulated locally and published once
    // after the loop (the hot loop pays one hoisted bool while disabled).
    let obs_on = sdr_obs::enabled();
    let mut raised_by: BTreeMap<u32, u64> = BTreeMap::new();
    let mut coords: Vec<DimValue> = Vec::with_capacity(schema.n_dims());
    for f in mo.facts() {
        mo.coords_into(f, &mut coords);
        let c = match memo.as_mut() {
            Some(m) => m.cell(&coords)?,
            None => cell_for(spec, &coords, now)?,
        };
        if obs_on {
            if let Some(id) = c.responsible {
                *raised_by.entry(id.0).or_insert(0) += 1;
            }
        }
        let g = groups.entry(c.coords).or_insert_with(|| Group {
            acc: schema.measures.iter().map(|m| m.agg.identity()).collect(),
            origin: ORIGIN_USER,
            members: 0,
            overflow: None,
        });
        if let Err(m) = schema.fold_measures(&mut g.acc, |j| store.measures[j][f.index()]) {
            g.overflow.get_or_insert(m);
        }
        g.members += 1;
        // Provenance: the responsible action if the fact moved; otherwise
        // the fact's existing origin. When several facts merge, the
        // aggregating action is responsible.
        match c.responsible {
            Some(id) => g.origin = id.0,
            None if g.members == 1 => g.origin = store.origin[f.index()],
            None => {}
        }
    }
    let mut out = mo.empty_like();
    // Handle looked up once; recording is a few relaxed atomics per group.
    let members_hist = obs_on.then(|| sdr_obs::global().histogram("reduce.group_members"));
    for (coords, g) in groups {
        if let Some(m) = g.overflow {
            return Err(schema.measure_overflow(m, &coords).into());
        }
        if let Some(h) = &members_hist {
            h.record(g.members as u64);
        }
        out.insert_fact_at(&coords, &g.acc, g.origin)?;
    }
    if obs_on {
        // Through the spec's cached metric names (no `format!` on the
        // steady-state path).
        for (action, n) in raised_by {
            match spec.raised_metric(ActionId(action)) {
                Some(name) => sdr_obs::add(name, n),
                None => sdr_obs::add(&format!("reduce.action.a{action}.facts_raised"), n),
            }
        }
    }
    Ok(out)
}

/// One leaf occurrence within a dimension's plan: its mask bit plus the
/// `(action, conjunction, leaf)` address inside the compiled predicates.
type LeafSlot = (u64, usize, usize, usize);

/// A per-dimension decomposition of `Cell(v⃗, t)`.
///
/// A whole-cell memo caps out when most cells are distinct (a raw
/// clickstream has nearly one cell per fact), leaving the expensive
/// whole-cell walk on the memo-miss path. This kernel splits the work
/// along axes with far smaller domains:
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

    /// Resolves `Cell(coords, t)`: returns the responsible action and
    /// leaves the target coordinates in `self.target`. Agrees with
    /// [`cell_for`] on every input.
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
        let dec = match self.decisions.entry(dkey) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let applicable: Vec<(ActionId, &Granularity)> = actions
                    .iter()
                    .enumerate()
                    .filter(|(ai, _)| amask & (1 << ai) != 0)
                    .map(|(_, (id, grain, _))| (*id, grain))
                    .collect();
                e.insert(decide(schema, coords, &applicable)?)
            }
        };
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
        Ok(dec.responsible)
    }
}

/// The compiled, memoized coordinate-level `Cell` for one `(spec, now)`
/// pass — the one resolver behind both [`reduce`] and the warehouse's
/// reduction step. Action predicates are compiled once
/// ([`CompiledPred`]); a cell is resolved through the per-dimension mask
/// kernel when the spec fits its layout, and the result is cached per
/// distinct packed cell when the schema packs into a 128-bit key. Agrees
/// with [`cell_for`] on every input.
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
        if let Some(k) = self.kernel.as_mut() {
            let responsible = k.resolve(self.schema, &self.actions, coords)?;
            return Ok(CellResult {
                coords: k.target.clone(),
                responsible,
            });
        }
        let mut applicable = Vec::with_capacity(self.actions.len());
        for (id, grain, pred) in &self.actions {
            if pred.eval_cell(self.schema, coords)? {
                applicable.push((*id, grain));
            }
        }
        roll_up(self.schema, coords, &applicable)
    }

    /// `Cell(v⃗, t)` with `t` fixed at construction — equal to
    /// [`cell_for`] on the same inputs, memoized per distinct cell.
    pub fn cell(&mut self, coords: &[DimValue]) -> Result<CellResult, ReduceError> {
        let Some(pk) = &self.packer else {
            return self.compute(coords);
        };
        let k = pk.pack_coords(coords);
        if let Some(&ix) = self.memo.get(&k) {
            return Ok(self.cells[ix as usize].clone());
        }
        let c = self.compute(coords)?;
        self.memo.insert(k, self.cells.len() as u32);
        self.cells.push(c.clone());
        Ok(c)
    }
}
