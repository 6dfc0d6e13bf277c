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

use sdr_mdm::{
    CatId, DayNum, DimId, DimTables, DimValue, FactId, FactStore, FxHashMap, Granularity,
    KeyPacker, MeasureId, Mo, Schema, ORIGIN_USER,
};
use sdr_spec::{eval_pred, ActionId, CompiledPred, LeafMaskPlan};

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
    let mut target = Vec::with_capacity(coords.len());
    let responsible = roll_up(schema, coords, &applicable, &mut target)?;
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
    responsible: Option<ActionId>,
    target_cats: Vec<CatId>,
    /// `target_cats` differs from the cell's own categories.
    raises: bool,
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
            raises: false,
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
    let raises = target_cats != own;
    let responsible = if !raises {
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
        raises,
    })
}

/// `Cell(v⃗, t)` from the applicable actions: [`decide`], then every
/// coordinate rolled up to its target category into `target`. Returns
/// the responsible action.
fn roll_up(
    schema: &Schema,
    coords: &[DimValue],
    applicable: &[(ActionId, &Granularity)],
    target: &mut Vec<DimValue>,
) -> Result<Option<ActionId>, ReduceError> {
    let d = decide(schema, coords, applicable)?;
    target.clear();
    for (i, (v, &c)) in coords.iter().zip(&d.target_cats).enumerate() {
        target.push(schema.dim(DimId(i as u16)).rollup(*v, c)?);
    }
    Ok(d.responsible)
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
/// compiled once into a leaf-mask plan, decisions and roll-ups memoized
/// per category vector and per value), and folded into its target group
/// in fact order. Output, row order
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
    // Grouping is hashed on the target coordinates (only a new group
    // allocates its key); the groups are sorted by cell at the end,
    // which keeps the output deterministic for the figure-exact tests.
    struct Group {
        acc: Vec<i64>,
        origin: u32,
        members: u32,
        /// The first measure whose SUM or COUNT left `i64`, reported
        /// with the cell before anything is built.
        overflow: Option<MeasureId>,
    }
    let mut groups: FxHashMap<Vec<DimValue>, Group> = FxHashMap::default();
    // Per-action raise counts, accumulated locally and published once
    // after the loop (the hot loop pays one hoisted bool while disabled).
    let obs_on = sdr_obs::enabled();
    let mut raised_by: BTreeMap<u32, u64> = BTreeMap::new();
    let mut coords: Vec<DimValue> = Vec::with_capacity(schema.n_dims());
    for f in mo.facts() {
        mo.coords_into(f, &mut coords);
        let naive;
        let (target, responsible) = match memo.as_mut() {
            Some(m) => m.cell(&coords)?,
            None => {
                naive = cell_for(spec, &coords, now)?;
                (naive.coords.as_slice(), naive.responsible)
            }
        };
        if obs_on {
            if let Some(id) = responsible {
                *raised_by.entry(id.0).or_insert(0) += 1;
            }
        }
        let g = match groups.get_mut(target) {
            Some(g) => g,
            None => groups.entry(target.to_vec()).or_insert(Group {
                acc: schema.measures.iter().map(|m| m.agg.identity()).collect(),
                origin: ORIGIN_USER,
                members: 0,
                overflow: None,
            }),
        };
        if let Err(m) = schema.fold_measures(&mut g.acc, |j| store.measures[j][f.index()]) {
            g.overflow.get_or_insert(m);
        }
        g.members += 1;
        // Provenance: the responsible action if the fact moved; otherwise
        // the fact's existing origin. When several facts merge, the
        // aggregating action is responsible.
        match responsible {
            Some(id) => g.origin = id.0,
            None if g.members == 1 => g.origin = store.origin[f.index()],
            None => {}
        }
    }
    let mut groups: Vec<(Vec<DimValue>, Group)> = groups.into_iter().collect();
    groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
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

/// The memos of the per-dimension decomposition of `Cell(v⃗, t)`.
///
/// A whole-cell memo caps out when most cells are distinct (a raw
/// clickstream has nearly one cell per fact). This kernel splits the
/// work along axes with far smaller domains:
///
/// 1. **Action predicates per dimension value**, through the
///    [`LeafMaskPlan`] the [`CellMemo`] holds: the set of actions a cell
///    satisfies comes out as one mask.
/// 2. **Decision per (action set, own granularity).** Granularity
///    maximum, incomparability, LUB target and responsibility are
///    functions of the applicable-action mask and the fact's category
///    vector only — a handful of distinct combinations per pass. Each
///    gets an id, so a caller can hang its own per-decision answer
///    (the subcube manager's home cube) on it.
/// 3. **Roll-up per (value, target category).** Graph walks are memoized
///    in the dense tables of `sdr_mdm::dense` — per dimension and target
///    category, a table per source category indexed by code — shared
///    across all cells that contain the value.
///
/// Construction returns `None` (callers keep the whole-cell walk) when
/// the decision key does not fit 128 bits: > 32 actions or > 12
/// dimensions.
struct CellKernelState {
    /// `(action mask, packed category vector)` → decision id.
    ids: FxHashMap<u128, u32>,
    /// The last key looked up and its id: neighbouring rows mostly share
    /// a decision.
    last: Option<(u128, u32)>,
    /// The decisions, by id.
    decisions: Vec<CellDecision>,
    /// Per dimension, per target category: the rolled-up value of each
    /// source value (tables made on first use).
    rollups: Vec<Vec<Option<DimTables<DimValue>>>>,
}

impl CellKernelState {
    fn new(schema: &Schema, n_actions: usize) -> Option<Self> {
        if n_actions > 32 || schema.n_dims() > 12 {
            return None;
        }
        let rollups = (schema.dims.iter())
            .map(|dim| vec![None; dim.graph().len()])
            .collect();
        Some(CellKernelState {
            ids: FxHashMap::default(),
            last: None,
            decisions: Vec::new(),
            rollups,
        })
    }

    /// The id of the decision for `amask`, the actions whose predicates
    /// the cell satisfies, and its categories `cat(d)`; `coords` makes
    /// the cell on a miss.
    fn decide(
        &mut self,
        schema: &Schema,
        actions: &[(ActionId, Granularity)],
        amask: u32,
        cat: impl Fn(usize) -> u8,
        coords: impl FnOnce() -> Vec<DimValue>,
    ) -> Result<u32, ReduceError> {
        let mut dkey = amask as u128;
        for d in 0..schema.n_dims() {
            dkey = (dkey << 8) | cat(d) as u128;
        }
        if let Some((key, id)) = self.last {
            if key == dkey {
                return Ok(id);
            }
        }
        if let Some(&id) = self.ids.get(&dkey) {
            self.last = Some((dkey, id));
            return Ok(id);
        }
        let applicable: Vec<(ActionId, &Granularity)> = actions
            .iter()
            .enumerate()
            .filter(|(ai, _)| amask & (1 << ai) != 0)
            .map(|(_, (id, grain))| (*id, grain))
            .collect();
        let id = self.decisions.len() as u32;
        self.decisions.push(decide(schema, &coords(), &applicable)?);
        self.ids.insert(dkey, id);
        self.last = Some((dkey, id));
        Ok(id)
    }

    /// `v` rolled up to category `tc` of dimension `d`.
    #[inline]
    fn roll_up(
        &mut self,
        schema: &Schema,
        d: usize,
        v: DimValue,
        tc: CatId,
    ) -> Result<DimValue, ReduceError> {
        if v.cat == tc {
            return Ok(v);
        }
        let dim = schema.dim(DimId(d as u16));
        let table = self.rollups[d][tc.index()].get_or_insert_with(|| DimTables::new(dim));
        table.get_or_make(v.cat.0, v.code, || Ok(dim.rollup(v, tc)?))
    }
}

/// One `Cell` decision of a [`CellMemo`], as [`CellMemo::decision`]
/// lends it.
#[derive(Debug, Clone, Copy)]
pub struct Decision<'m> {
    /// The target category per dimension.
    pub target: &'m [CatId],
    /// The action responsible for raising the cell, if any.
    pub responsible: Option<ActionId>,
    /// Whether the target differs from the cell's own categories — i.e.
    /// whether the cell moves.
    pub raises: bool,
}

/// The compiled, memoized coordinate-level `Cell` for one `(spec, now)`
/// pass — the one resolver behind both [`reduce`] and the warehouse's
/// reduction step. Action predicates are compiled once into one
/// [`LeafMaskPlan`]; a cell is resolved through the per-dimension kernel
/// when the spec fits its decision key, and through the whole-cell walk
/// otherwise. Agrees with [`cell_for`] on every input.
pub struct CellMemo<'a> {
    schema: &'a Schema,
    /// Each action's id and grain, in spec order; its predicate sits at
    /// the same position of `preds`.
    actions: Vec<(ActionId, Granularity)>,
    preds: LeafMaskPlan,
    kernel: Option<CellKernelState>,
    /// The target coordinates of the last [`CellMemo::cell`].
    target: Vec<DimValue>,
    /// Scratch: the actions each row of a run satisfies.
    amasks: Vec<u64>,
}

impl<'a> CellMemo<'a> {
    /// Compiles `spec`'s action predicates with `NOW ← now`.
    pub fn new(spec: &'a DataReductionSpec, now: DayNum) -> Result<Self, ReduceError> {
        let schema: &Schema = spec.schema();
        let mut actions = Vec::with_capacity(spec.len());
        let mut preds = Vec::with_capacity(spec.len());
        for (id, a) in spec.actions() {
            actions.push((*id, a.grain.clone()));
            preds.push(CompiledPred::compile(schema, &a.pred, now)?);
        }
        Ok(CellMemo {
            schema,
            kernel: CellKernelState::new(schema, actions.len()),
            actions,
            preds: LeafMaskPlan::new(preds),
            target: Vec::with_capacity(schema.n_dims()),
            amasks: Vec::new(),
        })
    }

    /// `Cell(v⃗, t)` with `t` fixed at construction: the target
    /// coordinates and the action responsible for them, equal to
    /// [`cell_for`] on the same inputs. The coordinates are lent until
    /// the next call, so the kernel path allocates nothing per cell.
    pub fn cell(
        &mut self,
        coords: &[DimValue],
    ) -> Result<(&[DimValue], Option<ActionId>), ReduceError> {
        let schema = self.schema;
        let responsible = match self.kernel.as_mut() {
            Some(k) => {
                let amask = self.preds.holding(schema, coords)? as u32;
                let cat = |d: usize| coords[d].cat.0;
                let id = k.decide(schema, &self.actions, amask, cat, || coords.to_vec())?;
                self.target.clear();
                for (d, &v) in coords.iter().enumerate() {
                    let tc = k.decisions[id as usize].target_cats[d];
                    self.target.push(k.roll_up(schema, d, v, tc)?);
                }
                k.decisions[id as usize].responsible
            }
            None => {
                let mut applicable = Vec::with_capacity(self.actions.len());
                for ((id, grain), pred) in self.actions.iter().zip(self.preds.preds()) {
                    if pred.eval_cell(schema, coords)? {
                        applicable.push((*id, grain));
                    }
                }
                roll_up(schema, coords, &applicable, &mut self.target)?
            }
        };
        Ok((&self.target, responsible))
    }

    /// The `Cell` decision of each row of `rows` of `store`, read
    /// straight from its columns, into `ids` (cleared first): the id of
    /// the actions the row's cell satisfies and its own categories,
    /// resolved once per distinct pair. False, leaving `ids` empty, when
    /// the spec does not fit the kernel's decision key; callers then
    /// resolve each row's coordinates through [`cell`](CellMemo::cell).
    pub fn decide_rows(
        &mut self,
        store: &FactStore,
        rows: &[u32],
        ids: &mut Vec<u32>,
    ) -> Result<bool, ReduceError> {
        ids.clear();
        let Some(k) = self.kernel.as_mut() else {
            return Ok(false);
        };
        let schema = self.schema;
        let amasks = &mut self.amasks;
        self.preds.holding_rows(schema, store, rows, amasks)?;
        for (&r, &amask) in rows.iter().zip(amasks.iter()) {
            let (f, row) = (FactId(r), r as usize);
            let cells = || {
                (0..schema.n_dims())
                    .map(|d| store.value(f, DimId(d as u16)))
                    .collect()
            };
            let cat = |d: usize| store.cats[d][row];
            ids.push(k.decide(schema, &self.actions, amask as u32, cat, cells)?);
        }
        Ok(true)
    }

    /// Decision `id` of [`decide_rows`](CellMemo::decide_rows).
    pub fn decision(&self, id: u32) -> Decision<'_> {
        let k = self
            .kernel
            .as_ref()
            .expect("decision ids come from the kernel");
        let d = &k.decisions[id as usize];
        Decision {
            target: &d.target_cats,
            responsible: d.responsible,
            raises: d.raises,
        }
    }

    /// The packed key of row `row`'s target cell under decision `id`
    /// (which [`decide_rows`](CellMemo::decide_rows) gave for that row):
    /// the OR of each dimension's rolled-up value's key field.
    pub fn target_key(
        &mut self,
        id: u32,
        store: &FactStore,
        row: usize,
        pk: &KeyPacker,
    ) -> Result<u128, ReduceError> {
        let k = self
            .kernel
            .as_mut()
            .expect("decision ids come from the kernel");
        let mut key = 0u128;
        for d in 0..store.cats.len() {
            let v = DimValue::new(CatId(store.cats[d][row]), store.codes[d][row]);
            let tc = k.decisions[id as usize].target_cats[d];
            key |= pk.field(d, k.roll_up(self.schema, d, v, tc)?);
        }
        Ok(key)
    }
}
