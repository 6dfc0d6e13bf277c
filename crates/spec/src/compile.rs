//! Predicate compilation for the vectorized kernels.
//!
//! [`eval_pred`](crate::eval::eval_pred) is exact but per-call expensive:
//! every evaluation walks the `Pexp` tree and re-resolves `NOW`-dependent
//! terms through the calendar. Reduction evaluates every action's
//! predicate for every fact, and a query's selection every row it scans,
//! so a pass over *n* facts pays `n` tree walks and `NOW` groundings per
//! predicate even though `NOW` is fixed for the whole pass.
//!
//! [`CompiledPred`] does that work once per pass: the predicate is
//! normalized to DNF (by the one walker of [`crate::dnf`]), and every
//! term — including `NOW ± k` expressions — is pre-evaluated into a
//! constant [`DimValue`]. Evaluation then runs over flat conjunctions of
//! resolved atoms with no allocation. [`LeafMaskPlan`] goes one step
//! further for a set of predicates evaluated over many rows: each leaf's
//! outcome is memoized per distinct value of the one dimension it reads,
//! and a predicate holds when one of its conjunctions' leaf bits are all
//! set.
//!
//! # What a leaf means
//!
//! Reduction actions and queries share one predicate language (Table 1);
//! they differ only in what one atom means on a cell value, which is the
//! [`LeafMeaning`] a predicate is compiled under:
//! * [`LeafMeaning::Characterize`] — Definition 2, reduction's meaning,
//!   which must reproduce `eval_pred` *bit for bit*, including one subtle
//!   convention: an atom whose cell value is coarser than the atom's
//!   category is **unsatisfied** (`false`) regardless of the atom's own
//!   `negated` flag — but a syntactic `NOT` *around* it still flips that
//!   `false` to `true`. Folding context negation into `Atom::negated` (as
//!   [`to_dnf`](crate::to_dnf) does) would conflate the two and change
//!   the result for unevaluable atoms, so a compiled leaf keeps the
//!   context negation in a separate `ctx_negated` bit, applied *outside*
//!   the atom. With atoms treated as opaque boolean leaves, De Morgan and
//!   distribution are truth-preserving for every leaf valuation, so the
//!   compiled DNF agrees with the recursive evaluation on every cell.
//! * [`LeafMeaning::Conservative`] and [`LeafMeaning::Liberal`] —
//!   Definition 5's comparison at the GLB ([`crate::compare`]), a
//!   query's meaning. It never calls a value unevaluable, so the two
//!   negations fold into one: a negated comparison tests the negated
//!   operator, and a negated `IN` tests `1 −` the membership weight.
//!
//! Section 6.1's weighted approach has no per-leaf verdict: a cell's
//! weight ([`LeafMaskPlan::weight`]) multiplies its leaves' weights
//! along a conjunction and takes the largest conjunction, whatever
//! meaning the predicate was compiled under.

use sdr_mdm::{CatId, DayNum, DimId, DimTables, DimValue, FactId, FactStore, Schema};

use crate::ast::{Atom, AtomKind, CmpOp, Pexp};
use crate::compare::{self, compare_weight, footprint, member_weight, Footprint};
use crate::dnf::nnf_dnf;
use crate::error::SpecError;
use crate::eval::term_value;

/// What one leaf of a compiled predicate means on a cell value (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafMeaning {
    /// Definition 2: the value rolled up to the atom's category
    /// satisfies it; a coarser value does not.
    Characterize,
    /// Definition 5: the comparison is known to hold.
    Conservative,
    /// Definition 5: the comparison might hold.
    Liberal,
}

/// The comparison kind of a compiled atom, with all terms resolved to
/// constants of the atom's category.
#[derive(Debug, Clone)]
enum CompiledKind {
    /// `value(dim) op constant`.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// The pre-resolved constant.
        value: DimValue,
        /// Per category of a fact value: the constant's footprint at
        /// their GLB, where it resolves — what Definition 5 compares
        /// against, made once rather than per distinct value.
        at: Vec<Option<Footprint>>,
    },
    /// `value(dim) IN {constants}`.
    In {
        /// The pre-resolved member constants.
        values: Vec<DimValue>,
    },
}

/// One leaf of the compiled DNF: a resolved atom plus the negation
/// context it was compiled under and what it means.
#[derive(Debug, Clone)]
struct CompiledLeaf {
    dim: DimId,
    cat: CatId,
    /// The source atom's own negation — applied to the comparison result,
    /// exactly like [`crate::eval::eval_atom`]'s `raw ^ a.negated`.
    negated: bool,
    /// Negation inherited from enclosing `NOT`s — applied *outside* the
    /// atom under [`LeafMeaning::Characterize`], so an unevaluable atom
    /// under `NOT` yields `true` (see the module docs).
    ctx_negated: bool,
    meaning: LeafMeaning,
    kind: CompiledKind,
}

impl CompiledLeaf {
    /// Evaluates the leaf on a single dimension value. A leaf reads
    /// exactly one dimension, which is what makes per-dimension
    /// memoization of leaf outcomes exact.
    #[inline]
    fn holds(&self, schema: &Schema, v: DimValue) -> Result<bool, SpecError> {
        let dim = schema.dim(self.dim);
        let liberal = match self.meaning {
            LeafMeaning::Characterize => {
                // Mirrors `eval_atom`, with the context negation last.
                let atom = dim.graph().leq(v.cat, self.cat) && {
                    let rv = dim.rollup(v, self.cat)?;
                    let raw = match &self.kind {
                        CompiledKind::Cmp { op, value, .. } => op.test(rv.code.cmp(&value.code)),
                        CompiledKind::In { values } => values.iter().any(|t| t.code == rv.code),
                    };
                    raw ^ self.negated
                };
                return Ok(atom ^ self.ctx_negated);
            }
            LeafMeaning::Conservative => false,
            LeafMeaning::Liberal => true,
        };
        let negated = self.negated ^ self.ctx_negated;
        match &self.kind {
            CompiledKind::Cmp { op, value, at } => {
                let op = if negated { op.negate() } else { *op };
                let glb = dim.graph().glb(v.cat, value.cat);
                let f = footprint(dim, v, glb)?;
                let made;
                let c = match at.get(v.cat.index()) {
                    Some(Some(c)) => c,
                    _ => {
                        made = footprint(dim, *value, glb)?;
                        &made
                    }
                };
                Ok(if liberal {
                    compare::liberal(op, &f, c)
                } else {
                    compare::conservative(op, &f, c)
                })
            }
            // NOT IN: conservative ⇔ footprint disjoint from the union;
            // liberal ⇔ not fully covered.
            CompiledKind::In { .. } => {
                let w = self.weight(schema, v)?;
                Ok(if liberal { w > 0.0 } else { w >= 1.0 })
            }
        }
    }

    /// The leaf's weight on a single dimension value: the share of the
    /// value's drill-down positions that satisfy it. A negated comparison
    /// weighs the negated operator, not `1 −` the weight, which is equal
    /// only in exact arithmetic.
    fn weight(&self, schema: &Schema, v: DimValue) -> Result<f64, SpecError> {
        let dim = schema.dim(self.dim);
        let negated = self.negated ^ self.ctx_negated;
        match &self.kind {
            CompiledKind::Cmp { op, value, .. } => {
                let op = if negated { op.negate() } else { *op };
                compare_weight(dim, v, op, *value)
            }
            CompiledKind::In { values } => {
                let w = member_weight(dim, v, values)?;
                Ok(if negated { 1.0 - w } else { w })
            }
        }
    }
}

/// A predicate compiled for one `(schema, NOW)` pass: DNF over resolved
/// atoms of one [`LeafMeaning`], evaluable on any cell without further
/// allocation or calendar arithmetic. Build once per reduction/query pass
/// with [`CompiledPred::compile`] (or [`CompiledPred::compile_as`]),
/// evaluate per cell with [`CompiledPred::eval_cell`].
#[derive(Debug, Clone)]
pub struct CompiledPred {
    /// Disjunction of conjunctions; `vec![]` is `false`,
    /// `vec![vec![]]` is `true`.
    dnf: Vec<Vec<CompiledLeaf>>,
}

impl CompiledPred {
    /// Compiles `p` against `schema` with `NOW ← now`, under Definition
    /// 2's [`LeafMeaning::Characterize`]. All terms are resolved to
    /// constants here, so evaluation never touches the calendar.
    pub fn compile(schema: &Schema, p: &Pexp, now: DayNum) -> Result<CompiledPred, SpecError> {
        CompiledPred::compile_as(schema, p, now, LeafMeaning::Characterize)
    }

    /// [`compile`](CompiledPred::compile) with every leaf meaning
    /// `meaning`.
    pub fn compile_as(
        schema: &Schema,
        p: &Pexp,
        now: DayNum,
        meaning: LeafMeaning,
    ) -> Result<CompiledPred, SpecError> {
        let dnf = nnf_dnf(p, false, &mut |a, ctx_negated| {
            compile_leaf(schema, a, ctx_negated, meaning, now)
        })?;
        Ok(CompiledPred { dnf })
    }

    /// Evaluates the compiled predicate on a cell of direct coordinates.
    /// Under [`LeafMeaning::Characterize`] it agrees with
    /// [`crate::eval::eval_pred`] on every cell.
    pub fn eval_cell(&self, schema: &Schema, coords: &[DimValue]) -> Result<bool, SpecError> {
        'conj: for conj in &self.dnf {
            for leaf in conj {
                if !leaf.holds(schema, coords[leaf.dim.index()])? {
                    continue 'conj;
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// The predicate's weight on a cell of direct coordinates.
    fn weight_cell(&self, schema: &Schema, coords: &[DimValue]) -> Result<f64, SpecError> {
        let mut best = 0.0f64;
        for conj in &self.dnf {
            let mut w = 1.0f64;
            for leaf in conj {
                w *= leaf.weight(schema, coords[leaf.dim.index()])?;
                if w == 0.0 {
                    break;
                }
            }
            best = best.max(w);
        }
        Ok(best)
    }

    /// True when the compiled form is the constant `false` (no
    /// disjuncts) — lets kernels skip whole passes.
    pub fn is_const_false(&self) -> bool {
        self.dnf.is_empty()
    }

    /// True when the compiled form is the constant `true` (one empty
    /// conjunction and nothing else).
    pub fn is_const_true(&self) -> bool {
        self.dnf.len() == 1 && self.dnf[0].is_empty()
    }
}

/// Compiled predicates evaluated through one per-dimension **leaf-mask
/// plan** — the kernel behind the reduction step's Δ test, its `Cell`
/// resolution and a query's selection.
///
/// Every leaf reads one dimension, so its outcome is a function of that
/// dimension's value alone and is memoized per distinct `(cat, code)`
/// (hundreds of entries, where a raw clickstream has nearly one cell per
/// fact). With at most [`LeafMaskPlan::MAX_LEAVES`] leaves across all
/// predicates, each leaf owns one bit: a cell's satisfied set is the OR
/// of its per-dimension masks, and a predicate holds iff one of its
/// conjunction masks is contained in it. Above that the plan has no
/// layout and evaluates every cell whole through
/// [`CompiledPred::eval_cell`]. Either way it agrees with `eval_cell` on
/// every cell, whatever its leaves mean.
#[derive(Debug, Clone)]
pub struct LeafMaskPlan {
    preds: Vec<CompiledPred>,
    /// `None` above [`LeafMaskPlan::MAX_LEAVES`] leaves.
    masks: Option<Masks>,
    /// Scratch cell of the row-by-row path.
    cell: Vec<DimValue>,
    /// Scratch masks of [`any_rows`](LeafMaskPlan::any_rows).
    sat: Vec<u64>,
}

/// The bit layout of a [`LeafMaskPlan`] and its per-dimension memos.
#[derive(Debug, Clone)]
struct Masks {
    /// Per predicate, its conjunction masks.
    conjs: Vec<Vec<u64>>,
    /// The dimensions carrying leaves.
    dims: Vec<DimLeaves>,
}

/// The leaves of one dimension with their bits, and the memo distinct
/// `(cat, code)` → satisfied-leaf mask: the dimension's dense tables
/// (made on first use, when the schema is at hand).
#[derive(Debug, Clone)]
struct DimLeaves {
    dim: DimId,
    leaves: Vec<(u64, CompiledLeaf)>,
    memo: Option<DimTables<u64>>,
}

impl Masks {
    /// Lays the leaves of `preds` out in one bit space, or `None` when
    /// they do not fit it.
    fn new(preds: &[CompiledPred]) -> Option<Masks> {
        let leaves: usize = preds.iter().flat_map(|p| &p.dnf).map(Vec::len).sum();
        if leaves > LeafMaskPlan::MAX_LEAVES {
            return None;
        }
        let mut dims: Vec<DimLeaves> = Vec::new();
        let mut bit = 0;
        let conjs = preds
            .iter()
            .map(|p| {
                p.dnf
                    .iter()
                    .map(|conj| {
                        let mut cm = 0u64;
                        for leaf in conj {
                            let b = 1u64 << bit;
                            bit += 1;
                            cm |= b;
                            match dims.iter_mut().find(|d| d.dim == leaf.dim) {
                                Some(d) => d.leaves.push((b, leaf.clone())),
                                None => dims.push(DimLeaves {
                                    dim: leaf.dim,
                                    leaves: vec![(b, leaf.clone())],
                                    memo: None,
                                }),
                            }
                        }
                        cm
                    })
                    .collect()
            })
            .collect();
        Some(Masks { conjs, dims })
    }

    /// The satisfied-leaf mask of the cell whose value in dimension `d`
    /// is `value(d)`, as `(cat, code)`.
    #[inline]
    fn sat(
        &mut self,
        schema: &Schema,
        value: impl Fn(DimId) -> (u8, u64),
    ) -> Result<u64, SpecError> {
        let mut sat = 0u64;
        for dl in &mut self.dims {
            let (cat, code) = value(dl.dim);
            sat |= dl.mask(schema, cat, code)?;
        }
        Ok(sat)
    }

    /// Per row of `rows` of `store`: its satisfied-leaf mask, into `sat`
    /// (cleared first). Read column by column, and a run of rows with one
    /// value in a dimension costs one lookup there.
    fn sat_rows(
        &mut self,
        schema: &Schema,
        store: &FactStore,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
        sat: &mut Vec<u64>,
    ) -> Result<(), SpecError> {
        sat.clear();
        sat.resize(rows.len(), 0);
        for dl in &mut self.dims {
            let (cats, codes) = (&store.cats[dl.dim.index()], &store.codes[dl.dim.index()]);
            let mut last = None;
            for (s, r) in sat.iter_mut().zip(rows.clone()) {
                let v = (cats[r as usize], codes[r as usize]);
                let m = match last {
                    Some((lv, m)) if lv == v => m,
                    _ => dl.mask(schema, v.0, v.1)?,
                };
                last = Some((v, m));
                *s |= m;
            }
        }
        Ok(())
    }
}

impl DimLeaves {
    /// The mask of this dimension's leaves that value `(cat, code)`
    /// satisfies.
    #[inline]
    fn mask(&mut self, schema: &Schema, cat: u8, code: u64) -> Result<u64, SpecError> {
        let memo = (self.memo).get_or_insert_with(|| DimTables::new(schema.dim(self.dim)));
        memo.get_or_make(cat, code, || {
            let v = DimValue::new(CatId(cat), code);
            let mut m = 0u64;
            for (b, leaf) in &self.leaves {
                if leaf.holds(schema, v)? {
                    m |= b;
                }
            }
            Ok(m)
        })
    }
}

/// The rows a column-by-column pass takes at a time, so that their
/// satisfied-leaf masks stay in cache between the passes.
const BLOCK: u32 = 4096;

/// True when some conjunction mask of `conjs` is contained in `sat`.
#[inline]
fn any_within(conjs: &[u64], sat: u64) -> bool {
    conjs.iter().any(|&cm| cm & !sat == 0)
}

impl LeafMaskPlan {
    /// The most leaves, across all predicates, the bit layout holds.
    pub const MAX_LEAVES: usize = 64;

    /// Lays `preds` out in one plan (without a bit layout above
    /// [`LeafMaskPlan::MAX_LEAVES`] leaves).
    pub fn new(preds: Vec<CompiledPred>) -> LeafMaskPlan {
        LeafMaskPlan {
            masks: Masks::new(&preds),
            preds,
            cell: Vec::new(),
            sat: Vec::new(),
        }
    }

    /// The predicates, in the order given.
    pub fn preds(&self) -> &[CompiledPred] {
        &self.preds
    }

    /// True when the plan evaluates through leaf masks; false when it
    /// evaluates every cell whole.
    pub fn is_masked(&self) -> bool {
        self.masks.is_some()
    }

    /// Which predicates hold on `coords`: bit `i` is set iff `preds()[i]`
    /// holds. Takes at most 64 predicates.
    pub fn holding(&mut self, schema: &Schema, coords: &[DimValue]) -> Result<u64, SpecError> {
        debug_assert!(self.preds.len() <= 64);
        let mut out = 0u64;
        match &mut self.masks {
            Some(m) => {
                let sat = m.sat(schema, |d| {
                    let v = coords[d.index()];
                    (v.cat.0, v.code)
                })?;
                for (i, conjs) in m.conjs.iter().enumerate() {
                    if any_within(conjs, sat) {
                        out |= 1 << i;
                    }
                }
            }
            None => {
                for (i, p) in self.preds.iter().enumerate() {
                    if p.eval_cell(schema, coords)? {
                        out |= 1 << i;
                    }
                }
            }
        }
        Ok(out)
    }

    /// [`holding`](LeafMaskPlan::holding) on each row of `rows` of
    /// `store`, read straight from its columns, into `out` (cleared
    /// first).
    pub fn holding_rows(
        &mut self,
        schema: &Schema,
        store: &FactStore,
        rows: &[u32],
        out: &mut Vec<u64>,
    ) -> Result<(), SpecError> {
        let Some(m) = &mut self.masks else {
            out.clear();
            let mut cell = std::mem::take(&mut self.cell);
            for &r in rows {
                cell.clear();
                let f = FactId(r);
                cell.extend((0..schema.n_dims()).map(|d| store.value(f, DimId(d as u16))));
                out.push(self.holding(schema, &cell)?);
            }
            self.cell = cell;
            return Ok(());
        };
        // Each row's satisfied-leaf mask, turned in place into the
        // predicates it satisfies.
        m.sat_rows(schema, store, rows.iter().copied(), out)?;
        let mut last = None;
        for sat in out.iter_mut() {
            let held = match last {
                Some((s, held)) if s == *sat => held,
                _ => (m.conjs.iter().enumerate())
                    .filter(|(_, conjs)| any_within(conjs, *sat))
                    .fold(0u64, |held, (i, _)| held | 1 << i),
            };
            last = Some((*sat, held));
            *sat = held;
        }
        Ok(())
    }

    /// The rows of `rows` of `store` on which some predicate holds, into
    /// `out` (cleared first): [`any_row`](LeafMaskPlan::any_row) column
    /// by column.
    pub fn any_rows(
        &mut self,
        schema: &Schema,
        store: &FactStore,
        rows: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<(), SpecError> {
        out.clear();
        for block in rows.chunks(BLOCK as usize) {
            self.any_of(schema, store, block.iter().copied(), out)?;
        }
        Ok(())
    }

    /// [`any_rows`](LeafMaskPlan::any_rows) over every row of `store`.
    pub fn any_run(
        &mut self,
        schema: &Schema,
        store: &FactStore,
        out: &mut Vec<u32>,
    ) -> Result<(), SpecError> {
        out.clear();
        let n = store.len() as u32;
        for start in (0..n).step_by(BLOCK as usize) {
            self.any_of(schema, store, start..n.min(start + BLOCK), out)?;
        }
        Ok(())
    }

    /// The rows of one block on which some predicate holds, appended to
    /// `out`.
    fn any_of(
        &mut self,
        schema: &Schema,
        store: &FactStore,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
        out: &mut Vec<u32>,
    ) -> Result<(), SpecError> {
        let Some(m) = &mut self.masks else {
            for r in rows {
                if self.any_row(schema, store, r as usize)? {
                    out.push(r);
                }
            }
            return Ok(());
        };
        let mut sat = std::mem::take(&mut self.sat);
        m.sat_rows(schema, store, rows.clone(), &mut sat)?;
        let held = |s: u64| m.conjs.iter().any(|conjs| any_within(conjs, s));
        out.extend(rows.zip(&sat).filter(|(_, &s)| held(s)).map(|(r, _)| r));
        self.sat = sat;
        Ok(())
    }

    /// Whether any predicate holds on row `row` of `store`, read straight
    /// from its columns.
    pub fn any_row(
        &mut self,
        schema: &Schema,
        store: &FactStore,
        row: usize,
    ) -> Result<bool, SpecError> {
        if let Some(m) = &mut self.masks {
            let sat = m.sat(schema, |d| {
                (store.cats[d.index()][row], store.codes[d.index()][row])
            })?;
            return Ok(m.conjs.iter().any(|conjs| any_within(conjs, sat)));
        }
        let f = FactId(row as u32);
        self.cell.clear();
        self.cell
            .extend((0..store.cats.len()).map(|d| store.value(f, DimId(d as u16))));
        for p in &self.preds {
            if p.eval_cell(schema, &self.cell)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether some cell of the product of `values` — per dimension of the
    /// schema, a set of `(cat, code)` values — may satisfy some predicate:
    /// the verdict that lets a reader skip a run of rows whose distinct
    /// values per dimension are `values`, since the product contains
    /// every cell of the run. A conjunction survives when, on every
    /// dimension it constrains, some value's satisfied-leaf mask holds
    /// all of its leaves there; over the product that is exact, so a
    /// `false` is never wrong. The masks come from the plan's own memos,
    /// which evaluating the rows then reuses. Above
    /// [`LeafMaskPlan::MAX_LEAVES`] leaves the plan has no masks and
    /// answers `true` for every non-empty product.
    pub fn any_in_product(
        &mut self,
        schema: &Schema,
        values: &[Vec<(u8, u64)>],
    ) -> Result<bool, SpecError> {
        if values.iter().any(Vec::is_empty) {
            return Ok(false);
        }
        let Some(Masks { conjs, dims }) = &mut self.masks else {
            return Ok(true);
        };
        // Conjunction `j` (across predicates) is bit `j`; at most 64 have
        // a leaf, and one without any holds everywhere.
        let all = || conjs.iter().flatten().copied();
        if all().any(|cm| cm == 0) {
            return Ok(true);
        }
        // The conjunctions whose leaves among `bits` all lie in `m`.
        let within = |bits: u64, m: u64| {
            (all().enumerate())
                .filter(|&(_, cm)| cm & bits & !m == 0)
                .fold(0u64, |a, (j, _)| a | 1 << j)
        };
        let mut alive = within(0, 0);
        for dl in dims {
            let bits = dl.leaves.iter().fold(0, |a, (b, _)| a | b);
            let mut held = within(bits, 0);
            let mut last = None;
            for &(cat, code) in &values[dl.dim.index()] {
                if held & alive == alive {
                    break;
                }
                let m = dl.mask(schema, cat, code)?;
                if last.replace(m) != Some(m) {
                    held |= within(bits, m);
                }
            }
            alive &= held;
        }
        Ok(alive != 0)
    }

    /// The largest weight of a predicate on `coords` (Section 6.1's
    /// weighted approach): a conjunction weighs the product of its
    /// leaves' weights, a predicate its heaviest conjunction. Unmemoized,
    /// as a weight is not dimension-local.
    pub fn weight(&self, schema: &Schema, coords: &[DimValue]) -> Result<f64, SpecError> {
        let mut best = 0.0f64;
        for p in &self.preds {
            best = best.max(p.weight_cell(schema, coords)?);
        }
        Ok(best)
    }

    /// The distinct dimension values the leaf masks have memoized.
    pub fn filled(&self) -> usize {
        let dims = self.masks.iter().flat_map(|m| &m.dims);
        dims.filter_map(|d| d.memo.as_ref())
            .map(DimTables::filled)
            .sum()
    }
}

fn compile_leaf(
    schema: &Schema,
    a: &Atom,
    ctx_negated: bool,
    meaning: LeafMeaning,
    now: DayNum,
) -> Result<CompiledLeaf, SpecError> {
    let kind = match &a.kind {
        AtomKind::Cmp { op, term } => {
            let value = term_value(schema, a, term, now)?;
            let dim = schema.dim(a.dim);
            let at = match meaning {
                LeafMeaning::Characterize => Vec::new(),
                _ => (dim.graph().all())
                    .map(|c| footprint(dim, value, dim.graph().glb(c, value.cat)).ok())
                    .collect(),
            };
            CompiledKind::Cmp { op: *op, value, at }
        }
        AtomKind::In { terms } => CompiledKind::In {
            values: terms
                .iter()
                .map(|t| term_value(schema, a, t, now))
                .collect::<Result<_, _>>()?,
        },
    };
    Ok(CompiledLeaf {
        dim: a.dim,
        cat: a.cat,
        negated: a.negated,
        ctx_negated,
        meaning,
        kind,
    })
}
