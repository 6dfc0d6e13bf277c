//! Predicate compilation for the vectorized kernels.
//!
//! [`eval_pred`](crate::eval::eval_pred) is exact but per-call expensive:
//! every evaluation walks the `Pexp` tree and re-resolves `NOW`-dependent
//! terms through the calendar. Reduction evaluates every action's
//! predicate for every fact, so a pass over *n* facts with *a* actions
//! pays `n·a` tree walks and `NOW` groundings even though `NOW` is fixed
//! for the whole pass.
//!
//! [`CompiledPred`] does that work once per pass: the predicate is
//! normalized to DNF, and every term — including `NOW ± k` expressions —
//! is pre-evaluated into a constant [`DimValue`]. Evaluation then runs
//! over flat conjunctions of resolved atoms with no allocation.
//! [`LeafMaskPlan`] goes one step further for a set of predicates
//! evaluated over many rows: each leaf's outcome is memoized per distinct
//! value of the one dimension it reads, and a predicate holds when one of
//! its conjunctions' leaf bits are all set.
//!
//! # Exactness
//!
//! Compilation must reproduce `eval_pred` *bit for bit*, including one
//! subtle convention: an atom whose cell value is coarser than the atom's
//! category is **unsatisfied** (`false`) regardless of the atom's own
//! `negated` flag — but a syntactic `NOT` *around* it still flips that
//! `false` to `true`. Folding context negation into `Atom::negated` (as
//! plain DNF normalization does) would conflate the two and change the
//! result for unevaluable atoms. The compiled form therefore keeps the
//! context negation in a separate `ctx_negated` bit applied *outside* the
//! atom evaluation. With atoms treated as opaque boolean leaves, De Morgan
//! and distribution are truth-preserving for every leaf valuation, so the
//! compiled DNF agrees with the recursive evaluation on every cell.

use sdr_mdm::{CatId, DayNum, DimId, DimTables, DimValue, FactId, FactStore, Schema};

use crate::ast::{Atom, AtomKind, CmpOp, Pexp};
use crate::error::SpecError;
use crate::eval::term_value;

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
    },
    /// `value(dim) IN {constants}`.
    In {
        /// The pre-resolved member constants.
        values: Vec<DimValue>,
    },
}

/// One leaf of the compiled DNF: a resolved atom plus the negation
/// context it was compiled under.
#[derive(Debug, Clone)]
struct CompiledLeaf {
    dim: DimId,
    cat: CatId,
    /// The source atom's own negation — applied to the comparison result,
    /// exactly like [`crate::eval::eval_atom`]'s `raw ^ a.negated`.
    negated: bool,
    /// Negation inherited from enclosing `NOT`s — applied *outside* the
    /// atom, so an unevaluable atom under `NOT` yields `true` (see the
    /// module docs).
    ctx_negated: bool,
    kind: CompiledKind,
}

impl CompiledLeaf {
    /// Evaluates the leaf on a cell; mirrors
    /// [`crate::eval::eval_atom`] with the context negation applied last.
    #[inline]
    fn eval(&self, schema: &Schema, coords: &[DimValue]) -> Result<bool, SpecError> {
        self.eval_value(schema, coords[self.dim.index()])
    }

    /// Evaluates the leaf on a single dimension value. A leaf reads
    /// exactly one dimension, which is what makes per-dimension
    /// memoization of leaf outcomes exact.
    #[inline]
    fn eval_value(&self, schema: &Schema, v: DimValue) -> Result<bool, SpecError> {
        let dim = schema.dim(self.dim);
        let atom_value = if !dim.graph().leq(v.cat, self.cat) {
            false
        } else {
            let rv = dim.rollup(v, self.cat)?;
            let raw = match &self.kind {
                CompiledKind::Cmp { op, value } => op.test(rv.code.cmp(&value.code)),
                CompiledKind::In { values } => values.iter().any(|t| t.code == rv.code),
            };
            raw ^ self.negated
        };
        Ok(atom_value ^ self.ctx_negated)
    }
}

/// A predicate compiled for one `(schema, NOW)` pass: DNF over resolved
/// atoms, evaluable on any cell without further allocation or calendar
/// arithmetic. Build once per reduction/query pass with
/// [`CompiledPred::compile`], evaluate per cell with
/// [`CompiledPred::eval_cell`].
#[derive(Debug, Clone)]
pub struct CompiledPred {
    /// Disjunction of conjunctions; `vec![]` is `false`,
    /// `vec![vec![]]` is `true`.
    dnf: Vec<Vec<CompiledLeaf>>,
}

impl CompiledPred {
    /// Compiles `p` against `schema` with `NOW ← now`. All terms are
    /// resolved to constants here, so evaluation never touches the
    /// calendar.
    pub fn compile(schema: &Schema, p: &Pexp, now: DayNum) -> Result<CompiledPred, SpecError> {
        Ok(CompiledPred {
            dnf: nnf_dnf(schema, p, false, now)?,
        })
    }

    /// Evaluates the compiled predicate on a cell of direct coordinates.
    /// Agrees with [`crate::eval::eval_pred`] on every cell.
    pub fn eval_cell(&self, schema: &Schema, coords: &[DimValue]) -> Result<bool, SpecError> {
        'conj: for conj in &self.dnf {
            for leaf in conj {
                if !leaf.eval(schema, coords)? {
                    continue 'conj;
                }
            }
            return Ok(true);
        }
        Ok(false)
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
/// plan** — the kernel behind the reduction step's Δ test and its
/// `Cell` resolution.
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
/// every cell.
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
        rows: &[u32],
        sat: &mut Vec<u64>,
    ) -> Result<(), SpecError> {
        sat.clear();
        sat.resize(rows.len(), 0);
        for dl in &mut self.dims {
            let (cats, codes) = (&store.cats[dl.dim.index()], &store.codes[dl.dim.index()]);
            let mut last = None;
            for (s, &r) in sat.iter_mut().zip(rows) {
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
                if leaf.eval_value(schema, v)? {
                    m |= b;
                }
            }
            Ok(m)
        })
    }
}

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
        m.sat_rows(schema, store, rows, out)?;
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
        let Some(m) = &mut self.masks else {
            for &r in rows {
                if self.any_row(schema, store, r as usize)? {
                    out.push(r);
                }
            }
            return Ok(());
        };
        let mut sat = std::mem::take(&mut self.sat);
        m.sat_rows(schema, store, rows, &mut sat)?;
        let held = |s: u64| m.conjs.iter().any(|conjs| any_within(conjs, s));
        out.extend(
            rows.iter()
                .zip(&sat)
                .filter(|(_, &s)| held(s))
                .map(|(&r, _)| r),
        );
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
}

/// DNF normalization with term resolution, keeping context negation on a
/// separate bit (see the module docs for why `a.negated ^= neg` would be
/// wrong here).
fn nnf_dnf(
    schema: &Schema,
    p: &Pexp,
    neg: bool,
    now: DayNum,
) -> Result<Vec<Vec<CompiledLeaf>>, SpecError> {
    Ok(match (p, neg) {
        (Pexp::True, false) | (Pexp::False, true) => vec![vec![]],
        (Pexp::True, true) | (Pexp::False, false) => vec![],
        (Pexp::Not(x), _) => nnf_dnf(schema, x, !neg, now)?,
        (Pexp::Atom(a), _) => vec![vec![compile_leaf(schema, a, neg, now)?]],
        (Pexp::And(xs), false) | (Pexp::Or(xs), true) => {
            // Conjunction: distribute over the children's disjuncts.
            let mut acc: Vec<Vec<CompiledLeaf>> = vec![vec![]];
            for x in xs {
                let d = nnf_dnf(schema, x, neg, now)?;
                let mut next = Vec::with_capacity(acc.len() * d.len());
                for left in &acc {
                    for right in &d {
                        let mut c = left.clone();
                        c.extend(right.iter().cloned());
                        next.push(c);
                    }
                }
                acc = next;
                if acc.is_empty() {
                    return Ok(acc);
                }
            }
            acc
        }
        (Pexp::Or(xs), false) | (Pexp::And(xs), true) => {
            let mut out = Vec::new();
            for x in xs {
                out.extend(nnf_dnf(schema, x, neg, now)?);
            }
            out
        }
    })
}

fn compile_leaf(
    schema: &Schema,
    a: &Atom,
    ctx_negated: bool,
    now: DayNum,
) -> Result<CompiledLeaf, SpecError> {
    let kind = match &a.kind {
        AtomKind::Cmp { op, term } => CompiledKind::Cmp {
            op: *op,
            value: term_value(schema, a, term, now)?,
        },
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
        kind,
    })
}
