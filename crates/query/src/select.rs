//! The selection operator `σ[p](O)` (Section 6.1, Equation 36).
//!
//! Restricts the fact set to the facts characterized by values where `p`
//! evaluates to true; fact–dimension relations and measures are restricted
//! accordingly, dimensions and schema stay unchanged. Atoms are evaluated
//! with Definition 5's varying-granularity comparison semantics under the
//! chosen [`SelectMode`].
//!
//! # Vectorized kernel
//!
//! [`select`] is the compiled [`Scan`](crate::scan) over one MO with no
//! aggregation: the predicate is normalized to DNF **once** and every
//! `NOW`-dependent term is pre-resolved into a constant
//! (`CompiledSelect`); an atom depends only on its own dimension's
//! value, so satisfied-atom masks are memoized per *distinct dimension
//! value* (`SelMaskPlan`), or — for the weighted mode — decisions per
//! distinct cell (packed into a `u64`/`u128` key by [`KeyPacker`]), and
//! surviving rows are materialized with one columnar gather instead of
//! per-fact re-inserts. [`select_view`] returns `Cow::Borrowed` when
//! nothing is filtered (no predicate, or a full selection).
//!
//! The row-at-a-time reference implementation is retained as
//! [`select_naive`]; the differential property suite asserts kernel ≡
//! reference on arbitrary workloads.

use std::borrow::Cow;
use std::sync::Arc;

use sdr_mdm::{DayNum, DimId, DimValue, FactId, FxHashMap, KeyPacker, Mo, PackedKey, Schema};
use sdr_spec::{to_dnf, Atom, AtomKind, CmpOp, Pexp};

use crate::compare::{compare, compare_weight, member_of, member_weight, SelectMode};
use crate::error::QueryError;
use crate::scan::Scan;

/// Evaluates one atom against a fact under `mode` at time `now`.
fn eval_atom(
    mo: &Mo,
    atom: &Atom,
    f: FactId,
    now: DayNum,
    mode: SelectMode,
) -> Result<bool, QueryError> {
    let schema = mo.schema();
    let dim = schema.dim(atom.dim);
    let v = mo.value(f, atom.dim);
    match &atom.kind {
        AtomKind::Cmp { op, term } => {
            let op = if atom.negated { op.negate() } else { *op };
            let c = sdr_spec::eval::term_value(schema, atom, term, now)?;
            compare(dim, v, op, c, mode)
        }
        AtomKind::In { terms } => {
            let consts: Result<Vec<_>, _> = terms
                .iter()
                .map(|t| sdr_spec::eval::term_value(schema, atom, t, now))
                .collect();
            let consts = consts?;
            if atom.negated {
                // NOT IN: conservative ⇔ footprint disjoint from the union;
                // liberal ⇔ not fully covered; weighted ⇔ 1 − coverage.
                let w = 1.0 - member_weight(dim, v, &consts)?;
                Ok(match mode {
                    SelectMode::Conservative => w >= 1.0,
                    SelectMode::Liberal => w > 0.0,
                    SelectMode::Weighted { threshold } => w >= threshold,
                })
            } else {
                member_of(dim, v, &consts, mode)
            }
        }
    }
}

/// The satisfaction weight of a full predicate for one fact (used by the
/// weighted approach; conjunction multiplies, disjunction takes the
/// maximum — the standard independence heuristic).
pub fn predicate_weight(mo: &Mo, p: &Pexp, f: FactId, now: DayNum) -> Result<f64, QueryError> {
    let dnf = to_dnf(p);
    let mut best = 0.0f64;
    for conj in &dnf {
        let mut w = 1.0f64;
        for atom in conj {
            let schema = mo.schema();
            let dim = schema.dim(atom.dim);
            let v = mo.value(f, atom.dim);
            let aw = match &atom.kind {
                AtomKind::Cmp { op, term } => {
                    let op = if atom.negated { op.negate() } else { *op };
                    let c = sdr_spec::eval::term_value(schema, atom, term, now)?;
                    compare_weight(dim, v, op, c)?
                }
                AtomKind::In { terms } => {
                    let consts: Result<Vec<_>, _> = terms
                        .iter()
                        .map(|t| sdr_spec::eval::term_value(schema, atom, t, now))
                        .collect();
                    let mw = member_weight(dim, v, &consts?)?;
                    if atom.negated {
                        1.0 - mw
                    } else {
                        mw
                    }
                }
            };
            w *= aw;
            if w == 0.0 {
                break;
            }
        }
        best = best.max(w);
    }
    Ok(best)
}

/// Decides whether fact `f` satisfies `p` under `mode` at `now`.
///
/// The predicate is normalized to DNF first so that negation reaches the
/// atoms, where each mode has an exact interpretation (Definition 5 and
/// its liberal/weighted variants).
pub fn satisfies(
    mo: &Mo,
    p: &Pexp,
    f: FactId,
    now: DayNum,
    mode: SelectMode,
) -> Result<bool, QueryError> {
    if let SelectMode::Weighted { threshold } = mode {
        return Ok(predicate_weight(mo, p, f, now)? >= threshold);
    }
    let dnf = to_dnf(p);
    for conj in &dnf {
        let mut all = true;
        for atom in conj {
            if !eval_atom(mo, atom, f, now, mode)? {
                all = false;
                break;
            }
        }
        if all {
            return Ok(true);
        }
    }
    Ok(false)
}

/// A selection predicate compiled for one `(schema, NOW)` pass: DNF
/// normalized once, every term resolved to a constant. Decisions computed
/// from it agree with [`satisfies`] / [`predicate_weight`] on every fact.
pub(crate) struct CompiledSelect {
    pub(crate) dnf: Vec<Vec<SelAtom>>,
}

pub(crate) struct SelAtom {
    dim: DimId,
    negated: bool,
    kind: SelKind,
}

enum SelKind {
    Cmp { op: CmpOp, c: DimValue },
    In { consts: Vec<DimValue> },
}

impl CompiledSelect {
    pub(crate) fn compile(
        schema: &Schema,
        p: &Pexp,
        now: DayNum,
    ) -> Result<CompiledSelect, QueryError> {
        let mut dnf = Vec::new();
        for conj in to_dnf(p) {
            let mut out = Vec::with_capacity(conj.len());
            for atom in &conj {
                let kind = match &atom.kind {
                    AtomKind::Cmp { op, term } => SelKind::Cmp {
                        op: *op,
                        c: sdr_spec::eval::term_value(schema, atom, term, now)?,
                    },
                    AtomKind::In { terms } => SelKind::In {
                        consts: terms
                            .iter()
                            .map(|t| sdr_spec::eval::term_value(schema, atom, t, now))
                            .collect::<Result<_, _>>()?,
                    },
                };
                out.push(SelAtom {
                    dim: atom.dim,
                    negated: atom.negated,
                    kind,
                });
            }
            dnf.push(out);
        }
        Ok(CompiledSelect { dnf })
    }

    /// One atom on a single dimension value — mirrors [`eval_atom`] with
    /// resolved constants. An atom depends only on its own dimension's
    /// value, which is what makes the per-dimension mask memo exact.
    pub(crate) fn eval_atom_value(
        &self,
        schema: &Schema,
        a: &SelAtom,
        v: DimValue,
        mode: SelectMode,
    ) -> Result<bool, QueryError> {
        let dim = schema.dim(a.dim);
        match &a.kind {
            SelKind::Cmp { op, c } => {
                let op = if a.negated { op.negate() } else { *op };
                compare(dim, v, op, *c, mode)
            }
            SelKind::In { consts } => {
                if a.negated {
                    let w = 1.0 - member_weight(dim, v, consts)?;
                    Ok(match mode {
                        SelectMode::Conservative => w >= 1.0,
                        SelectMode::Liberal => w > 0.0,
                        SelectMode::Weighted { threshold } => w >= threshold,
                    })
                } else {
                    member_of(dim, v, consts, mode)
                }
            }
        }
    }

    /// The decision for one distinct cell — mirrors [`satisfies`].
    pub(crate) fn decide_cell(
        &self,
        schema: &Schema,
        coords: &[DimValue],
        mode: SelectMode,
    ) -> Result<bool, QueryError> {
        if let SelectMode::Weighted { threshold } = mode {
            return Ok(self.weight_cell(schema, coords)? >= threshold);
        }
        'conj: for conj in &self.dnf {
            for atom in conj {
                if !self.eval_atom_value(schema, atom, coords[atom.dim.index()], mode)? {
                    continue 'conj;
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// The satisfaction weight for one distinct cell — mirrors
    /// [`predicate_weight`].
    fn weight_cell(&self, schema: &Schema, coords: &[DimValue]) -> Result<f64, QueryError> {
        let mut best = 0.0f64;
        for conj in &self.dnf {
            let mut w = 1.0f64;
            for a in conj {
                let dim = schema.dim(a.dim);
                let v = coords[a.dim.index()];
                let aw = match &a.kind {
                    SelKind::Cmp { op, c } => {
                        let op = if a.negated { op.negate() } else { *op };
                        compare_weight(dim, v, op, *c)?
                    }
                    SelKind::In { consts } => {
                        let mw = member_weight(dim, v, consts)?;
                        if a.negated {
                            1.0 - mw
                        } else {
                            mw
                        }
                    }
                };
                w *= aw;
                if w == 0.0 {
                    break;
                }
            }
            best = best.max(w);
        }
        Ok(best)
    }
}

/// One atom occurrence within a dimension's plan: its mask bit plus the
/// `(conjunction, atom)` address inside the compiled DNF.
type AtomSlot = (u64, usize, usize);

/// A bitmask execution plan over a [`CompiledSelect`]: every atom
/// occurrence gets one bit, and a conjunction holds iff all its bits are
/// satisfied. Because each atom reads exactly one dimension value, the
/// satisfied-bit set of a fact is the union of per-dimension masks — and
/// those are memoized per *distinct dimension value*, of which there are
/// orders of magnitude fewer than distinct cells. Built only when the
/// predicate has ≤ 64 atom occurrences (callers fall back to the
/// cell-memo kernel otherwise).
pub(crate) struct SelMaskPlan {
    /// One bit-set per conjunction; a fact is kept iff any conjunction's
    /// mask is contained in its satisfied mask.
    pub(crate) conj_masks: Vec<u64>,
    /// Dimensions that carry atoms: for each, the (bit, conj, atom)
    /// positions to evaluate on a memo miss.
    pub(crate) dims: Vec<(DimId, Vec<AtomSlot>)>,
}

impl SelMaskPlan {
    pub(crate) fn build(compiled: &CompiledSelect) -> Option<SelMaskPlan> {
        let n: usize = compiled.dnf.iter().map(|c| c.len()).sum();
        if n > 64 {
            return None;
        }
        let mut conj_masks = Vec::with_capacity(compiled.dnf.len());
        let mut dims: Vec<(DimId, Vec<AtomSlot>)> = Vec::new();
        let mut bit = 0u32;
        for (ci, conj) in compiled.dnf.iter().enumerate() {
            let mut cm = 0u64;
            for (ai, atom) in conj.iter().enumerate() {
                let b = 1u64 << bit;
                bit += 1;
                cm |= b;
                match dims.iter_mut().find(|(d, _)| *d == atom.dim) {
                    Some((_, v)) => v.push((b, ci, ai)),
                    None => dims.push((atom.dim, vec![(b, ci, ai)])),
                }
            }
            conj_masks.push(cm);
        }
        Some(SelMaskPlan { conj_masks, dims })
    }
}

/// The selection operator `σ[p](O)` (Equation 36) under `mode`, with
/// `None` meaning "no predicate" (every fact qualifies): the one
/// compiled [`Scan`] over `mo` alone, with no aggregation. Returns a
/// borrowed view when nothing is filtered out — the caller pays for a
/// copy only when the selection actually narrows the fact set.
pub fn select_view<'a>(
    mo: &'a Mo,
    p: Option<&Pexp>,
    now: DayNum,
    mode: SelectMode,
) -> Result<Cow<'a, Mo>, QueryError> {
    let _span = sdr_obs::span("query.select");
    let out = match p {
        None => Cow::Borrowed(mo),
        Some(p) => {
            let scan = Scan::selection(mo.schema(), p, now, mode)?;
            let mut acc = scan.start();
            acc.feed(mo)?;
            acc.finish_rows()
        }
    };
    if sdr_obs::enabled() {
        sdr_obs::add("query.select.cells_visited", mo.len() as u64);
        sdr_obs::add("query.select.cells_kept", out.len() as u64);
    }
    Ok(out)
}

/// The selection operator `σ[p](O)` (Equation 36) under `mode`.
pub fn select(mo: &Mo, p: &Pexp, now: DayNum, mode: SelectMode) -> Result<Mo, QueryError> {
    Ok(select_view(mo, Some(p), now, mode)?.into_owned())
}

/// A selection result over a shared snapshot: either the snapshot itself
/// (nothing filtered — the `Arc` is cloned, not the facts) or an owned,
/// narrowed MO. The `'static` analogue of [`select_view`]'s `Cow`, for
/// callers that hand `Arc<Mo>` values to worker threads.
#[derive(Debug, Clone)]
pub enum MoView {
    /// The full input snapshot, shared.
    Shared(Arc<Mo>),
    /// A narrowed copy.
    Owned(Mo),
}

impl std::ops::Deref for MoView {
    type Target = Mo;
    fn deref(&self) -> &Mo {
        match self {
            MoView::Shared(m) => m,
            MoView::Owned(m) => m,
        }
    }
}

impl MoView {
    /// Extracts an owned MO (clones the facts only in the shared case
    /// with other outstanding references).
    pub fn into_owned(self) -> Mo {
        match self {
            MoView::Shared(m) => Arc::try_unwrap(m).unwrap_or_else(|m| (*m).clone()),
            MoView::Owned(m) => m,
        }
    }
}

/// [`select_view`] over a shared snapshot: returns [`MoView::Shared`]
/// (an `Arc` clone of the input, zero fact copies) when nothing is
/// filtered out — in particular for `p: None` — and an owned narrowed MO
/// otherwise. Unlike the `Cow` returned by [`select_view`], the result
/// borrows nothing, so it can cross thread boundaries.
pub fn select_snapshot(
    mo: &Arc<Mo>,
    p: Option<&Pexp>,
    now: DayNum,
    mode: SelectMode,
) -> Result<MoView, QueryError> {
    let out = match select_view(mo, p, now, mode)? {
        Cow::Borrowed(_) => MoView::Shared(Arc::clone(mo)),
        Cow::Owned(m) => MoView::Owned(m),
    };
    Ok(out)
}

/// The retained row-at-a-time reference implementation of [`select`]:
/// re-normalizes the predicate and re-resolves `NOW` terms per fact, and
/// rebuilds the output fact by fact. Kept for the differential property
/// suite and the CI perf smoke's kernel-vs-naive digests; not used by
/// the operators.
pub fn select_naive(mo: &Mo, p: &Pexp, now: DayNum, mode: SelectMode) -> Result<Mo, QueryError> {
    let mut out = mo.empty_like();
    for f in mo.facts() {
        if satisfies(mo, p, f, now, mode)? {
            out.insert_fact_at(
                &mo.coords(f),
                &mo.measures_of(f),
                mo.store().origin[f.index()],
            )?;
        }
    }
    Ok(out)
}

/// Weighted selection returning each qualifying fact with its weight
/// (Section 6.1's weighted approach exposes the certainty to the caller).
/// Weights are memoized per distinct cell like the boolean kernel.
pub fn select_weighted(
    mo: &Mo,
    p: &Pexp,
    now: DayNum,
    threshold: f64,
) -> Result<Vec<(FactId, f64)>, QueryError> {
    fn run<K: PackedKey>(
        mo: &Mo,
        packer: &KeyPacker,
        compiled: &CompiledSelect,
        threshold: f64,
    ) -> Result<Vec<(FactId, f64)>, QueryError> {
        let store = mo.store();
        let mut memo: FxHashMap<K, f64> = FxHashMap::default();
        let mut out = Vec::new();
        for f in mo.facts() {
            let key = K::from_wide(packer.pack_row(store, f));
            let w = match memo.get(&key) {
                Some(&w) => w,
                None => {
                    let w = compiled.weight_cell(mo.schema(), &mo.coords(f))?;
                    memo.insert(key, w);
                    w
                }
            };
            if w >= threshold && w > 0.0 {
                out.push((f, w));
            }
        }
        Ok(out)
    }
    match KeyPacker::new(mo.schema()) {
        Some(pk) => {
            let compiled = CompiledSelect::compile(mo.schema(), p, now)?;
            if pk.fits64() {
                run::<u64>(mo, &pk, &compiled, threshold)
            } else {
                run::<u128>(mo, &pk, &compiled, threshold)
            }
        }
        None => {
            let mut out = Vec::new();
            for f in mo.facts() {
                let w = predicate_weight(mo, p, f, now)?;
                if w >= threshold && w > 0.0 {
                    out.push((f, w));
                }
            }
            Ok(out)
        }
    }
}
