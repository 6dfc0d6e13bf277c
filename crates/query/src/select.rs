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
//! aggregation: the predicate is compiled **once** into the one
//! [`CompiledPred`] of `sdr-spec`, under the mode's leaf meaning, and
//! evaluated through its [`LeafMaskPlan`] — satisfied-leaf masks
//! memoized per *distinct dimension value*, or, for the weighted mode,
//! decisions per distinct cell (packed into a `u64`/`u128` key by
//! [`KeyPacker`]) — and surviving rows are materialized with one columnar
//! gather instead of per-fact re-inserts. [`select_view`] returns
//! `Cow::Borrowed` when nothing is filtered (no predicate, or a full
//! selection).
//!
//! The row-at-a-time reference implementation is retained as
//! [`select_naive`] (over [`satisfies`] and [`predicate_weight`]); the
//! differential property suite asserts kernel ≡ reference on arbitrary
//! workloads.

use std::borrow::Cow;
use std::sync::Arc;

use sdr_mdm::{DayNum, FactId, FxHashMap, KeyPacker, Mo};
use sdr_spec::{to_dnf, Atom, AtomKind, CompiledPred, LeafMaskPlan, Pexp};

use crate::compare::{compare, compare_weight, covered, member_of, member_weight, SelectMode};
use crate::error::QueryError;
use crate::scan::Scan;

/// Evaluates one atom against a fact under a boolean `mode` at time
/// `now`.
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
                // liberal ⇔ not fully covered.
                covered(1.0 - member_weight(dim, v, &consts)?, mode)
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
            scan.start().filter(mo)?
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
/// Weights come from the one compiled plan, memoized per distinct cell
/// like the scan's weighted decisions.
pub fn select_weighted(
    mo: &Mo,
    p: &Pexp,
    now: DayNum,
    threshold: f64,
) -> Result<Vec<(FactId, f64)>, QueryError> {
    let schema = mo.schema();
    let plan = LeafMaskPlan::new(vec![CompiledPred::compile(schema, p, now)?]);
    let packer = KeyPacker::new(schema);
    let mut memo: FxHashMap<u128, f64> = FxHashMap::default();
    let mut out = Vec::new();
    for f in mo.facts() {
        let key = packer.as_ref().map(|pk| pk.pack_row(mo.store(), f));
        let w = match key.and_then(|k| memo.get(&k)) {
            Some(&w) => w,
            None => {
                let w = plan.weight(schema, &mo.coords(f))?;
                if let Some(k) = key {
                    memo.insert(k, w);
                }
                w
            }
        };
        if w >= threshold && w > 0.0 {
            out.push((f, w));
        }
    }
    Ok(out)
}
