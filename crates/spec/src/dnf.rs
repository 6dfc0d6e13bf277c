//! Disjunctive-normal-form normalization and action splitting.
//!
//! Section 5.3's pre-processing step: predicates are transformed into DNF
//! and each action is split into one action per disjunct, so that every
//! predicate becomes a conjunction of (range) constraints per dimension.
//! The normalized set has exactly the same effect as the original.

use std::convert::Infallible;

use crate::ast::{ActionSpec, Atom, Pexp};

/// A conjunction of (possibly negated) atoms. The empty conjunction is
/// `true`.
pub type Conj = Vec<Atom>;

/// Normalizes a predicate into DNF: a disjunction (outer `Vec`) of
/// conjunctions of atoms. `vec![]` is `false`; `vec![vec![]]` is `true`.
///
/// Negations are pushed onto atoms (`Atom::negated`), so the result
/// contains no `Not`/`And`/`Or` structure.
pub fn to_dnf(p: &Pexp) -> Vec<Conj> {
    let folded = nnf_dnf(p, false, &mut |a: &Atom, neg| {
        let mut a = a.clone();
        a.negated ^= neg;
        Ok::<_, Infallible>(a)
    });
    folded.unwrap_or_else(|e| match e {})
}

/// The one DNF walker: normalizes `p` under the negation `neg` of its
/// context, emitting each atom as the leaf `leaf(atom, context
/// negation)` makes. [`to_dnf`] folds the context into the atom; the
/// predicate compiler keeps it apart (see [`crate::compile`]).
pub(crate) fn nnf_dnf<L: Clone, E>(
    p: &Pexp,
    neg: bool,
    leaf: &mut impl FnMut(&Atom, bool) -> Result<L, E>,
) -> Result<Vec<Vec<L>>, E> {
    Ok(match (p, neg) {
        (Pexp::True, false) | (Pexp::False, true) => vec![vec![]],
        (Pexp::True, true) | (Pexp::False, false) => vec![],
        (Pexp::Not(x), _) => nnf_dnf(x, !neg, leaf)?,
        (Pexp::Atom(a), _) => vec![vec![leaf(a, neg)?]],
        (Pexp::And(xs), false) | (Pexp::Or(xs), true) => {
            // Conjunction: distribute over the children's disjuncts.
            let mut acc: Vec<Vec<L>> = vec![vec![]];
            for x in xs {
                let d = nnf_dnf(x, neg, leaf)?;
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
                out.extend(nnf_dnf(x, neg, leaf)?);
            }
            out
        }
    })
}

/// Rebuilds a `Pexp` from a DNF (used after splitting).
pub fn from_dnf(dnf: &[Conj]) -> Pexp {
    if dnf.is_empty() {
        return Pexp::False;
    }
    let disjuncts: Vec<Pexp> = dnf
        .iter()
        .map(|c| {
            if c.is_empty() {
                Pexp::True
            } else if c.len() == 1 {
                Pexp::Atom(c[0].clone())
            } else {
                Pexp::And(c.iter().cloned().map(Pexp::Atom).collect())
            }
        })
        .collect();
    if disjuncts.len() == 1 {
        disjuncts.into_iter().next().unwrap()
    } else {
        Pexp::Or(disjuncts)
    }
}

/// Section 5.3 pre-processing: splits an action into one action per DNF
/// disjunct of its predicate. The returned set has the same effect as the
/// input action; every returned predicate is a pure conjunction.
pub fn split_action(a: &ActionSpec) -> Vec<ActionSpec> {
    to_dnf(&a.pred)
        .into_iter()
        .map(|conj| ActionSpec {
            grain: a.grain.clone(),
            pred: from_dnf(&[conj]),
            // Atoms keep their own spans through DNF; the action-level
            // spans still point at the original source action.
            span: a.span,
            grain_span: a.grain_span,
            pred_span: a.pred_span,
        })
        .collect()
}
