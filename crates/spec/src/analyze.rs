//! Static analysis of action predicates: growth classification and
//! step-day enumeration.
//!
//! Section 4.3 classifies predicates by how their selected cell set evolves
//! with `NOW`: **fixed**, **growing**, or **shrinking**. Section 5.3 lists
//! the syntactic categories A–E (growing by construction) and F–H
//! (shrinking, requiring the three-step prover check). This module
//! implements that syntactic classification, plus the *step-day*
//! enumeration that reduces the `∃t`/`∀t` quantifiers of the operational
//! checks to finitely many evaluation times (`sdr-reduce`'s per-action
//! analysis is its one caller).

use sdr_mdm::{DayNum, Schema};

use crate::ast::{AtomKind, CmpOp, Term};
use crate::dnf::Conj;
use crate::error::SpecError;
use crate::ground::ground_conj;

/// How the cell set selected by a (conjunctive) predicate evolves as time
/// passes (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthClass {
    /// The selected set never loses cells: categories A–E of Section 5.3
    /// (fixed bounds, or a `NOW`-relative *upper* bound that only grows).
    Growing,
    /// The predicate has a `NOW`-relative *lower* bound (or another
    /// time-varying construct that can drop cells): categories F–H. The
    /// specification may still be Growing overall if other actions "catch"
    /// the dropped cells — decided by the operational check.
    Shrinking,
}

/// Syntactically classifies one conjunction (Section 5.3's rules).
///
/// Conservative: anything not provably growing is reported as
/// [`GrowthClass::Shrinking`], which routes it to the exact operational
/// check — never the other way around.
pub fn classify_conj(schema: &Schema, conj: &Conj) -> GrowthClass {
    for atom in conj {
        if !schema.dim(atom.dim).is_time() {
            // Non-time constraints are always fixed (category A).
            continue;
        }
        let dynamic_shrinks = |op: CmpOp, term: &Term| -> bool {
            if !term.is_dynamic() {
                return false;
            }
            match op {
                // Dynamic upper bound: grows with NOW (categories B/D).
                CmpOp::Lt | CmpOp::Le => false,
                // Dynamic lower bound: increases with NOW — shrinking
                // (category F); Eq/Ne with NOW also drop cells over time.
                CmpOp::Gt | CmpOp::Ge | CmpOp::Eq | CmpOp::Ne => true,
            }
        };
        match &atom.kind {
            AtomKind::Cmp { op, term } => {
                let op = if atom.negated { op.negate() } else { *op };
                if dynamic_shrinks(op, term) {
                    return GrowthClass::Shrinking;
                }
            }
            AtomKind::In { terms } => {
                let dynamic = terms.iter().any(Term::is_dynamic);
                if dynamic {
                    // A dynamic membership set moves with NOW in both
                    // directions; and a *negated* static membership is
                    // still fixed. Only the dynamic case shrinks.
                    return GrowthClass::Shrinking;
                }
            }
        }
    }
    GrowthClass::Growing
}

/// Enumerates the *step days* of a conjunction within `[from, to]`: the
/// days `t` at which the grounded cell set changes, plus the endpoints.
///
/// All `NOW`-affine bounds are staircase functions of `t`, so the grounded
/// set is piecewise constant; quantifying over the returned days is
/// exactly equivalent to quantifying over every day in the range. The
/// implementation evaluates the grounding day by day and records change
/// points — brute force but exact, and cheap (one grounding is a few
/// hundred nanoseconds; horizons are a few thousand days).
pub fn step_days(
    schema: &Schema,
    conj: &Conj,
    from: DayNum,
    to: DayNum,
) -> Result<Vec<DayNum>, SpecError> {
    let mut out = vec![from];
    // Only dynamic atoms can change the grounding; enumerated constraints
    // and fixed time constraints are static, so we scan just the dynamic
    // part (much cheaper: no bitset footprints in the loop).
    let dynamic: Conj = conj
        .iter()
        .filter(|a| match &a.kind {
            AtomKind::Cmp { term, .. } => term.is_dynamic(),
            AtomKind::In { terms } => terms.iter().any(Term::is_dynamic),
        })
        .cloned()
        .collect();
    if dynamic.is_empty() {
        if to != from {
            out.push(to);
        }
        return Ok(out);
    }
    let mut prev = ground_conj(schema, &dynamic, from)?;
    for t in (from + 1)..=to {
        let cur = ground_conj(schema, &dynamic, t)?;
        if cur != prev {
            out.push(t);
            prev = cur;
        }
    }
    if out.last() != Some(&to) {
        out.push(to);
    }
    Ok(out)
}
