//! The varying-granularity comparisons of Definition 5.
//!
//! Selection predicates over a reduced MO compare a fact's direct value
//! `v'` (whose category may be coarser than the predicate's) against a
//! constant `v₁`. Definition 5 drills both down to their greatest lower
//! bound category `GLB_i(C', C₁)` and compares the resulting value *sets*;
//! the exact rule differs per operator class (strict inequalities,
//! reflexive inequalities, (in)equality, membership). Each rule reads
//! only the dimension, the two values and the operator:
//! * [`compare_conservative`] — Definition 5 verbatim: the comparison is
//!   *known* to hold (the paper's default for warehouses, and ours);
//! * [`compare_liberal`] — it *might* hold;
//! * [`compare_weight`] and [`member_weight`] — the fraction of the
//!   fact's drill-down positions that satisfy it (Section 6.1's weighted
//!   approach, under a uniform distribution); `1.0` ⊇ conservative for
//!   the inequality operators, `> 0` ≡ liberal.
//!
//! A compiled leaf reads them under its [`LeafMeaning`](crate::LeafMeaning).
//! For the time dimension every drill-down is a *contiguous serial range*
//! ([`TimeValue::serial`]), so all set comparisons reduce to interval
//! endpoint arithmetic — no sets are materialized. Enumerated dimensions
//! use explicit (small) id sets.

use sdr_mdm::{CatId, DimValue, Dimension, TimeValue};

use crate::ast::CmpOp;
use crate::error::SpecError;

/// The drill-down footprint of a value at the GLB category: a contiguous
/// serial range for time values, an explicit id set for enumerated ones.
#[derive(Debug, Clone)]
pub(crate) enum Footprint {
    Range(i64, i64),
    Set(Vec<u64>),
}

pub(crate) fn footprint(dim: &Dimension, v: DimValue, glb: CatId) -> Result<Footprint, SpecError> {
    match dim {
        Dimension::Time(t) => {
            let tv = TimeValue::from_code(v.cat, v.code)?;
            match tv.serial_range(glb)? {
                Some((a, b)) => Ok(Footprint::Range(a, b)),
                None => {
                    // ⊤: the horizon.
                    let lo = TimeValue::Day(t.min_day).rollup(glb)?.serial();
                    let hi = TimeValue::Day(t.max_day).rollup(glb)?.serial();
                    Ok(Footprint::Range(lo, hi))
                }
            }
        }
        Dimension::Enum(e) => {
            let mut ids: Vec<u64> = e.drill_down(v, glb)?.iter().map(|x| x.code).collect();
            ids.sort_unstable();
            Ok(Footprint::Set(ids))
        }
    }
}

fn glb_of(dim: &Dimension, a: CatId, b: CatId) -> CatId {
    dim.graph().glb(a, b)
}

/// Definition 5, verbatim.
pub fn compare_conservative(
    dim: &Dimension,
    v_fact: DimValue,
    op: CmpOp,
    v_const: DimValue,
) -> Result<bool, SpecError> {
    let g = glb_of(dim, v_fact.cat, v_const.cat);
    let f = footprint(dim, v_fact, g)?;
    Ok(conservative(op, &f, &footprint(dim, v_const, g)?))
}

/// [`compare_conservative`] on the fact's and the constant's footprints
/// at their GLB.
pub(crate) fn conservative(op: CmpOp, f: &Footprint, c: &Footprint) -> bool {
    match (f, c) {
        (Footprint::Range(af, bf), Footprint::Range(a1, b1)) => match op {
            // ∀va ∀vb: va op vb.
            CmpOp::Lt => bf < a1,
            CmpOp::Gt => af > b1,
            // ∀va ∃vb: va op vb.
            CmpOp::Le => bf <= b1,
            CmpOp::Ge => af >= a1,
            // Definition 5 words `=` as drill-down-set *equality*, noting
            // "equality is only possible when comparing values from the
            // same category". Read per-element ("every detail position of
            // the fact equals some position of the constant", i.e. subset)
            // the operator also answers the ubiquitous roll-up equality
            // `URL.domain_grp = .com` correctly for finer facts — strict
            // set equality would reject a fact that is provably inside the
            // constant. We implement the subset reading; it coincides with
            // the paper's for same-category operands and is documented in
            // EXPERIMENTS.md as a deliberate deviation.
            CmpOp::Eq => af >= a1 && bf <= b1,
            // Definition 5 applies the set operator to both sides for
            // `≠` as well; read conservatively ("known to differ") that is
            // footprint *disjointness* — literal set inequality would let a
            // value *inside* the constant satisfy `≠`, which is not a
            // conservative answer.
            CmpOp::Ne => bf < a1 || af > b1,
        },
        (Footprint::Set(fs), Footprint::Set(cs)) => match op {
            CmpOp::Lt => match (fs.last(), cs.first()) {
                (Some(&x), Some(&y)) => x < y,
                _ => false,
            },
            CmpOp::Gt => match (fs.first(), cs.last()) {
                (Some(&x), Some(&y)) => x > y,
                _ => false,
            },
            CmpOp::Le => match (fs.last(), cs.last()) {
                (Some(&x), Some(&y)) => x <= y,
                _ => false,
            },
            CmpOp::Ge => match (fs.first(), cs.first()) {
                (Some(&x), Some(&y)) => x >= y,
                _ => false,
            },
            // Subset reading of `=` (see the range case above).
            CmpOp::Eq => fs.iter().all(|x| cs.binary_search(x).is_ok()),
            // Conservative ≠: footprints disjoint (see the range case).
            CmpOp::Ne => fs.iter().all(|x| cs.binary_search(x).is_err()),
        },
        _ => unreachable!("footprints of one dimension share a kind"),
    }
}

/// Liberal variant: the comparison might hold for some detail position.
pub fn compare_liberal(
    dim: &Dimension,
    v_fact: DimValue,
    op: CmpOp,
    v_const: DimValue,
) -> Result<bool, SpecError> {
    let g = glb_of(dim, v_fact.cat, v_const.cat);
    let f = footprint(dim, v_fact, g)?;
    Ok(liberal(op, &f, &footprint(dim, v_const, g)?))
}

/// [`compare_liberal`] on the fact's and the constant's footprints at
/// their GLB.
pub(crate) fn liberal(op: CmpOp, f: &Footprint, c: &Footprint) -> bool {
    // Liberal = "some detail position of the fact satisfies the
    // comparison". A single detail position compared against a *coarse*
    // constant follows Definition 5 with a singleton left side: strict
    // inequalities must clear the constant's far endpoint (a day is `<` a
    // quarter only when it precedes the whole quarter), reflexive ones
    // only its near endpoint.
    match (f, c) {
        (Footprint::Range(af, bf), Footprint::Range(a1, b1)) => match op {
            CmpOp::Lt => af < a1,
            CmpOp::Gt => bf > b1,
            CmpOp::Le => af <= b1,
            CmpOp::Ge => bf >= a1,
            // Might be equal: footprints overlap.
            CmpOp::Eq => af <= b1 && a1 <= bf,
            // Might differ: some detail position lies outside the constant.
            CmpOp::Ne => !(af >= a1 && bf <= b1),
        },
        (Footprint::Set(fs), Footprint::Set(cs)) => match op {
            CmpOp::Lt => match (fs.first(), cs.first()) {
                (Some(&x), Some(&y)) => x < y,
                _ => false,
            },
            CmpOp::Gt => match (fs.last(), cs.last()) {
                (Some(&x), Some(&y)) => x > y,
                _ => false,
            },
            CmpOp::Le => match (fs.first(), cs.last()) {
                (Some(&x), Some(&y)) => x <= y,
                _ => false,
            },
            CmpOp::Ge => match (fs.last(), cs.first()) {
                (Some(&x), Some(&y)) => x >= y,
                _ => false,
            },
            CmpOp::Eq => fs.iter().any(|x| cs.binary_search(x).is_ok()),
            // Might differ: some detail position lies outside the constant.
            CmpOp::Ne => fs.iter().any(|x| cs.binary_search(x).is_err()),
        },
        _ => unreachable!("footprints of one dimension share a kind"),
    }
}

/// Weighted variant: the fraction of the fact's drill-down positions that
/// satisfy the predicate, assuming a uniform distribution over them
/// (Section 6.1's weighted approach). A detail position `va` satisfies
/// `op v₁` iff its roll-up to `v₁`'s category does, which at the GLB level
/// means comparing `va` against the appropriate endpoint of `v₁`'s range.
pub fn compare_weight(
    dim: &Dimension,
    v_fact: DimValue,
    op: CmpOp,
    v_const: DimValue,
) -> Result<f64, SpecError> {
    let g = glb_of(dim, v_fact.cat, v_const.cat);
    let f = footprint(dim, v_fact, g)?;
    let c = footprint(dim, v_const, g)?;
    Ok(match (f, c) {
        (Footprint::Range(af, bf), Footprint::Range(a1, b1)) => {
            let total = (bf - af + 1) as f64;
            // Positions va ∈ [af, bf] satisfying the per-element rule.
            let sat = match op {
                CmpOp::Lt => overlap(af, bf, i64::MIN / 2, a1 - 1),
                CmpOp::Le => overlap(af, bf, i64::MIN / 2, b1),
                CmpOp::Gt => overlap(af, bf, b1 + 1, i64::MAX / 2),
                CmpOp::Ge => overlap(af, bf, a1, i64::MAX / 2),
                CmpOp::Eq => overlap(af, bf, a1, b1),
                CmpOp::Ne => (bf - af + 1) - overlap(af, bf, a1, b1),
            };
            sat as f64 / total
        }
        (Footprint::Set(fs), Footprint::Set(cs)) => {
            if fs.is_empty() {
                return Ok(0.0);
            }
            let inside = |x: &u64| cs.binary_search(x).is_ok();
            let lo = cs.first().copied().unwrap_or(u64::MAX);
            let hi = cs.last().copied().unwrap_or(0);
            let sat = fs
                .iter()
                .filter(|&&x| match op {
                    CmpOp::Lt => x < lo,
                    CmpOp::Le => x <= hi,
                    CmpOp::Gt => x > hi,
                    CmpOp::Ge => x >= lo,
                    CmpOp::Eq => inside(&x),
                    CmpOp::Ne => !inside(&x),
                })
                .count();
            sat as f64 / fs.len() as f64
        }
        _ => unreachable!("footprints of one dimension share a kind"),
    })
}

#[inline]
fn overlap(a: i64, b: i64, c: i64, d: i64) -> i64 {
    (b.min(d) - a.max(c) + 1).max(0)
}

/// The fraction of `v_fact`'s footprint covered by the union of the
/// members' footprints.
pub fn member_weight(
    dim: &Dimension,
    v_fact: DimValue,
    consts: &[DimValue],
) -> Result<f64, SpecError> {
    let g = dim
        .graph()
        .glb_many(std::iter::once(v_fact.cat).chain(consts.iter().map(|c| c.cat)))
        .expect("non-empty category set");
    match footprint(dim, v_fact, g)? {
        Footprint::Range(af, bf) => {
            // Merge the members' ranges, then measure coverage of [af, bf].
            let mut ranges = Vec::with_capacity(consts.len());
            for c in consts {
                if let Footprint::Range(a, b) = footprint(dim, *c, g)? {
                    ranges.push((a, b));
                }
            }
            ranges.sort_unstable();
            let mut covered = 0i64;
            let mut cursor = af;
            for (a, b) in ranges {
                let a = a.max(cursor);
                if a > bf {
                    break;
                }
                if b >= a {
                    covered += overlap(a, b, af, bf);
                    cursor = (b + 1).max(cursor);
                }
            }
            Ok(covered as f64 / (bf - af + 1) as f64)
        }
        Footprint::Set(fs) => {
            if fs.is_empty() {
                return Ok(0.0);
            }
            let mut union = Vec::new();
            for c in consts {
                if let Footprint::Set(mut s) = footprint(dim, *c, g)? {
                    union.append(&mut s);
                }
            }
            union.sort_unstable();
            union.dedup();
            let sat = fs.iter().filter(|x| union.binary_search(x).is_ok()).count();
            Ok(sat as f64 / fs.len() as f64)
        }
    }
}
