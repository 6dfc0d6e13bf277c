//! The varying-granularity comparison operators of Definition 5.
//!
//! Selection predicates over a reduced MO compare a fact's direct value
//! `v'` (whose category may be coarser than the predicate's) against a
//! constant `v₁`. Definition 5 drills both down to their greatest lower
//! bound category `GLB_i(C', C₁)` and compares the resulting value *sets*;
//! the exact rule differs per operator class (strict inequalities,
//! reflexive inequalities, (in)equality, membership).
//!
//! Three evaluation *modes* are provided (Section 6.1):
//! * [`SelectMode::Conservative`] — Definition 5 verbatim: only facts
//!   *known* to satisfy the predicate qualify (the paper's default for
//!   warehouses, and ours);
//! * [`SelectMode::Liberal`] — facts that *might* satisfy it qualify;
//! * [`SelectMode::Weighted`] — facts qualify with a weight: the fraction
//!   of the fact's drill-down positions that satisfy the predicate
//!   (uniform-distribution semantics); `1.0` ⊇ conservative for the
//!   inequality operators, `> 0` ≡ liberal.
//!
//! For the time dimension every drill-down is a *contiguous serial range*
//! ([`TimeValue::serial`]), so all set comparisons reduce to interval
//! endpoint arithmetic — no sets are materialized. Enumerated dimensions
//! use explicit (small) id sets.

use sdr_mdm::{CatId, DimValue, Dimension, TimeValue};
use sdr_spec::CmpOp;

use crate::error::QueryError;

/// Selection evaluation mode (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectMode {
    /// Keep only facts known to satisfy the predicate (Definition 5).
    Conservative,
    /// Keep facts that might satisfy the predicate.
    Liberal,
    /// Keep facts whose satisfaction weight is ≥ the threshold.
    Weighted {
        /// Minimum weight for a fact to qualify, in `[0, 1]`.
        threshold: f64,
    },
}

/// The text form (CLI `--mode`, the wire protocol's `mode=`):
/// `conservative`, `liberal` or `weighted:<threshold>`.
impl std::fmt::Display for SelectMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectMode::Conservative => f.write_str("conservative"),
            SelectMode::Liberal => f.write_str("liberal"),
            SelectMode::Weighted { threshold } => write!(f, "weighted:{threshold}"),
        }
    }
}

impl std::str::FromStr for SelectMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SelectMode, String> {
        match s {
            "conservative" => Ok(SelectMode::Conservative),
            "liberal" => Ok(SelectMode::Liberal),
            _ => match s.strip_prefix("weighted:").map(str::parse) {
                Some(Ok(threshold)) => Ok(SelectMode::Weighted { threshold }),
                Some(Err(_)) => Err(format!("bad mode `{s}`")),
                None => Err(format!("unknown mode `{s}`")),
            },
        }
    }
}

/// The drill-down footprint of a value at the GLB category: a contiguous
/// serial range for time values, an explicit id set for enumerated ones.
enum Footprint {
    Range(i64, i64),
    Set(Vec<u64>),
}

fn footprint(dim: &Dimension, v: DimValue, glb: CatId) -> Result<Footprint, QueryError> {
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

/// Evaluates `v_fact op v_const` under `mode` (Definition 5).
pub fn compare(
    dim: &Dimension,
    v_fact: DimValue,
    op: CmpOp,
    v_const: DimValue,
    mode: SelectMode,
) -> Result<bool, QueryError> {
    match mode {
        SelectMode::Conservative => compare_conservative(dim, v_fact, op, v_const),
        SelectMode::Liberal => compare_liberal(dim, v_fact, op, v_const),
        SelectMode::Weighted { threshold } => {
            Ok(compare_weight(dim, v_fact, op, v_const)? >= threshold)
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
) -> Result<bool, QueryError> {
    let g = glb_of(dim, v_fact.cat, v_const.cat);
    let f = footprint(dim, v_fact, g)?;
    let c = footprint(dim, v_const, g)?;
    Ok(match (f, c) {
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
    })
}

/// Liberal variant: the comparison might hold for some detail position.
pub fn compare_liberal(
    dim: &Dimension,
    v_fact: DimValue,
    op: CmpOp,
    v_const: DimValue,
) -> Result<bool, QueryError> {
    let g = glb_of(dim, v_fact.cat, v_const.cat);
    let f = footprint(dim, v_fact, g)?;
    let c = footprint(dim, v_const, g)?;
    // Liberal = "some detail position of the fact satisfies the
    // comparison". A single detail position compared against a *coarse*
    // constant follows Definition 5 with a singleton left side: strict
    // inequalities must clear the constant's far endpoint (a day is `<` a
    // quarter only when it precedes the whole quarter), reflexive ones
    // only its near endpoint.
    Ok(match (f, c) {
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
    })
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
) -> Result<f64, QueryError> {
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

/// Membership `v_fact ∈ {v₁, …, vₖ}` (Equation 35) under `mode`.
pub fn member_of(
    dim: &Dimension,
    v_fact: DimValue,
    consts: &[DimValue],
    mode: SelectMode,
) -> Result<bool, QueryError> {
    let w = member_weight(dim, v_fact, consts)?;
    Ok(match mode {
        // Equation 35: every drill-down of v' matches some drill-down of a
        // member — i.e. the footprint is fully covered.
        SelectMode::Conservative => w >= 1.0,
        SelectMode::Liberal => w > 0.0,
        SelectMode::Weighted { threshold } => w >= threshold,
    })
}

/// The fraction of `v_fact`'s footprint covered by the union of the
/// members' footprints.
pub fn member_weight(
    dim: &Dimension,
    v_fact: DimValue,
    consts: &[DimValue],
) -> Result<f64, QueryError> {
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
