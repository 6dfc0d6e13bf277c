//! Grounding predicates to prover regions.
//!
//! The operational NonCrossing and Growing checks (Sections 5.2–5.3) need
//! `Pred(a, t)` as a *set* they can intersect, subtract, and cover. This
//! module compiles a predicate, at a concrete evaluation time `t`, into a
//! union of [`Region`]s over the bottom-level footprint of each dimension:
//!
//! * time constraints become day intervals (every time value's footprint
//!   is a contiguous day range);
//! * enumerated constraints become bitsets of bottom-level value ids.
//!
//! Grounding is *exact* for the whole predicate grammar, which is what
//! makes the `sdr-prover` decision procedure complete here.

use sdr_prover::{BitSet, DayInterval, GroundSet, Region};

use sdr_mdm::{DayNum, Dimension, Schema, TimeValue};

use crate::ast::{Atom, AtomKind};
use crate::dnf::Conj;
use crate::error::SpecError;

/// Grounds one conjunction of atoms at time `now` (a predicate grounds
/// to the union over its DNF's disjuncts).
///
/// Each atom contributes a union of ground sets in its dimension; the
/// conjunction is the per-dimension intersection, expanded into a
/// cross-product of regions when unions are involved (unions stay tiny:
/// at most a handful of intervals).
pub fn ground_conj(schema: &Schema, conj: &Conj, now: DayNum) -> Result<Vec<Region>, SpecError> {
    let n = schema.n_dims();
    // Per dimension: a union of disjoint ground sets (starts at All).
    let mut per_dim: Vec<Vec<GroundSet>> = vec![vec![GroundSet::All]; n];
    for atom in conj {
        let pieces = ground_atom(schema, atom, now)?;
        let cur = std::mem::take(&mut per_dim[atom.dim.index()]);
        let mut next = Vec::new();
        for c in &cur {
            for p in &pieces {
                let x = c.intersect(p);
                if !x.is_empty() {
                    next.push(x);
                }
            }
        }
        if next.is_empty() {
            return Ok(vec![]); // conjunction unsatisfiable
        }
        per_dim[atom.dim.index()] = next;
    }
    // Cross product of per-dimension unions.
    let mut regions = vec![Region::all(n)];
    for (d, parts) in per_dim.into_iter().enumerate() {
        let mut next = Vec::with_capacity(regions.len() * parts.len());
        for r in &regions {
            for p in &parts {
                let mut nr = r.clone();
                nr.dims[d] = p.clone();
                next.push(nr);
            }
        }
        regions = next;
    }
    Ok(regions)
}

/// Grounds one atom into a union of disjoint ground sets over its
/// dimension's bottom-level footprint.
pub fn ground_atom(schema: &Schema, atom: &Atom, now: DayNum) -> Result<Vec<GroundSet>, SpecError> {
    let dim = schema.dim(atom.dim);
    match dim {
        Dimension::Time(_) => ground_time_atom(schema, atom, now),
        Dimension::Enum(e) => ground_enum_atom(schema, e, atom, now),
    }
}

fn ground_time_atom(
    schema: &Schema,
    atom: &Atom,
    now: DayNum,
) -> Result<Vec<GroundSet>, SpecError> {
    use crate::ast::CmpOp::*;
    let intervals: Vec<DayInterval> = match &atom.kind {
        AtomKind::Cmp { op, term } => {
            let op = if atom.negated { op.negate() } else { *op };
            let tv = crate::eval::term_value(schema, atom, term, now)?;
            let t = TimeValue::from_code(tv.cat, tv.code)?;
            let (s, e) = match (t.start_day(), t.end_day()) {
                (Some(s), Some(e)) => (s as i64, e as i64),
                // ⊤: any comparison against ⊤ is =⊤ or ≠⊤.
                _ => {
                    return Ok(match op {
                        Eq | Le | Ge => vec![GroundSet::All],
                        _ => vec![],
                    })
                }
            };
            match op {
                Lt => vec![DayInterval::new(DayInterval::FULL.lo, s - 1)],
                Le => vec![DayInterval::new(DayInterval::FULL.lo, e)],
                Gt => vec![DayInterval::new(e + 1, DayInterval::FULL.hi)],
                Ge => vec![DayInterval::new(s, DayInterval::FULL.hi)],
                Eq => vec![DayInterval::new(s, e)],
                Ne => vec![
                    DayInterval::new(DayInterval::FULL.lo, s - 1),
                    DayInterval::new(e + 1, DayInterval::FULL.hi),
                ],
            }
        }
        AtomKind::In { terms } => {
            let mut ivs = Vec::with_capacity(terms.len());
            for term in terms {
                let tv = crate::eval::term_value(schema, atom, term, now)?;
                let t = TimeValue::from_code(tv.cat, tv.code)?;
                match (t.start_day(), t.end_day()) {
                    (Some(s), Some(e)) => ivs.push(DayInterval::new(s as i64, e as i64)),
                    _ => ivs.push(DayInterval::FULL),
                }
            }
            if atom.negated {
                complement_intervals(&ivs)
            } else {
                merge_intervals(ivs)
            }
        }
    };
    Ok(intervals
        .into_iter()
        .filter(|i| !i.is_empty())
        .map(GroundSet::Interval)
        .collect())
}

/// Sorts and merges overlapping/adjacent intervals.
fn merge_intervals(mut ivs: Vec<DayInterval>) -> Vec<DayInterval> {
    ivs.retain(|i| !i.is_empty());
    ivs.sort_by_key(|i| i.lo);
    let mut out: Vec<DayInterval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.lo <= last.hi + 1 => last.hi = last.hi.max(iv.hi),
            _ => out.push(iv),
        }
    }
    out
}

/// Complement of a union of intervals within the full line.
fn complement_intervals(ivs: &[DayInterval]) -> Vec<DayInterval> {
    let merged = merge_intervals(ivs.to_vec());
    let mut out = Vec::with_capacity(merged.len() + 1);
    let mut lo = DayInterval::FULL.lo;
    for iv in &merged {
        if iv.lo > lo {
            out.push(DayInterval::new(lo, iv.lo - 1));
        }
        lo = iv.hi + 1;
    }
    if lo <= DayInterval::FULL.hi {
        out.push(DayInterval::new(lo, DayInterval::FULL.hi));
    }
    out
}

fn ground_enum_atom(
    schema: &Schema,
    e: &sdr_mdm::EnumDimension,
    atom: &Atom,
    now: DayNum,
) -> Result<Vec<GroundSet>, SpecError> {
    let g = e.graph();
    let bottom = g.bottom();
    let card = e.cardinality(bottom);
    // Footprint (bottom ids) of one category value.
    let footprint = |v: sdr_mdm::DimValue| -> Result<BitSet, SpecError> {
        Ok(e.drill_down(v, bottom)
            .map_err(SpecError::Model)?
            .iter()
            .map(|x| x.code as u32)
            .collect())
    };
    let mut set = BitSet::new();
    match &atom.kind {
        AtomKind::Cmp { op, term } => {
            let tv = crate::eval::term_value(schema, atom, term, now)?;
            // Generic path: collect the category values satisfying the
            // comparison, then union their footprints. (The parser only
            // admits =/!= here, but the AST is more general.)
            for v in e.values(atom.cat) {
                if op.test(v.code.cmp(&tv.code)) {
                    set = set.union(&footprint(v)?);
                }
            }
        }
        AtomKind::In { terms } => {
            for term in terms {
                let tv = crate::eval::term_value(schema, atom, term, now)?;
                set = set.union(&footprint(tv)?);
            }
        }
    }
    if atom.negated {
        set = BitSet::full(card).subtract(&set);
    }
    Ok(vec![GroundSet::Bits(set)])
}
