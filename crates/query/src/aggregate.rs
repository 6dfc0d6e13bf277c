//! The aggregate formation operator `α[C₁, …, Cₙ](O)` (Section 6.3,
//! Definition 6).
//!
//! Aggregates the facts of a (possibly reduced) MO to the requested
//! categories. The varying-granularity problem — some facts may already
//! sit *above* the requested level — is handled per the paper's three
//! implemented approaches:
//!
//! * [`AggApproach::Availability`] (the paper's and our default):
//!   `Group_high` (Equation 38) keeps coarser facts at their own finest
//!   available granularity, so the answer is the most detailed one that is
//!   still guaranteed correct;
//! * [`AggApproach::Strict`] — only facts at or below the requested
//!   granularity contribute; the answer has exactly the requested level;
//! * [`AggApproach::Lub`] — everything is aggregated to the least upper
//!   bound of the requested level and all fact granularities: one uniform
//!   (coarser) granularity covering every fact.
//!
//! * [`AggApproach::Disaggregated`] — the paper's fourth approach: facts
//!   *above* the requested level are spread back down to it, yielding an
//!   answer of exactly the requested granularity at the cost of
//!   imprecision (reference 5 of the paper). Additive measures are apportioned
//!   uniformly over the fact's footprint with largest-remainder rounding,
//!   so totals are conserved *exactly*; MIN/MAX values are replicated
//!   (their disaggregation is inherently undefined).
//!
//! # Vectorized kernel
//!
//! [`aggregate_ids`] is the compiled [`Scan`](crate::scan) over one MO:
//! grouping runs through an FxHash map over packed keys
//! ([`KeyPacker`](sdr_mdm::KeyPacker)) instead of a
//! `BTreeMap<Vec<DimValue>, _>`, targets are memoized per distinct
//! dimension value, and the LUB approach folds its uniform target into
//! the same single grouping pass. The row-at-a-time reference is retained
//! as [`aggregate_ids_naive`]; measure folds are reassociated across
//! partials only for the (commutative, associative) built-in [`AggFn`]s,
//! so kernel output is identical.

use std::collections::BTreeMap;

use std::sync::Arc;

use sdr_mdm::{AggFn, CatId, DimId, DimValue, FactId, Mo, Schema, ORIGIN_USER};

use crate::compare::SelectMode;
use crate::error::QueryError;
use crate::scan::Scan;

/// Varying-granularity handling for aggregate formation (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggApproach {
    /// Finest available granularity per fact (`Group_high`).
    Availability,
    /// Only facts at or below the requested granularity.
    Strict,
    /// One uniform granularity: the LUB of request and fact levels.
    Lub,
    /// Spread coarse facts back down to the requested granularity
    /// (imprecise but uniform-granularity answers; sums conserved).
    Disaggregated,
}

impl AggApproach {
    /// The pre-built per-approach `cells_visited` metric name (hoisted so
    /// the hot path never formats a string).
    pub(crate) fn visited_metric(self) -> &'static str {
        match self {
            AggApproach::Availability => "query.aggregate.availability.cells_visited",
            AggApproach::Strict => "query.aggregate.strict.cells_visited",
            AggApproach::Lub => "query.aggregate.lub.cells_visited",
            AggApproach::Disaggregated => "query.aggregate.disaggregated.cells_visited",
        }
    }
}

/// The text form (CLI `--approach`, the wire protocol's `approach=`).
impl std::fmt::Display for AggApproach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggApproach::Availability => "availability",
            AggApproach::Strict => "strict",
            AggApproach::Lub => "lub",
            AggApproach::Disaggregated => "disaggregated",
        })
    }
}

impl std::str::FromStr for AggApproach {
    type Err = String;

    fn from_str(s: &str) -> Result<AggApproach, String> {
        match s {
            "availability" => Ok(AggApproach::Availability),
            "strict" => Ok(AggApproach::Strict),
            "lub" => Ok(AggApproach::Lub),
            "disaggregated" => Ok(AggApproach::Disaggregated),
            other => Err(format!("unknown approach `{other}`")),
        }
    }
}

/// Aggregates `mo` to the categories named `Dim.cat` in `levels`.
pub fn aggregate(mo: &Mo, levels: &[&str], approach: AggApproach) -> Result<Mo, QueryError> {
    let schema = mo.schema();
    let mut cats: Vec<Option<CatId>> = vec![None; schema.n_dims()];
    for l in levels {
        let (d, c) = schema.resolve_cat(l)?;
        cats[d.index()] = Some(c);
    }
    let cats: Vec<CatId> = cats
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.unwrap_or_else(|| schema.dims[i].graph().bottom()))
        .collect();
    aggregate_ids(mo, &cats, approach)
}

/// Aggregate formation with resolved category ids (one per dimension):
/// the compiled [`Scan`] over `mo` alone, with no selection.
pub fn aggregate_ids(mo: &Mo, levels: &[CatId], approach: AggApproach) -> Result<Mo, QueryError> {
    let _span = sdr_obs::span("query.aggregate");
    let scan = Scan::compile(
        mo.schema(),
        None,
        0,
        SelectMode::Conservative,
        levels,
        approach,
    )?;
    let mut acc = scan.start();
    acc.feed(mo)?;
    acc.finish()
}

/// The retained row-at-a-time reference implementation of
/// [`aggregate_ids`]: `BTreeMap` grouping on coordinate vectors, with the
/// LUB approach pre-scanning all facts for the uniform target. Kept for
/// the differential property suite and the CI perf smoke's
/// kernel-vs-naive digests; the scan only falls back to this core when
/// the schema does not pack (or for the disaggregated approach, whose
/// fan-out is not cell-local).
pub fn aggregate_ids_naive(
    mo: &Mo,
    levels: &[CatId],
    approach: AggApproach,
) -> Result<Mo, QueryError> {
    aggregate_rows_naive(mo.schema(), &[(mo, None)], levels, approach)
}

/// The facts of one run a row-at-a-time aggregation reads: `rows` of
/// `mo` (`None`: all of them).
fn part_facts<'a>(
    (mo, rows): &'a (&'a Mo, Option<Vec<u32>>),
) -> impl Iterator<Item = (&'a Mo, FactId)> + 'a {
    let n = rows.as_ref().map_or(mo.len(), Vec::len);
    (0..n).map(move |i| {
        let f = rows.as_ref().map_or(i as u32, |r| r[i]);
        (*mo, FactId(f))
    })
}

/// Row-at-a-time aggregate formation over the given rows of `parts`
/// (MOs over `schema`, read as one input in the order given).
pub(crate) fn aggregate_rows_naive(
    schema: &Arc<Schema>,
    parts: &[(&Mo, Option<Vec<u32>>)],
    levels: &[CatId],
    approach: AggApproach,
) -> Result<Mo, QueryError> {
    let facts = || parts.iter().flat_map(part_facts);
    // For the LUB approach, first compute the uniform target granularity.
    let lub_target: Option<Vec<CatId>> = match approach {
        AggApproach::Lub => {
            let mut t = levels.to_vec();
            for (mo, f) in facts() {
                for (i, tc) in t.iter_mut().enumerate() {
                    let c = mo.value(f, DimId(i as u16)).cat;
                    *tc = schema.dims[i].graph().lub(*tc, c);
                }
            }
            Some(t)
        }
        _ => None,
    };

    let mut groups: BTreeMap<Vec<DimValue>, Vec<i64>> = BTreeMap::new();
    let mut add_to_group = |key: Vec<DimValue>, values: &[i64]| {
        let acc = groups
            .entry(key)
            .or_insert_with(|| schema.measures.iter().map(|m| m.agg.identity()).collect());
        for (j, a) in acc.iter_mut().enumerate() {
            *a = schema.measures[j].agg.combine(*a, values[j]);
        }
    };
    'facts: for (mo, f) in facts() {
        if approach == AggApproach::Disaggregated {
            disaggregate_fact(mo, f, levels, &mut add_to_group)?;
            continue;
        }
        let mut key = Vec::with_capacity(levels.len());
        for (i, &req) in levels.iter().enumerate() {
            let d = DimId(i as u16);
            let dim = schema.dim(d);
            let g = dim.graph();
            let v = mo.value(f, d);
            let target = match approach {
                AggApproach::Availability => {
                    // Group_high: the finest category ≥ both the request
                    // and the fact's own level (their LUB; equals the
                    // request when the fact is at or below it).
                    g.lub(req, v.cat)
                }
                AggApproach::Strict => {
                    if !g.leq(v.cat, req) {
                        continue 'facts; // fact too coarse: excluded
                    }
                    req
                }
                AggApproach::Lub => lub_target.as_ref().expect("computed above")[i],
                AggApproach::Disaggregated => unreachable!("handled above"),
            };
            key.push(dim.rollup(v, target)?);
        }
        add_to_group(key, &mo.measures_of(f));
    }
    // End the closure's mutable borrow of `groups`.
    let _ = &mut add_to_group;
    let mut out = Mo::new(Arc::clone(schema));
    for (coords, ms) in groups {
        out.insert_fact_at(&coords, &ms, ORIGIN_USER)?;
    }
    Ok(out)
}

/// Safety valve for the disaggregated approach: refuse to explode one
/// coarse fact into more than this many target cells.
const MAX_DISAGG_CELLS: usize = 100_000;

/// Spreads a fact down to the requested granularity (Section 6.3's
/// disaggregated approach). Additive (SUM/COUNT) measures are apportioned
/// uniformly over the target cells with largest-remainder rounding so
/// totals are exactly conserved; MIN/MAX are replicated.
fn disaggregate_fact(
    mo: &Mo,
    f: sdr_mdm::FactId,
    levels: &[CatId],
    add_to_group: &mut impl FnMut(Vec<DimValue>, &[i64]),
) -> Result<(), QueryError> {
    let schema = mo.schema();
    // Per dimension: the list of target values the fact covers.
    let mut per_dim: Vec<Vec<DimValue>> = Vec::with_capacity(levels.len());
    let mut cells = 1usize;
    for (i, &req) in levels.iter().enumerate() {
        let d = DimId(i as u16);
        let dim = schema.dim(d);
        let g = dim.graph();
        let v = mo.value(f, d);
        let targets = if g.leq(v.cat, req) {
            vec![dim.rollup(v, req)?]
        } else if g.leq(req, v.cat) {
            dim.drill_down(v, req)?
        } else {
            // Parallel branches: drill to the GLB, roll each piece up to
            // the request, and deduplicate (weights stay uniform per
            // GLB piece, so we spread over GLB pieces instead).
            let glb = g.glb(v.cat, req);
            let mut ups: Vec<DimValue> = dim
                .drill_down(v, glb)?
                .into_iter()
                .map(|x| dim.rollup(x, req))
                .collect::<Result<_, _>>()?;
            ups.sort();
            ups.dedup();
            ups
        };
        cells = cells.saturating_mul(targets.len().max(1));
        if cells > MAX_DISAGG_CELLS {
            return Err(QueryError::Unsupported(format!(
                "disaggregation of fact {} would produce more than {MAX_DISAGG_CELLS} cells",
                f.0
            )));
        }
        per_dim.push(targets);
    }
    let k = per_dim.iter().map(|t| t.len()).product::<usize>();
    if k == 0 {
        return Ok(());
    }
    let measures = mo.measures_of(f);
    // Largest-remainder apportionment per additive measure.
    let mut spread: Vec<Vec<i64>> = vec![vec![0; schema.n_measures()]; k];
    for (j, &total) in measures.iter().enumerate() {
        match schema.measures[j].agg {
            AggFn::Sum | AggFn::Count => {
                let base = total.div_euclid(k as i64);
                let mut rem = total.rem_euclid(k as i64);
                for s in spread.iter_mut() {
                    s[j] = base + if rem > 0 { 1 } else { 0 };
                    if rem > 0 {
                        rem -= 1;
                    }
                }
            }
            AggFn::Min | AggFn::Max => {
                for s in spread.iter_mut() {
                    s[j] = total;
                }
            }
        }
    }
    // Enumerate the Cartesian product of per-dimension targets.
    let mut idx = vec![0usize; per_dim.len()];
    for s in spread.iter() {
        let key: Vec<DimValue> = idx.iter().zip(&per_dim).map(|(&i, t)| t[i]).collect();
        add_to_group(key, s);
        // Advance the mixed-radix counter.
        for (pos, t) in idx.iter_mut().zip(&per_dim).rev() {
            *pos += 1;
            if *pos < t.len() {
                break;
            }
            *pos = 0;
        }
    }
    Ok(())
}
