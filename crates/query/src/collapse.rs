//! Dimension reduction (extension).
//!
//! Section 8 of the paper lists "reduction in the number of dimensions
//! and measures" as future work, citing the dimensionality-reduction line
//! of Last & Maimon (reference 10 of the paper). This module implements it as an irreversible
//! operator in the spirit of the paper's aggregation-based reduction:
//! removing a dimension is aggregating every fact over it (equivalently,
//! rolling the dimension to `⊤` and dropping it), so all measures remain
//! exact at the retained dimensionality.
//!
//! Contrast with [`project`](crate::project::project): projection keeps
//! the fact set (duplicates included, as in Section 6.2); `collapse`
//! *merges* facts that become indistinguishable, which is what an actual
//! space-saving reduction needs.

use std::collections::BTreeMap;
use std::sync::Arc;

use sdr_mdm::{DimId, DimValue, Mo, Schema, ORIGIN_USER};

use crate::error::QueryError;

/// Removes `dropped` dimensions from `mo`, merging facts that share the
/// remaining coordinates (at their current granularities) and
/// re-aggregating measures with their default aggregate functions.
pub fn collapse_dimensions(mo: &Mo, dropped: &[&str]) -> Result<Mo, QueryError> {
    let schema = mo.schema();
    let drop_ids: Result<Vec<DimId>, _> = dropped.iter().map(|d| schema.dim_by_name(d)).collect();
    let drop_ids = drop_ids?;
    let keep: Vec<DimId> = (0..schema.n_dims() as u16)
        .map(DimId)
        .filter(|d| !drop_ids.contains(d))
        .collect();
    if keep.is_empty() {
        return Err(QueryError::Unsupported(
            "cannot collapse every dimension away".into(),
        ));
    }
    let new_schema = Schema::new(
        schema.fact_type.clone(),
        keep.iter().map(|&d| schema.dim(d).clone()).collect(),
        schema.measures.clone(),
    )?;
    let mut groups: BTreeMap<Vec<DimValue>, Vec<i64>> = BTreeMap::new();
    for f in mo.facts() {
        let key: Vec<DimValue> = keep.iter().map(|&d| mo.value(f, d)).collect();
        new_schema.fold_into_group(&mut groups, key, |j| {
            mo.measure(f, sdr_mdm::MeasureId(j as u16))
        })?;
    }
    let mut out = Mo::new(Arc::clone(&new_schema));
    for (coords, ms) in groups {
        out.insert_fact_at(&coords, &ms, ORIGIN_USER)?;
    }
    Ok(out)
}
