//! Fact schemas, measures, and granularities.
//!
//! An *n-dimensional fact schema* is the three-tuple `S = (F, D, M)` of
//! Section 3: a fact type name, dimension types, and measure types. Each
//! measure carries a *distributive* default aggregate function `a_M`
//! (Section 3 requires distributivity so two-step aggregation — used both
//! by repeated reduction and by the subcube combination step of Section
//! 7.3 — is exact).

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use crate::category::CatId;
use crate::dimension::{DimId, DimValue, Dimension};
use crate::error::MdmError;

/// A distributive aggregate function over `i64` measure values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Sum of values (the paper's default for all four example measures).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count, realized distributively as the sum of per-fact counts: facts
    /// inserted by users carry `1`, aggregated facts carry the group size
    /// (this is exactly the paper's `Number_of` measure).
    Count,
}

impl AggFn {
    /// Combines two already-aggregated values (associative & commutative);
    /// `None` when a SUM or COUNT leaves the `i64` range. MIN and MAX
    /// always combine.
    #[inline]
    pub fn checked_combine(self, a: i64, b: i64) -> Option<i64> {
        match self {
            AggFn::Sum | AggFn::Count => a.checked_add(b),
            AggFn::Min => Some(a.min(b)),
            AggFn::Max => Some(a.max(b)),
        }
    }

    /// [`checked_combine`](AggFn::checked_combine) for callers whose sums
    /// provably fit, such as digests of generated data.
    ///
    /// # Panics
    ///
    /// When a SUM or COUNT leaves the `i64` range — in every build; the
    /// warehouse itself folds through [`Schema::fold_measures`], which
    /// reports it.
    #[inline]
    pub fn combine(self, a: i64, b: i64) -> i64 {
        self.checked_combine(a, b).expect("measure overflow")
    }

    /// The identity element, such that `checked_combine(identity, x) = Some(x)`.
    #[inline]
    pub fn identity(self) -> i64 {
        match self {
            AggFn::Sum | AggFn::Count => 0,
            AggFn::Min => i64::MAX,
            AggFn::Max => i64::MIN,
        }
    }
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggFn::Sum => "SUM",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
            AggFn::Count => "COUNT",
        })
    }
}

/// A measure type: a name plus its default aggregate function.
#[derive(Debug, Clone)]
pub struct MeasureDef {
    /// Measure name (e.g. `Dwell_time`).
    pub name: String,
    /// Default aggregate function `a_M`.
    pub agg: AggFn,
}

impl MeasureDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, agg: AggFn) -> Self {
        MeasureDef {
            name: name.into(),
            agg,
        }
    }
}

/// Index of a measure within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasureId(pub u16);

impl MeasureId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The fact schema `S = (F, D, M)`.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Fact type name (e.g. `Click`).
    pub fact_type: String,
    /// Dimension types, in `DimId` order.
    pub dims: Vec<Dimension>,
    /// Measure types, in `MeasureId` order.
    pub measures: Vec<MeasureDef>,
}

impl Schema {
    /// Builds a schema; at least one dimension is required.
    pub fn new(
        fact_type: impl Into<String>,
        dims: Vec<Dimension>,
        measures: Vec<MeasureDef>,
    ) -> Result<Arc<Self>, MdmError> {
        if dims.is_empty() {
            return Err(MdmError::SchemaMismatch("at least one dimension".into()));
        }
        let mut names: Vec<&str> = dims.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != dims.len() {
            return Err(MdmError::SchemaMismatch("duplicate dimension names".into()));
        }
        Ok(Arc::new(Schema {
            fact_type: fact_type.into(),
            dims,
            measures,
        }))
    }

    /// Number of dimensions `n`.
    #[inline]
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of measures `m`.
    #[inline]
    pub fn n_measures(&self) -> usize {
        self.measures.len()
    }

    /// The dimension with index `d`.
    #[inline]
    pub fn dim(&self, d: DimId) -> &Dimension {
        &self.dims[d.index()]
    }

    /// Looks a dimension up by name.
    pub fn dim_by_name(&self, name: &str) -> Result<DimId, MdmError> {
        self.dims
            .iter()
            .position(|d| d.name() == name)
            .map(|i| DimId(i as u16))
            .ok_or_else(|| MdmError::UnknownDimension(name.into()))
    }

    /// Looks a measure up by name.
    pub fn measure_by_name(&self, name: &str) -> Result<MeasureId, MdmError> {
        self.measures
            .iter()
            .position(|m| m.name == name)
            .map(|i| MeasureId(i as u16))
            .ok_or_else(|| MdmError::UnknownMeasure(name.into()))
    }

    /// Resolves a `Dimension.category` path such as `Time.month`.
    pub fn resolve_cat(&self, path: &str) -> Result<(DimId, CatId), MdmError> {
        let (dname, cname) = path
            .split_once('.')
            .ok_or_else(|| MdmError::UnknownCategory(format!("`{path}` (expected Dim.cat)")))?;
        let d = self.dim_by_name(dname)?;
        let c = self
            .dim(d)
            .graph()
            .by_name(cname)
            .ok_or_else(|| MdmError::UnknownCategory(path.into()))?;
        Ok((d, c))
    }

    /// The bottom granularity `(⊥_1, …, ⊥_n)`.
    pub fn bottom_granularity(&self) -> Granularity {
        Granularity(self.dims.iter().map(|d| d.graph().bottom()).collect())
    }

    /// Folds one row of measure values (`value(j)` for measure `j`) into
    /// the accumulator row `acc` with each measure's aggregate function —
    /// where measures meet, in every aggregation. `Err` names the first
    /// measure whose SUM or COUNT left the `i64` range; its slot keeps
    /// the value it had.
    #[inline]
    pub fn fold_measures(
        &self,
        acc: &mut [i64],
        value: impl Fn(usize) -> i64,
    ) -> Result<(), MeasureId> {
        for (j, (a, m)) in acc.iter_mut().zip(&self.measures).enumerate() {
            *a = m
                .agg
                .checked_combine(*a, value(j))
                .ok_or(MeasureId(j as u16))?;
        }
        Ok(())
    }

    /// Folds one row into the group of `cell` in `groups`. A new group is
    /// the row itself: every aggregate's identity absorbs any value.
    pub fn fold_into_group(
        &self,
        groups: &mut BTreeMap<Vec<DimValue>, Vec<i64>>,
        cell: Vec<DimValue>,
        value: impl Fn(usize) -> i64,
    ) -> Result<(), MdmError> {
        match groups.entry(cell) {
            Entry::Vacant(v) => {
                v.insert((0..self.n_measures()).map(value).collect());
            }
            Entry::Occupied(mut o) => {
                let folded = self.fold_measures(o.get_mut(), value);
                folded.map_err(|m| self.measure_overflow(m, o.key()))?;
            }
        }
        Ok(())
    }

    /// The error for measure `m` leaving the `i64` range in the group of
    /// `cell`.
    pub fn measure_overflow(&self, m: MeasureId, cell: &[DimValue]) -> MdmError {
        let def = &self.measures[m.index()];
        let values: Vec<String> = cell
            .iter()
            .enumerate()
            .map(|(i, &v)| self.dims[i].render(v))
            .collect();
        MdmError::MeasureOverflow {
            measure: format!("{}({})", def.agg, def.name),
            cell: format!("({})", values.join(", ")),
        }
    }

    /// Renders a granularity as `(Time.month, URL.domain)`.
    pub fn render_granularity(&self, g: &Granularity) -> String {
        let parts: Vec<String> =
            g.0.iter()
                .enumerate()
                .map(|(i, &c)| format!("{}.{}", self.dims[i].name(), self.dims[i].graph().name(c)))
                .collect();
        format!("({})", parts.join(", "))
    }
}

/// A granularity: one category per dimension, ordered by `≤_P`
/// (Equation 6 — the component-wise category order).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Granularity(pub Vec<CatId>);

impl Granularity {
    /// Component-wise order `self ≤_P other` (Equation 6).
    pub fn leq(&self, other: &Granularity, schema: &Schema) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0
            .iter()
            .zip(&other.0)
            .enumerate()
            .all(|(i, (&a, &b))| schema.dims[i].graph().leq(a, b))
    }

    /// True when the two granularities are comparable under `≤_P`.
    pub fn comparable(&self, other: &Granularity, schema: &Schema) -> bool {
        self.leq(other, schema) || other.leq(self, schema)
    }

    /// `max_{≤_P}` over a non-empty set, provided the set is totally
    /// ordered (Section 4.2 assumes this; the NonCrossing property
    /// guarantees it for the sets that arise). Returns `None` when two
    /// elements are incomparable.
    pub fn max_of<'a>(
        items: impl IntoIterator<Item = &'a Granularity>,
        schema: &Schema,
    ) -> Option<Granularity> {
        let mut best: Option<&Granularity> = None;
        for g in items {
            match best {
                None => best = Some(g),
                Some(b) => {
                    if b.leq(g, schema) {
                        best = Some(g);
                    } else if !g.leq(b, schema) {
                        return None; // incomparable pair
                    }
                }
            }
        }
        best.cloned()
    }

    /// Component-wise category at dimension `i`.
    #[inline]
    pub fn cat(&self, d: DimId) -> CatId {
        self.0[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::CatGraph;
    use crate::dimension::EnumDimensionBuilder;
    use crate::time::{cat as tcat, TimeDimension};

    fn schema() -> Arc<Schema> {
        let time = Dimension::Time(TimeDimension::new((1995, 1, 1), (2010, 12, 31)).unwrap());
        let g = CatGraph::new(
            vec!["url", "domain", "domain_grp", "T"],
            &[
                ("url", "domain"),
                ("domain", "domain_grp"),
                ("domain_grp", "T"),
            ],
        )
        .unwrap();
        let b = EnumDimensionBuilder::new("URL", g);
        let url = Dimension::Enum(b.build().unwrap());
        Schema::new(
            "Click",
            vec![time, url],
            vec![
                MeasureDef::new("Number_of", AggFn::Count),
                MeasureDef::new("Dwell_time", AggFn::Sum),
            ],
        )
        .unwrap()
    }

    #[test]
    fn resolve_paths() {
        let s = schema();
        let (d, c) = s.resolve_cat("Time.month").unwrap();
        assert_eq!(d, DimId(0));
        assert_eq!(c, tcat::MONTH);
        let (d, c) = s.resolve_cat("URL.domain_grp").unwrap();
        assert_eq!(d, DimId(1));
        assert_eq!(s.dim(d).graph().name(c), "domain_grp");
        assert!(s.resolve_cat("URL.bogus").is_err());
        assert!(s.resolve_cat("Nope.x").is_err());
        assert!(s.resolve_cat("Time").is_err());
    }

    #[test]
    fn granularity_order() {
        let s = schema();
        let g = &s;
        let url_graph = s.dim(DimId(1)).graph();
        let domain = url_graph.by_name("domain").unwrap();
        let url = url_graph.by_name("url").unwrap();
        let a = Granularity(vec![tcat::MONTH, domain]);
        let b = Granularity(vec![tcat::QUARTER, domain]);
        let c = Granularity(vec![tcat::WEEK, url]);
        assert!(a.leq(&b, g));
        assert!(!b.leq(&a, g));
        // (week, url) incomparable with (month, domain): week ≁ month.
        assert!(!a.comparable(&c, g));
        let max = Granularity::max_of([&a, &b], g).unwrap();
        assert_eq!(max, b);
        assert!(Granularity::max_of([&a, &c], g).is_none());
    }

    #[test]
    fn aggfn_laws() {
        for f in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
            let c = |a, b| f.checked_combine(a, b).unwrap();
            assert_eq!(c(f.identity(), 42), 42);
            assert_eq!(c(7, c(3, 5)), c(c(7, 3), 5));
            assert_eq!(c(7, 3), c(3, 7));
        }
    }

    #[test]
    fn sums_and_counts_that_leave_i64_are_errors_not_wrapped_values() {
        for f in [AggFn::Sum, AggFn::Count] {
            assert_eq!(f.checked_combine(i64::MAX - 1, i64::MAX - 1), None);
            assert_eq!(f.checked_combine(i64::MIN, -1), None);
            assert_eq!(f.checked_combine(i64::MAX - 1, 1), Some(i64::MAX));
        }
        // MIN and MAX never leave the range of their inputs.
        for (a, b) in [
            (i64::MAX, i64::MAX),
            (i64::MIN, i64::MAX),
            (i64::MIN, i64::MIN),
        ] {
            assert_eq!(AggFn::Min.checked_combine(a, b), Some(a.min(b)));
            assert_eq!(AggFn::Max.checked_combine(a, b), Some(a.max(b)));
        }
        let s = schema();
        let cell = vec![
            s.dim(DimId(0)).parse_value(tcat::MONTH, "2000/1").unwrap(),
            s.dim(DimId(1)).top_value(),
        ];
        let mut groups = BTreeMap::new();
        let big = |_| i64::MAX - 1;
        s.fold_into_group(&mut groups, cell.clone(), big).unwrap();
        assert_eq!(
            groups[&cell],
            vec![i64::MAX - 1; 2],
            "a new group is the row"
        );
        let err = s
            .fold_into_group(&mut groups, cell.clone(), big)
            .unwrap_err();
        assert_eq!(
            err,
            MdmError::MeasureOverflow {
                measure: "COUNT(Number_of)".into(),
                cell: "(2000/1, ⊤)".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "measure overflow: COUNT(Number_of) of cell (2000/1, ⊤) leaves the i64 range"
        );
    }

    #[test]
    fn duplicate_dimension_names_rejected() {
        let time1 = Dimension::Time(TimeDimension::new((1995, 1, 1), (2010, 12, 31)).unwrap());
        let time2 = Dimension::Time(TimeDimension::new((1995, 1, 1), (2010, 12, 31)).unwrap());
        assert!(Schema::new("F", vec![time1, time2], vec![]).is_err());
        assert!(Schema::new("F", vec![], vec![]).is_err());
    }
}
