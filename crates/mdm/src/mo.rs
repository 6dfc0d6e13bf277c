//! Multidimensional objects (MOs) and their columnar fact store.
//!
//! An MO is the five-tuple `O = (S, F, D, R, M)` of Section 3. The schema
//! `S` owns the dimensions `D`; the fact set `F`, fact–dimension relations
//! `R`, and measures `M` are stored columnar (struct-of-arrays) in
//! [`FactStore`]: per dimension a category column and a code column (the
//! direct fact–dimension relation `R_i`), and per measure a value column.
//!
//! The model's invariants are enforced on insert:
//! * no missing values — every fact maps to exactly one value per
//!   dimension (use `⊤` for "unknown", as the paper prescribes);
//! * facts inserted by *users* map to bottom-category values only; the
//!   reduction machinery uses [`Mo::insert_fact_at`] to create facts at
//!   coarser granularities.

use std::sync::Arc;

use crate::dimension::{DimId, DimValue};
use crate::error::MdmError;
use crate::schema::{Granularity, MeasureId, Schema};

/// The schema check of [`Mo::absorb`]: facts over `b` may be read as
/// facts over `a` — the same schema, or one of the same fact type and
/// shape.
pub fn check_same_schema(a: &Arc<Schema>, b: &Arc<Schema>) -> Result<(), MdmError> {
    if !Arc::ptr_eq(a, b)
        && (a.fact_type != b.fact_type
            || a.n_dims() != b.n_dims()
            || a.n_measures() != b.n_measures())
    {
        return Err(MdmError::SchemaMismatch(
            "absorb requires identical schemas".into(),
        ));
    }
    Ok(())
}

/// Identifies a fact within one MO (dense row index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(pub u32);

impl FactId {
    /// The raw row index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Provenance tag for a fact: which reduction action produced it.
///
/// `ORIGIN_USER` marks user-inserted facts. The paper requires that for
/// every fact one can determine the action responsible for its current
/// granularity ("to communicate to users why data is aggregated the way it
/// is", Section 4).
pub const ORIGIN_USER: u32 = u32::MAX;

/// Columnar store backing one MO.
#[derive(Debug, Clone, Default)]
pub struct FactStore {
    /// Per dimension: the category of each fact's direct value.
    pub cats: Vec<Vec<u8>>,
    /// Per dimension: the packed code of each fact's direct value.
    pub codes: Vec<Vec<u64>>,
    /// Per measure: the measure value of each fact.
    pub measures: Vec<Vec<i64>>,
    /// Per fact: the id of the reduction action that produced it, or
    /// [`ORIGIN_USER`].
    pub origin: Vec<u32>,
    len: usize,
}

impl FactStore {
    /// An empty store shaped for `n_dims` dimensions and `n_measures`
    /// measures.
    pub fn new(n_dims: usize, n_measures: usize) -> Self {
        FactStore {
            cats: vec![Vec::new(); n_dims],
            codes: vec![Vec::new(); n_dims],
            measures: vec![Vec::new(); n_measures],
            origin: Vec::new(),
            len: 0,
        }
    }

    /// Number of facts.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the store holds no facts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reserves room for `additional` more facts in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.cats {
            c.reserve(additional);
        }
        for c in &mut self.codes {
            c.reserve(additional);
        }
        for m in &mut self.measures {
            m.reserve(additional);
        }
        self.origin.reserve(additional);
    }

    /// Appends a fact row; the caller guarantees shape consistency.
    pub fn push(&mut self, coords: &[DimValue], measures: &[i64], origin: u32) -> FactId {
        debug_assert_eq!(coords.len(), self.cats.len());
        debug_assert_eq!(measures.len(), self.measures.len());
        for (i, v) in coords.iter().enumerate() {
            self.cats[i].push(v.cat.0);
            self.codes[i].push(v.code);
        }
        for (j, &m) in measures.iter().enumerate() {
            self.measures[j].push(m);
        }
        self.origin.push(origin);
        let id = FactId(self.len as u32);
        self.len += 1;
        id
    }

    /// The direct value of fact `f` in dimension `d`.
    #[inline]
    pub fn value(&self, f: FactId, d: DimId) -> DimValue {
        DimValue {
            cat: crate::category::CatId(self.cats[d.index()][f.index()]),
            code: self.codes[d.index()][f.index()],
        }
    }

    /// The measure value of fact `f` for measure `m`.
    #[inline]
    pub fn measure(&self, f: FactId, m: MeasureId) -> i64 {
        self.measures[m.index()][f.index()]
    }

    /// Columnar gather: a new store holding exactly the given rows, in
    /// order. The vectorized selection kernel uses this instead of
    /// re-inserting surviving facts row by row.
    pub fn gather(&self, rows: &[u32]) -> FactStore {
        let mut out = FactStore::new(self.cats.len(), self.measures.len());
        out.reserve(rows.len());
        for (src, dst) in self.cats.iter().zip(&mut out.cats) {
            dst.extend(rows.iter().map(|&r| src[r as usize]));
        }
        for (src, dst) in self.codes.iter().zip(&mut out.codes) {
            dst.extend(rows.iter().map(|&r| src[r as usize]));
        }
        for (src, dst) in self.measures.iter().zip(&mut out.measures) {
            dst.extend(rows.iter().map(|&r| src[r as usize]));
        }
        out.origin
            .extend(rows.iter().map(|&r| self.origin[r as usize]));
        out.len = rows.len();
        out
    }

    /// Columnar append: copies rows `rows` of `other` onto the end of
    /// this store, one `extend_from_slice` per column. The caller
    /// guarantees both stores have the same shape.
    pub fn extend_from(&mut self, other: &FactStore, rows: std::ops::Range<usize>) {
        debug_assert_eq!(other.cats.len(), self.cats.len());
        debug_assert_eq!(other.measures.len(), self.measures.len());
        for (dst, src) in self.cats.iter_mut().zip(&other.cats) {
            dst.extend_from_slice(&src[rows.clone()]);
        }
        for (dst, src) in self.codes.iter_mut().zip(&other.codes) {
            dst.extend_from_slice(&src[rows.clone()]);
        }
        for (dst, src) in self.measures.iter_mut().zip(&other.measures) {
            dst.extend_from_slice(&src[rows.clone()]);
        }
        self.origin.extend_from_slice(&other.origin[rows.clone()]);
        self.len += rows.len();
    }

    /// Estimated resident bytes of the store (columnar payload only).
    pub fn approx_bytes(&self) -> usize {
        self.cats.iter().map(|c| c.len()).sum::<usize>()
            + self.codes.iter().map(|c| c.len() * 8).sum::<usize>()
            + self.measures.iter().map(|c| c.len() * 8).sum::<usize>()
            + self.origin.len() * 4
    }
}

/// A multidimensional object `O = (S, F, D, R, M)`.
#[derive(Debug, Clone)]
pub struct Mo {
    schema: Arc<Schema>,
    store: FactStore,
}

impl Mo {
    /// An empty MO over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let store = FactStore::new(schema.n_dims(), schema.n_measures());
        Mo { schema, store }
    }

    /// An MO over `schema` that takes whole columns as they are — what a
    /// decoder hands over instead of inserting fact by fact. Facts keep
    /// the granularity and origin the columns give them, as with
    /// [`Mo::insert_fact_at`].
    ///
    /// # Errors
    /// [`MdmError::InvalidFact`] when the column counts do not match the
    /// schema, the columns differ in length, or a category index lies
    /// outside its dimension's category graph.
    pub fn from_columns(
        schema: Arc<Schema>,
        cats: Vec<Vec<u8>>,
        codes: Vec<Vec<u64>>,
        measures: Vec<Vec<i64>>,
        origin: Vec<u32>,
    ) -> Result<Mo, MdmError> {
        let bad = |what: String| Err(MdmError::InvalidFact(what));
        if cats.len() != schema.n_dims() || codes.len() != schema.n_dims() {
            return bad(format!(
                "expected {} coordinate columns, got {} category and {} code columns",
                schema.n_dims(),
                cats.len(),
                codes.len()
            ));
        }
        if measures.len() != schema.n_measures() {
            return bad(format!(
                "expected {} measure columns, got {}",
                schema.n_measures(),
                measures.len()
            ));
        }
        let len = origin.len();
        let mut lens = cats
            .iter()
            .map(Vec::len)
            .chain(codes.iter().map(Vec::len))
            .chain(measures.iter().map(Vec::len));
        if lens.any(|n| n != len) {
            return bad(format!("columns differ in length ({len} origins)"));
        }
        for (i, col) in cats.iter().enumerate() {
            let known = schema.dims[i].graph().len();
            if let Some(&c) = col.iter().find(|&&c| c as usize >= known) {
                return bad(format!(
                    "coordinate {i} references unknown category {}",
                    crate::category::CatId(c)
                ));
            }
        }
        let store = FactStore {
            cats,
            codes,
            measures,
            origin,
            len,
        };
        Ok(Mo { schema, store })
    }

    /// The schema `S` (which owns the dimensions `D`).
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Direct read access to the columnar store.
    #[inline]
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Number of facts `|F|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the MO holds no facts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Reserves room for `additional` more facts.
    pub fn reserve(&mut self, additional: usize) {
        self.store.reserve(additional);
    }

    /// Iterates all fact ids.
    pub fn facts(&self) -> impl Iterator<Item = FactId> {
        (0..self.store.len() as u32).map(FactId)
    }

    /// Inserts a *user* fact: all coordinates must be bottom-category
    /// values (Section 3: "facts inserted by users are mapped to dimension
    /// values in bottom categories"), except `⊤` which is allowed to model
    /// an unknown value.
    ///
    /// # Errors
    /// [`MdmError::InvalidFact`] when a coordinate is at an intermediate
    /// category or the measure count is wrong.
    pub fn insert_fact(
        &mut self,
        coords: &[DimValue],
        measures: &[i64],
    ) -> Result<FactId, MdmError> {
        self.validate_shape(coords, measures)?;
        for (i, v) in coords.iter().enumerate() {
            let g = self.schema.dims[i].graph();
            if v.cat != g.bottom() && v.cat != g.top() {
                return Err(MdmError::InvalidFact(format!(
                    "user fact must map to bottom (or ⊤) in dimension `{}`, got `{}`",
                    self.schema.dims[i].name(),
                    g.name(v.cat)
                )));
            }
        }
        Ok(self.store.push(coords, measures, ORIGIN_USER))
    }

    /// Inserts a fact at an arbitrary granularity, tagging it with the
    /// reduction action that produced it. Used by the data-reduction
    /// machinery (Definition 2) — not by user ingest paths.
    pub fn insert_fact_at(
        &mut self,
        coords: &[DimValue],
        measures: &[i64],
        origin: u32,
    ) -> Result<FactId, MdmError> {
        self.validate_shape(coords, measures)?;
        Ok(self.store.push(coords, measures, origin))
    }

    fn validate_shape(&self, coords: &[DimValue], measures: &[i64]) -> Result<(), MdmError> {
        if coords.len() != self.schema.n_dims() {
            return Err(MdmError::InvalidFact(format!(
                "expected {} coordinates, got {}",
                self.schema.n_dims(),
                coords.len()
            )));
        }
        if measures.len() != self.schema.n_measures() {
            return Err(MdmError::InvalidFact(format!(
                "expected {} measures, got {}",
                self.schema.n_measures(),
                measures.len()
            )));
        }
        for (i, v) in coords.iter().enumerate() {
            let g = self.schema.dims[i].graph();
            if v.cat.index() >= g.len() {
                return Err(MdmError::InvalidFact(format!(
                    "coordinate {i} references unknown category {}",
                    v.cat
                )));
            }
        }
        Ok(())
    }

    /// The direct value of a fact in a dimension (its `R_i` entry).
    #[inline]
    pub fn value(&self, f: FactId, d: DimId) -> DimValue {
        self.store.value(f, d)
    }

    /// The measure value of a fact.
    #[inline]
    pub fn measure(&self, f: FactId, m: MeasureId) -> i64 {
        self.store.measure(f, m)
    }

    /// All coordinates of a fact.
    pub fn coords(&self, f: FactId) -> Vec<DimValue> {
        (0..self.schema.n_dims())
            .map(|i| self.store.value(f, DimId(i as u16)))
            .collect()
    }

    /// All coordinates of a fact, written into `out` (cleared first) —
    /// the allocation-free form of [`Mo::coords`] for row loops.
    pub fn coords_into(&self, f: FactId, out: &mut Vec<DimValue>) {
        out.clear();
        out.extend((0..self.schema.n_dims()).map(|i| self.store.value(f, DimId(i as u16))));
    }

    /// All measure values of a fact.
    pub fn measures_of(&self, f: FactId) -> Vec<i64> {
        (0..self.schema.n_measures())
            .map(|j| self.store.measure(f, MeasureId(j as u16)))
            .collect()
    }

    /// `Gran(f)` — the fact's current granularity (Equation 10).
    pub fn gran(&self, f: FactId) -> Granularity {
        Granularity(
            (0..self.schema.n_dims())
                .map(|i| self.store.value(f, DimId(i as u16)).cat)
                .collect(),
        )
    }

    /// Characterization `f ⤳ v` in dimension `d` (Section 3): true when
    /// the fact's direct value is contained in `v`.
    pub fn characterizes(&self, f: FactId, d: DimId, v: DimValue) -> bool {
        self.schema.dim(d).characterizes(self.store.value(f, d), v)
    }

    /// Creates an MO with the same schema and no facts.
    pub fn empty_like(&self) -> Mo {
        Mo::new(Arc::clone(&self.schema))
    }

    /// Columnar gather: an MO holding exactly the given rows of `self`, in
    /// order, with provenance preserved (see [`FactStore::gather`]).
    pub fn gather(&self, rows: &[u32]) -> Mo {
        Mo {
            schema: Arc::clone(&self.schema),
            store: self.store.gather(rows),
        }
    }

    /// Appends all facts of `other` (same schema required) into `self`.
    pub fn absorb(&mut self, other: &Mo) -> Result<(), MdmError> {
        self.absorb_rows(other, 0..other.len())
    }

    /// Appends rows `rows` of `other` (same schema required) into `self`,
    /// column by column after one shape check.
    pub fn absorb_rows(
        &mut self,
        other: &Mo,
        rows: std::ops::Range<usize>,
    ) -> Result<(), MdmError> {
        check_same_schema(&self.schema, &other.schema)?;
        self.store.extend_from(&other.store, rows);
        Ok(())
    }

    /// Renders one fact like the paper's figures:
    /// `fact(1999Q4, amazon.com | 2, 689, 3, 68000)`.
    pub fn render_fact(&self, f: FactId) -> String {
        let mut out = String::with_capacity(64);
        self.write_fact(&mut out, f)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes [`render_fact`](Mo::render_fact)'s text of `f` to `out`,
    /// field by field, with no intermediate `String`.
    fn write_fact(&self, out: &mut String, f: FactId) -> std::fmt::Result {
        use std::fmt::Write;
        out.push_str("fact(");
        for i in 0..self.schema.n_dims() {
            if i > 0 {
                out.push_str(", ");
            }
            let d = DimId(i as u16);
            self.schema
                .dim(d)
                .write_value(out, self.store.value(f, d))?;
        }
        out.push_str(" | ");
        for (j, col) in self.store.measures.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write!(out, "{}", col[f.index()])?;
        }
        out.push(')');
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::CatGraph;
    use crate::dimension::{Dimension, EnumDimensionBuilder};
    use crate::schema::{AggFn, MeasureDef};
    use crate::time::{cat as tcat, TimeDimension, TimeValue};

    fn tiny_schema() -> Arc<Schema> {
        let time = Dimension::Time(TimeDimension::new((1999, 1, 1), (2001, 12, 31)).unwrap());
        let g = CatGraph::new(
            vec!["url", "domain", "T"],
            &[("url", "domain"), ("domain", "T")],
        )
        .unwrap();
        let url = g.by_name("url").unwrap();
        let domain = g.by_name("domain").unwrap();
        let mut b = EnumDimensionBuilder::new("URL", g);
        b.add_value(domain, "cnn.com", &[]).unwrap();
        b.add_value(url, "a", &[(domain, "cnn.com")]).unwrap();
        b.add_value(url, "b", &[(domain, "cnn.com")]).unwrap();
        Schema::new(
            "Click",
            vec![time, Dimension::Enum(b.build().unwrap())],
            vec![
                MeasureDef::new("Number_of", AggFn::Count),
                MeasureDef::new("Dwell_time", AggFn::Sum),
            ],
        )
        .unwrap()
    }

    fn day(y: i32, m: u32, d: u32) -> DimValue {
        let v = TimeValue::Day(crate::calendar::days_from_civil(y, m, d));
        DimValue::new(tcat::DAY, v.code())
    }

    #[test]
    fn insert_and_read_back() {
        let s = tiny_schema();
        let mut mo = Mo::new(Arc::clone(&s));
        let url_dim = DimId(1);
        let Dimension::Enum(e) = s.dim(url_dim) else {
            unreachable!()
        };
        let urlcat = e.graph().by_name("url").unwrap();
        let a = e.value(urlcat, "a").unwrap();
        let f = mo.insert_fact(&[day(2000, 5, 7), a], &[1, 42]).unwrap();
        assert_eq!(mo.len(), 1);
        assert_eq!(mo.value(f, url_dim), a);
        assert_eq!(mo.measure(f, MeasureId(1)), 42);
        assert_eq!(mo.gran(f), s.bottom_granularity());
        assert_eq!(mo.store().origin[0], ORIGIN_USER);
    }

    #[test]
    fn user_insert_rejects_intermediate_categories() {
        let s = tiny_schema();
        let mut mo = Mo::new(Arc::clone(&s));
        let Dimension::Enum(e) = s.dim(DimId(1)) else {
            unreachable!()
        };
        let domain = e.graph().by_name("domain").unwrap();
        let cnn = e.value(domain, "cnn.com").unwrap();
        assert!(mo.insert_fact(&[day(2000, 5, 7), cnn], &[1, 42]).is_err());
        // But ⊤ is allowed (unknown value).
        let top = s.dim(DimId(1)).top_value();
        assert!(mo.insert_fact(&[day(2000, 5, 7), top], &[1, 42]).is_ok());
        // And insert_fact_at accepts intermediate categories.
        assert!(mo
            .insert_fact_at(&[day(2000, 5, 7), cnn], &[1, 42], 3)
            .is_ok());
        assert_eq!(mo.store().origin[0], ORIGIN_USER);
        assert_eq!(mo.store().origin[1], 3);
    }

    #[test]
    fn shape_validation() {
        let s = tiny_schema();
        let mut mo = Mo::new(s);
        assert!(mo.insert_fact(&[day(2000, 5, 7)], &[1, 42]).is_err());
        let top = mo.schema().dim(DimId(1)).top_value();
        assert!(mo.insert_fact(&[day(2000, 5, 7), top], &[1]).is_err());
    }

    #[test]
    fn characterization_through_fact() {
        let s = tiny_schema();
        let mut mo = Mo::new(Arc::clone(&s));
        let Dimension::Enum(e) = s.dim(DimId(1)) else {
            unreachable!()
        };
        let urlcat = e.graph().by_name("url").unwrap();
        let domain = e.graph().by_name("domain").unwrap();
        let a = e.value(urlcat, "a").unwrap();
        let cnn = e.value(domain, "cnn.com").unwrap();
        let f = mo.insert_fact(&[day(2000, 5, 7), a], &[1, 42]).unwrap();
        assert!(mo.characterizes(f, DimId(1), a));
        assert!(mo.characterizes(f, DimId(1), cnn));
        let month = DimValue::new(
            tcat::MONTH,
            TimeValue::Month {
                year: 2000,
                month: 5,
            }
            .code(),
        );
        assert!(mo.characterizes(f, DimId(0), month));
        let other_month = DimValue::new(
            tcat::MONTH,
            TimeValue::Month {
                year: 2000,
                month: 6,
            }
            .code(),
        );
        assert!(!mo.characterizes(f, DimId(0), other_month));
    }

    #[test]
    fn absorb_appends() {
        let s = tiny_schema();
        let mut a = Mo::new(Arc::clone(&s));
        let mut b = Mo::new(Arc::clone(&s));
        let top = s.dim(DimId(1)).top_value();
        a.insert_fact(&[day(2000, 1, 1), top], &[1, 10]).unwrap();
        b.insert_fact(&[day(2000, 1, 2), top], &[1, 20]).unwrap();
        a.absorb(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.measure(FactId(1), MeasureId(1)), 20);
    }

    #[test]
    fn absorb_equals_row_wise_insert_on_mixed_granularities() {
        let s = tiny_schema();
        let Dimension::Enum(e) = s.dim(DimId(1)) else {
            unreachable!()
        };
        let urlcat = e.graph().by_name("url").unwrap();
        let domain = e.graph().by_name("domain").unwrap();
        let month = DimValue::new(
            tcat::MONTH,
            TimeValue::Month {
                year: 2000,
                month: 5,
            }
            .code(),
        );
        // Bottom, intermediate and top values, user and action origins.
        let mut src = Mo::new(Arc::clone(&s));
        let a = e.value(urlcat, "a").unwrap();
        let cnn = e.value(domain, "cnn.com").unwrap();
        src.insert_fact(&[day(2000, 5, 7), a], &[1, 42]).unwrap();
        src.insert_fact_at(&[month, cnn], &[3, 99], 0).unwrap();
        src.insert_fact_at(&[s.dim(DimId(0)).top_value(), cnn], &[7, 5], 1)
            .unwrap();
        src.insert_fact(&[day(2001, 1, 1), s.dim(DimId(1)).top_value()], &[1, 0])
            .unwrap();
        let mut base = Mo::new(Arc::clone(&s));
        base.insert_fact(&[day(1999, 12, 31), a], &[1, 7]).unwrap();

        let mut columnar = base.clone();
        columnar.absorb(&src).unwrap();
        let mut row_wise = base.clone();
        for f in src.facts() {
            row_wise
                .insert_fact_at(
                    &src.coords(f),
                    &src.measures_of(f),
                    src.store().origin[f.index()],
                )
                .unwrap();
        }
        assert_eq!(columnar.len(), row_wise.len());
        assert_eq!(columnar.store().len(), 5);
        assert_eq!(columnar.store().cats, row_wise.store().cats);
        assert_eq!(columnar.store().codes, row_wise.store().codes);
        assert_eq!(columnar.store().measures, row_wise.store().measures);
        assert_eq!(columnar.store().origin, row_wise.store().origin);
        // `absorb_rows` is the same copy restricted to a row range.
        let mut mid = columnar.empty_like();
        mid.absorb_rows(&columnar, 1..4).unwrap();
        assert_eq!(mid.len(), 3);
        let mut buf = Vec::new();
        for (i, f) in mid.facts().enumerate() {
            mid.coords_into(f, &mut buf);
            assert_eq!(buf, columnar.coords(FactId(i as u32 + 1)));
        }
        assert_eq!(mid.store().origin, columnar.store().origin[1..4]);
    }

    #[test]
    fn from_columns_takes_whole_columns_and_validates_them() {
        let s = tiny_schema();
        let mut src = Mo::new(Arc::clone(&s));
        let top = s.dim(DimId(1)).top_value();
        src.insert_fact(&[day(2000, 1, 1), top], &[1, 10]).unwrap();
        src.insert_fact_at(&[s.dim(DimId(0)).top_value(), top], &[2, -5], 7)
            .unwrap();
        let FactStore {
            cats,
            codes,
            measures,
            origin,
            ..
        } = src.store().clone();
        let build =
            |cats: &Vec<Vec<u8>>, codes: &Vec<Vec<u64>>, ms: &Vec<Vec<i64>>, org: &[u32]| {
                Mo::from_columns(
                    Arc::clone(&s),
                    cats.clone(),
                    codes.clone(),
                    ms.clone(),
                    org.to_vec(),
                )
            };
        let back = build(&cats, &codes, &measures, &origin).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.coords(FactId(1)), src.coords(FactId(1)));
        assert_eq!(back.measures_of(FactId(1)), [2, -5]);
        assert_eq!(back.store().origin, [ORIGIN_USER, 7]);
        let empty = build(&vec![vec![]; 2], &vec![vec![]; 2], &vec![vec![]; 2], &[]).unwrap();
        assert!(empty.is_empty());

        let rejected = |r: Result<Mo, MdmError>, want: &str| {
            let err = r.expect_err(want).to_string();
            assert!(err.contains(want), "{err}");
        };
        // Shape: a missing dimension, a missing measure.
        rejected(
            build(&cats[..1].to_vec(), &codes, &measures, &origin),
            "coordinate columns",
        );
        rejected(
            build(&cats, &codes, &measures[..1].to_vec(), &origin),
            "measure columns",
        );
        // One column shorter than the rest, whichever it is.
        let mut short = codes.clone();
        short[1].pop();
        rejected(build(&cats, &short, &measures, &origin), "differ in length");
        rejected(
            build(&cats, &codes, &measures, &origin[..1]),
            "differ in length",
        );
        // A category index the dimension's graph does not define (URL has
        // three categories; Time has more).
        let mut foreign = cats.clone();
        foreign[1][0] = 3;
        rejected(
            build(&foreign, &codes, &measures, &origin),
            "unknown category",
        );
    }

    #[test]
    fn bytes_accounting_grows() {
        let s = tiny_schema();
        let mut mo = Mo::new(Arc::clone(&s));
        let before = mo.store().approx_bytes();
        let top = s.dim(DimId(1)).top_value();
        mo.insert_fact(&[day(2000, 1, 1), top], &[1, 10]).unwrap();
        assert!(mo.store().approx_bytes() > before);
    }
}
