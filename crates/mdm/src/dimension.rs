//! Dimensions and dimension values (Section 3 of the paper).
//!
//! A dimension `D` of type `T` is a set of categories (one per category
//! type) with a containment partial order `≤_D` on the union of their
//! values. Two kinds are provided:
//!
//! * [`EnumDimension`] — explicitly enumerated values with roll-up tables
//!   (e.g. the paper's `URL` dimension: `url < domain < domain_grp < ⊤`);
//! * the calendar [`crate::time::TimeDimension`], wrapped by
//!   [`Dimension::Time`], whose values are computed rather than stored.
//!
//! Both present the same interface through [`Dimension`], and values of
//! either kind are carried uniformly as [`DimValue`] (a category id plus a
//! `u64` code) so fact stores can stay columnar.

use std::collections::HashMap;

use crate::category::{CatGraph, CatId};
use crate::error::MdmError;
use crate::time::{TimeDimension, TimeValue};

/// Index of a dimension within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimId(pub u16);

impl DimId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dimension value: its category plus an order-preserving `u64` code.
///
/// For enumerated dimensions the code is the interned value id; for the
/// time dimension it is the packed [`TimeValue`]. Codes are only meaningful
/// together with the owning dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimValue {
    /// Category the value belongs to.
    pub cat: CatId,
    /// Packed value code (order-preserving within `cat`).
    pub code: u64,
}

impl DimValue {
    /// Convenience constructor.
    #[inline]
    pub fn new(cat: CatId, code: u64) -> Self {
        DimValue { cat, code }
    }
}

/// An explicitly enumerated dimension (e.g. `URL`).
///
/// Values are interned strings per category; roll-up tables are built from
/// the immediate `(child value → parent value)` mappings supplied at
/// construction and composed transitively for every comparable category
/// pair, so `rollup` is an O(1) array lookup.
#[derive(Debug, Clone)]
pub struct EnumDimension {
    name: String,
    graph: CatGraph,
    /// Value labels per category, in interned-id order.
    labels: Vec<Vec<String>>,
    /// Label → id per category.
    index: Vec<HashMap<String, u32>>,
    /// `rollup[child_cat][anc_cat]` (flattened): per child value id, the
    /// ancestor value id. Only present for `child <_T anc`.
    rollup: HashMap<(CatId, CatId), Vec<u32>>,
    /// Inverse of `rollup`: children per ancestor value.
    children: HashMap<(CatId, CatId), Vec<Vec<u32>>>,
}

/// Builder for [`EnumDimension`].
///
/// Add values bottom-up with [`EnumDimensionBuilder::add_value`] giving the
/// parent value in each immediate ancestor category; the top category's
/// single `⊤` value is created automatically.
pub struct EnumDimensionBuilder {
    name: String,
    graph: CatGraph,
    labels: Vec<Vec<String>>,
    index: Vec<HashMap<String, u32>>,
    /// Immediate parent id per (cat, value) for each immediate edge.
    imm: HashMap<(CatId, CatId), Vec<u32>>,
}

impl EnumDimensionBuilder {
    /// Starts a dimension with the given category graph.
    pub fn new(name: impl Into<String>, graph: CatGraph) -> Self {
        let n = graph.len();
        let mut b = Self {
            name: name.into(),
            graph,
            labels: vec![Vec::new(); n],
            index: vec![HashMap::new(); n],
            imm: HashMap::new(),
        };
        // The ⊤ category holds exactly one value.
        let top = b.graph.top();
        b.labels[top.index()].push("⊤".to_string());
        b.index[top.index()].insert("⊤".to_string(), 0);
        b
    }

    /// Interns `label` into `cat` (idempotent) and returns its id.
    pub fn intern(&mut self, cat: CatId, label: &str) -> u32 {
        if let Some(&id) = self.index[cat.index()].get(label) {
            return id;
        }
        let id = self.labels[cat.index()].len() as u32;
        self.labels[cat.index()].push(label.to_string());
        self.index[cat.index()].insert(label.to_string(), id);
        id
    }

    /// Adds a value to `cat` with the given `(ancestor category, ancestor
    /// label)` links; the links must cover every immediate ancestor of
    /// `cat` (except ⊤, which is implied).
    ///
    /// # Errors
    /// [`MdmError::InvalidCategoryGraph`] if a link names a category that is
    /// not an immediate ancestor, or a required link is missing.
    pub fn add_value(
        &mut self,
        cat: CatId,
        label: &str,
        parents: &[(CatId, &str)],
    ) -> Result<u32, MdmError> {
        let id = self.intern(cat, label);
        let anc: Vec<CatId> = self.graph.anc(cat).to_vec();
        for &(pc, plabel) in parents {
            if !anc.contains(&pc) {
                return Err(MdmError::InvalidCategoryGraph(format!(
                    "`{}` is not an immediate ancestor of `{}`",
                    self.graph.name(pc),
                    self.graph.name(cat)
                )));
            }
            let pid = self.intern(pc, plabel);
            let v = self.imm.entry((cat, pc)).or_default();
            if v.len() <= id as usize {
                v.resize(id as usize + 1, u32::MAX);
            }
            if v[id as usize] != u32::MAX && v[id as usize] != pid {
                return Err(MdmError::InconsistentRollup(format!(
                    "value `{label}` mapped to two parents in `{}`",
                    self.graph.name(pc)
                )));
            }
            v[id as usize] = pid;
        }
        for a in anc {
            if a == self.graph.top() {
                continue; // implied
            }
            let ok = self
                .imm
                .get(&(cat, a))
                .is_some_and(|v| v.get(id as usize).copied().unwrap_or(u32::MAX) != u32::MAX);
            if !ok {
                return Err(MdmError::InvalidFact(format!(
                    "value `{label}` missing parent in `{}`",
                    self.graph.name(a)
                )));
            }
        }
        Ok(id)
    }

    /// Finishes the dimension: completes ⊤ links, composes transitive
    /// roll-up tables, and checks consistency across parallel paths.
    pub fn build(mut self) -> Result<EnumDimension, MdmError> {
        let top = self.graph.top();
        // Every category rolls to ⊤ value 0.
        for c in self.graph.all() {
            if c == top {
                continue;
            }
            if self.graph.anc(c).contains(&top) {
                let n = self.labels[c.index()].len();
                self.imm.insert((c, top), vec![0; n]);
            }
        }
        // Categories that hold no values yet still need (empty) tables for
        // each immediate edge so the transitive closure covers every
        // comparable category pair.
        for &(c, p) in self.graph.immediate_edges() {
            self.imm
                .entry((c, p))
                .or_insert_with(|| vec![u32::MAX; self.labels[c.index()].len()]);
        }
        // Compose full roll-up tables by BFS over immediate edges.
        let mut rollup: HashMap<(CatId, CatId), Vec<u32>> = HashMap::new();
        for c in self.graph.all() {
            // identity
            let n = self.labels[c.index()].len();
            rollup.insert((c, c), (0..n as u32).collect());
        }
        // Relax in topological-ish fashion: repeat until fixpoint (graphs
        // are tiny).
        let mut changed = true;
        while changed {
            changed = false;
            for (&(c, p), tbl) in self.imm.clone().iter() {
                // c→p known immediately; extend with p→q.
                for q in self.graph.all() {
                    if !self.graph.lt(p, q) && p != q {
                        continue;
                    }
                    let Some(up) = rollup.get(&(p, q)).cloned() else {
                        continue;
                    };
                    let composed: Vec<u32> = tbl
                        .iter()
                        .map(|&pid| {
                            if pid == u32::MAX {
                                u32::MAX
                            } else {
                                up[pid as usize]
                            }
                        })
                        .collect();
                    match rollup.get(&(c, q)) {
                        None => {
                            rollup.insert((c, q), composed);
                            changed = true;
                        }
                        Some(existing) => {
                            if existing != &composed {
                                return Err(MdmError::InconsistentRollup(format!(
                                    "paths from `{}` to `{}` disagree",
                                    self.graph.name(c),
                                    self.graph.name(q)
                                )));
                            }
                        }
                    }
                }
            }
        }
        // Every comparable pair must have a table.
        for a in self.graph.all() {
            for b in self.graph.all() {
                if self.graph.lt(a, b) && !rollup.contains_key(&(a, b)) {
                    return Err(MdmError::InvalidCategoryGraph(format!(
                        "no roll-up path from `{}` to `{}`",
                        self.graph.name(a),
                        self.graph.name(b)
                    )));
                }
            }
        }
        // Invert for drill-down.
        let mut children: HashMap<(CatId, CatId), Vec<Vec<u32>>> = HashMap::new();
        for (&(c, p), tbl) in &rollup {
            if c == p {
                continue;
            }
            let mut inv = vec![Vec::new(); self.labels[p.index()].len()];
            for (cid, &pid) in tbl.iter().enumerate() {
                if pid != u32::MAX {
                    inv[pid as usize].push(cid as u32);
                }
            }
            children.insert((p, c), inv);
        }
        Ok(EnumDimension {
            name: self.name,
            graph: self.graph,
            labels: self.labels,
            index: self.index,
            rollup,
            children,
        })
    }
}

impl EnumDimension {
    /// The dimension name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The category graph.
    pub fn graph(&self) -> &CatGraph {
        &self.graph
    }

    /// Number of values in `cat`.
    pub fn cardinality(&self, cat: CatId) -> usize {
        self.labels[cat.index()].len()
    }

    /// The label of a value.
    pub fn label(&self, v: DimValue) -> &str {
        &self.labels[v.cat.index()][v.code as usize]
    }

    /// Resolves a label within a category.
    pub fn value(&self, cat: CatId, label: &str) -> Result<DimValue, MdmError> {
        self.index[cat.index()]
            .get(label)
            .map(|&id| DimValue::new(cat, id as u64))
            .ok_or_else(|| {
                MdmError::ValueParse(format!(
                    "`{label}` is not a value of {}.{}",
                    self.name,
                    self.graph.name(cat)
                ))
            })
    }

    /// Rolls `v` up to `target` (`cat(v) ≤_T target` required).
    pub fn rollup(&self, v: DimValue, target: CatId) -> Result<DimValue, MdmError> {
        if v.cat == target {
            return Ok(v);
        }
        let tbl = self.rollup.get(&(v.cat, target)).ok_or_else(|| {
            MdmError::NotComparable(
                self.graph.name(v.cat).into(),
                self.graph.name(target).into(),
            )
        })?;
        let pid = tbl[v.code as usize];
        if pid == u32::MAX {
            return Err(MdmError::InvalidFact(format!(
                "value `{}` has no ancestor in `{}`",
                self.label(v),
                self.graph.name(target)
            )));
        }
        Ok(DimValue::new(target, pid as u64))
    }

    /// Drill-down: values of `to ≤_T cat(v)` contained in `v`.
    pub fn drill_down(&self, v: DimValue, to: CatId) -> Result<Vec<DimValue>, MdmError> {
        if v.cat == to {
            return Ok(vec![v]);
        }
        let inv = self.children.get(&(v.cat, to)).ok_or_else(|| {
            MdmError::NotComparable(self.graph.name(to).into(), self.graph.name(v.cat).into())
        })?;
        Ok(inv[v.code as usize]
            .iter()
            .map(|&id| DimValue::new(to, id as u64))
            .collect())
    }

    /// All values of a category.
    pub fn values(&self, cat: CatId) -> impl Iterator<Item = DimValue> + '_ {
        (0..self.labels[cat.index()].len() as u64).map(move |c| DimValue::new(cat, c))
    }
}

/// A dimension: either a calendar time dimension or an enumerated one.
#[derive(Debug, Clone)]
pub enum Dimension {
    /// The calendar time dimension.
    Time(TimeDimension),
    /// An enumerated dimension.
    Enum(EnumDimension),
}

impl Dimension {
    /// The dimension name (`Time` for calendar dimensions).
    pub fn name(&self) -> &str {
        match self {
            Dimension::Time(_) => "Time",
            Dimension::Enum(e) => e.name(),
        }
    }

    /// True for the calendar time dimension.
    pub fn is_time(&self) -> bool {
        matches!(self, Dimension::Time(_))
    }

    /// The category graph of the dimension type.
    pub fn graph(&self) -> &CatGraph {
        match self {
            Dimension::Time(t) => t.graph(),
            Dimension::Enum(e) => e.graph(),
        }
    }

    /// Rolls a value up to `target`.
    ///
    /// # Errors
    /// [`MdmError::NotComparable`] when `cat(v) ≰_T target` or the roll-up
    /// crosses parallel branches.
    pub fn rollup(&self, v: DimValue, target: CatId) -> Result<DimValue, MdmError> {
        match self {
            Dimension::Time(_) => {
                let tv = TimeValue::from_code(v.cat, v.code)?;
                let up = tv.rollup(target)?;
                Ok(DimValue::new(target, up.code()))
            }
            Dimension::Enum(e) => e.rollup(v, target),
        }
    }

    /// Characterization `f ⤳ v` restricted to values: true when the value
    /// `direct` (a fact's directly related value) is contained in `v`.
    pub fn characterizes(&self, direct: DimValue, v: DimValue) -> bool {
        if !self.graph().leq(direct.cat, v.cat) {
            return false;
        }
        self.rollup(direct, v.cat).map(|u| u == v).unwrap_or(false)
    }

    /// Drill-down to a finer category (`to ≤_T cat(v)`).
    pub fn drill_down(&self, v: DimValue, to: CatId) -> Result<Vec<DimValue>, MdmError> {
        match self {
            Dimension::Time(t) => {
                let tv = TimeValue::from_code(v.cat, v.code)?;
                Ok(t.drill_down(tv, to)?
                    .into_iter()
                    .map(|x| DimValue::new(to, x.code()))
                    .collect())
            }
            Dimension::Enum(e) => e.drill_down(v, to),
        }
    }

    /// Renders a value for display.
    pub fn render(&self, v: DimValue) -> String {
        let mut out = String::new();
        self.write_value(&mut out, v)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes [`render`](Dimension::render)'s text of `v` to `out`,
    /// without an intermediate `String`.
    pub fn write_value(&self, out: &mut impl std::fmt::Write, v: DimValue) -> std::fmt::Result {
        match self {
            Dimension::Time(_) => match TimeValue::from_code(v.cat, v.code) {
                Ok(t) => write!(out, "{t}"),
                Err(_) => write!(out, "?{}", v.code),
            },
            Dimension::Enum(e) => out.write_str(e.label(v)),
        }
    }

    /// Parses a value of category `cat` from the display form.
    pub fn parse_value(&self, cat: CatId, s: &str) -> Result<DimValue, MdmError> {
        match self {
            Dimension::Time(_) => {
                let tv = TimeValue::parse(cat, s)?;
                Ok(DimValue::new(cat, tv.code()))
            }
            Dimension::Enum(e) => e.value(cat, s),
        }
    }

    /// The largest value code any cell over this dimension can carry, at
    /// any category — the bound [`crate::pack::KeyPacker`] sizes its bit
    /// fields from. For enumerated dimensions this is the largest interned
    /// id; for the time dimension, the code of the horizon's last day
    /// rolled up to each category (codes are order-preserving per
    /// category, so the latest value has the largest code).
    pub fn max_code(&self) -> u64 {
        match self {
            Dimension::Time(t) => {
                let last = TimeValue::Day(t.max_day);
                self.graph()
                    .all()
                    .map(|c| {
                        if c == self.graph().top() {
                            TimeValue::Top.code()
                        } else {
                            last.rollup(c).map(|v| v.code()).unwrap_or(0)
                        }
                    })
                    .max()
                    .unwrap_or(0)
            }
            Dimension::Enum(e) => self
                .graph()
                .all()
                .map(|c| e.cardinality(c).saturating_sub(1) as u64)
                .max()
                .unwrap_or(0),
        }
    }

    /// The lowest value code a value of category `cat` can carry: `0` for
    /// enumerated dimensions (interned ids), and for the time dimension
    /// the code of the horizon's first day rolled up to `cat` (codes are
    /// order-preserving per category, so the earliest value has the
    /// lowest code).
    pub fn min_code(&self, cat: CatId) -> u64 {
        match self {
            Dimension::Time(_) if cat == self.graph().top() => TimeValue::Top.code(),
            Dimension::Time(t) => TimeValue::Day(t.min_day)
                .rollup(cat)
                .map_or(0, |v| v.code()),
            Dimension::Enum(_) => 0,
        }
    }

    /// The single `⊤` value of the dimension.
    pub fn top_value(&self) -> DimValue {
        match self {
            Dimension::Time(_) => DimValue::new(self.graph().top(), TimeValue::Top.code()),
            Dimension::Enum(_) => DimValue::new(self.graph().top(), 0),
        }
    }
}

/// A *subdimension* (Section 3): a dimension restricted to a subset of its
/// categories, with `≤_D'` the restriction of `≤_D`. Used by projection and
/// by the aggregate-formation result schema.
#[derive(Debug, Clone)]
pub struct SubDimension {
    /// The retained categories (always including the base top).
    pub cats: Vec<CatId>,
}

impl SubDimension {
    /// Builds a subdimension view keeping `cats`; the base dimension's top
    /// is always retained (the paper keeps `⊤` so every fact stays
    /// characterizable).
    pub fn new(base: &Dimension, mut cats: Vec<CatId>) -> Self {
        let top = base.graph().top();
        if !cats.contains(&top) {
            cats.push(top);
        }
        cats.sort();
        cats.dedup();
        SubDimension { cats }
    }

    /// True when `c` is retained.
    pub fn contains(&self, c: CatId) -> bool {
        self.cats.contains(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's URL dimension (Appendix A).
    pub fn url_dimension() -> EnumDimension {
        let g = CatGraph::new(
            vec!["url", "domain", "domain_grp", "T"],
            &[
                ("url", "domain"),
                ("domain", "domain_grp"),
                ("domain_grp", "T"),
            ],
        )
        .unwrap();
        let url = g.by_name("url").unwrap();
        let domain = g.by_name("domain").unwrap();
        let grp = g.by_name("domain_grp").unwrap();
        let mut b = EnumDimensionBuilder::new("URL", g);
        b.add_value(grp, ".com", &[]).unwrap();
        b.add_value(grp, ".edu", &[]).unwrap();
        b.add_value(domain, "gatech.edu", &[(grp, ".edu")]).unwrap();
        b.add_value(domain, "cnn.com", &[(grp, ".com")]).unwrap();
        b.add_value(domain, "amazon.com", &[(grp, ".com")]).unwrap();
        b.add_value(url, "http://www.cc.gatech.edu/", &[(domain, "gatech.edu")])
            .unwrap();
        b.add_value(url, "http://www.cnn.com/", &[(domain, "cnn.com")])
            .unwrap();
        b.add_value(url, "http://www.cnn.com/health", &[(domain, "cnn.com")])
            .unwrap();
        b.add_value(
            url,
            "http://www.amazon.com/exec/...",
            &[(domain, "amazon.com")],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rollup_and_drilldown() {
        let d = url_dimension();
        let g = d.graph().clone();
        let url = g.by_name("url").unwrap();
        let domain = g.by_name("domain").unwrap();
        let grp = g.by_name("domain_grp").unwrap();
        let health = d.value(url, "http://www.cnn.com/health").unwrap();
        let cnn = d.rollup(health, domain).unwrap();
        assert_eq!(d.label(cnn), "cnn.com");
        let com = d.rollup(health, grp).unwrap();
        assert_eq!(d.label(com), ".com");
        let top = d.rollup(health, g.top()).unwrap();
        assert_eq!(d.label(top), "⊤");
        let urls = d.drill_down(cnn, url).unwrap();
        assert_eq!(urls.len(), 2);
        let com_urls = d.drill_down(com, url).unwrap();
        assert_eq!(com_urls.len(), 3);
    }

    #[test]
    fn characterization() {
        let e = url_dimension();
        let g = e.graph().clone();
        let dim = Dimension::Enum(e);
        let url = g.by_name("url").unwrap();
        let grp = g.by_name("domain_grp").unwrap();
        let Dimension::Enum(ref e) = dim else {
            unreachable!()
        };
        let health = e.value(url, "http://www.cnn.com/health").unwrap();
        let com = e.value(grp, ".com").unwrap();
        let edu = e.value(grp, ".edu").unwrap();
        assert!(dim.characterizes(health, com));
        assert!(!dim.characterizes(health, edu));
        assert!(dim.characterizes(health, dim.top_value()));
        // A coarser value never characterizes a finer one.
        assert!(!dim.characterizes(com, health));
    }

    #[test]
    fn missing_parent_rejected() {
        let g = CatGraph::new(vec!["a", "b", "T"], &[("a", "b"), ("b", "T")]).unwrap();
        let a = g.by_name("a").unwrap();
        let mut b = EnumDimensionBuilder::new("X", g);
        assert!(b.add_value(a, "v", &[]).is_err());
    }

    #[test]
    fn inconsistent_parallel_paths_rejected() {
        // Diamond: a < b1 < t, a < b2 < t — but here top is shared so paths
        // to top must agree (they do, both map to ⊤ value 0). Make them
        // disagree at an intermediate shared level instead: a < b < c and
        // a < c directly with a different target.
        let g = CatGraph::new(
            vec!["a", "b", "c", "T"],
            &[("a", "b"), ("b", "c"), ("a", "c"), ("c", "T")],
        )
        .unwrap();
        let a = g.by_name("a").unwrap();
        let b_ = g.by_name("b").unwrap();
        let c = g.by_name("c").unwrap();
        let mut bld = EnumDimensionBuilder::new("X", g);
        bld.add_value(c, "c1", &[]).unwrap();
        bld.add_value(c, "c2", &[]).unwrap();
        bld.add_value(b_, "b1", &[(c, "c1")]).unwrap();
        // a1 goes to b1 (→ c1) but directly to c2: inconsistent.
        bld.add_value(a, "a1", &[(b_, "b1"), (c, "c2")]).unwrap();
        assert!(bld.build().is_err());
    }

    #[test]
    fn subdimension_keeps_top() {
        let e = url_dimension();
        let g = e.graph().clone();
        let dim = Dimension::Enum(e);
        let grp = g.by_name("domain_grp").unwrap();
        let sd = SubDimension::new(&dim, vec![grp]);
        assert!(sd.contains(grp));
        assert!(sd.contains(g.top()));
        assert_eq!(sd.cats.len(), 2);
    }
}
