//! Per-subcube statistics — the introspection substrate.
//!
//! Every published [`Subcube`](crate::manager::Subcube) carries a
//! [`SubcubeStats`]: row and byte counts, per-dimension distinct counts
//! and category histograms, and a min/max zone map over the packed cell
//! key (see [`sdr_mdm::KeyPacker`]). A cube's facts are a list of
//! immutable chunks, and the statistics are maintained at that grain:
//! each chunk is summarized once, when it is built
//! ([`ChunkSummary::compute`] — the only place rows are scanned), and a
//! cube's `SubcubeStats` is the [`fold`](ChunkSummary::fold) of its
//! chunks' summaries, derived on first use and carried with the cube
//! for as long as its chunk list is unchanged. A summary keeps the
//! per-dimension *sets* of distinct values rather than their sizes, so
//! the fold is exact: it is bit-identical to
//! [`SubcubeStats::compute`] over the concatenated rows (the chunk suite
//! checks this), [`verify`](crate::manager::WarehouseView::verify_stats)
//! re-derives it from every chunk's rows on demand, and recovery
//! re-checks it against the persisted copy in the checkpoint manifest.
//! A query judges each chunk by its distinct sets to skip the chunks it
//! cannot match.
//!
//! `specdr explain` uses the zone maps and row counts to annotate the
//! subcube DAG (which cubes a query scanned, which were skippable), so
//! the numbers here must be exact, not estimates.

use sdr_mdm::{CatId, DimId, DimValue, Dimension, KeyPacker, Mo, Schema, TimeValue, ORIGIN_USER};

use crate::error::SubcubeError;

/// Statistics for one dimension column of a subcube.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DimColStats {
    /// Number of distinct direct `(category, code)` values.
    pub distinct: u32,
    /// Rows per category id, sorted by category id — the value histogram
    /// at category granularity. Facts of a synchronized cube sit at one
    /// category per dimension; the bottom cube may mix several.
    pub per_cat: Vec<(u8, u64)>,
}

/// Exact, deterministic statistics of one subcube's fact snapshot.
///
/// Derived purely from the cube's columnar store (plus the epoch stamp),
/// so recomputing from identical facts yields a bit-identical value —
/// what the durability suite asserts across checkpoint, WAL replay, and
/// crash recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubcubeStats {
    /// Number of facts.
    pub rows: u64,
    /// Resident bytes of the columnar store (payload columns only).
    pub bytes: u64,
    /// Per-dimension column statistics (schema order).
    pub dims: Vec<DimColStats>,
    /// Zone map: smallest packed cell key, `None` when the cube is empty
    /// or the schema exceeds the 128-bit packing budget.
    pub key_min: Option<u128>,
    /// Zone map: largest packed cell key (see [`SubcubeStats::key_min`]).
    pub key_max: Option<u128>,
    /// The warehouse epoch at which the cube's facts were last replaced
    /// (mirrors `Subcube::epoch`).
    pub last_epoch: u64,
    /// Per-dimension bottom-footprint hull (schema order): the smallest
    /// interval covering the *bottom-category* footprint of every stored
    /// cell — day serials for time dimensions (a `⊤` cell covers the
    /// dimension horizon, matching the query comparison's footprint),
    /// interned bottom-value ids for enumerated dimensions. The age step
    /// skips a chunk whose time hull misses every window its transitions
    /// change. `None` means "no hull": the cube is empty, a value failed
    /// to resolve, or the stats predate format 3 — nothing may be
    /// skipped on that dimension.
    pub hulls: Vec<Option<(i64, i64)>>,
    /// Sorted distinct values of the origin column (the responsible
    /// [`sdr_spec::ActionId`] index per fact, `u32::MAX` for
    /// user-inserted rows). `None` when more than [`MAX_ORIGINS`]
    /// distinct origins occur (or the stats predate format 3).
    pub origins: Option<Vec<u32>>,
}

/// Cap on the distinct-origin set kept in [`SubcubeStats::origins`];
/// beyond it the set degrades to `None`.
pub const MAX_ORIGINS: usize = 64;

/// What one immutable chunk of a cube's facts contributes to the cube's
/// [`SubcubeStats`], in a form that folds exactly: the per-dimension
/// distinct values are kept as sorted sets, not as counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSummary {
    rows: u64,
    bytes: u64,
    /// Per dimension (schema order): the sorted distinct direct
    /// `(category, code)` values.
    distinct: Vec<Vec<(u8, u64)>>,
    /// Per dimension: rows per category id, sorted by category id.
    per_cat: Vec<Vec<(u8, u64)>>,
    key_min: Option<u128>,
    key_max: Option<u128>,
    hulls: Vec<Option<(i64, i64)>>,
    origins: Option<Vec<u32>>,
}

/// `values` as a sorted set (no spare capacity: summaries are kept for
/// as long as their chunk). The sort is stable, so input that is a few
/// sorted runs — the sets being folded — is merged rather than re-sorted.
fn sorted_set<T: Ord>(mut values: Vec<T>) -> Vec<T> {
    values.sort();
    values.dedup();
    values.shrink_to_fit();
    values
}

/// Calls `emit` once per distinct value of `values` — `n` values, all
/// within `lo..=hi` — in ascending order. They are marked in a bitset
/// over `lo..=hi` when it has fewer words than there are values (the
/// codes of one category lie within its domain, so a chunk's span is
/// usually a small multiple of its rows), and sorted otherwise.
fn each_distinct(
    values: impl Iterator<Item = u64>,
    n: u64,
    (lo, hi): (u64, u64),
    mut emit: impl FnMut(u64),
) {
    let words = (hi - lo) / 64 + 1;
    if words > n {
        let mut all: Vec<u64> = values.collect();
        all.sort_unstable();
        all.dedup();
        return all.into_iter().for_each(emit);
    }
    let mut bits = vec![0u64; words as usize];
    for v in values {
        let off = v - lo;
        bits[(off / 64) as usize] |= 1 << (off % 64);
    }
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            emit(lo + w as u64 * 64 + u64::from(word.trailing_zeros()));
            word &= word - 1;
        }
    }
}

/// Rows per category id from a dense count table.
fn per_cat_of(counts: &[u64; 256]) -> Vec<(u8, u64)> {
    (0u8..=255)
        .zip(counts)
        .filter(|&(_, &n)| n > 0)
        .map(|(c, &n)| (c, n))
        .collect()
}

/// Pairs keyed by category id, sorted: `(category, code)` values or
/// `(category, rows)` counts.
type CatPairs = Vec<(u8, u64)>;

/// One dimension column's sorted distinct `(category, code)` values
/// and its rows per category: one pass for each category's count and
/// code range, then one marking pass per category present (usually
/// one).
fn distinct_column(cats: &[u8], codes: &[u64]) -> (CatPairs, CatPairs) {
    // Sized for every row and shrunk once, as the sort's copy was: grown
    // by doubling instead, these sets raised the benchmark's peak RSS by
    // a fifth (the reallocations fragment the heap).
    let mut seen = Vec::with_capacity(cats.len());
    let Some(&first) = cats.first() else {
        return (seen, Vec::new());
    };
    if cats.iter().all(|&c| c == first) {
        // One category (a synchronized cube's column, or a load): its
        // count and code range in one vectorizable pass each.
        let range = codes
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let n = cats.len() as u64;
        each_distinct(codes.iter().copied(), n, range, |code| {
            seen.push((first, code))
        });
        seen.shrink_to_fit();
        return (seen, vec![(first, n)]);
    }
    let mut counts = [0u64; 256];
    let mut ranges = [(u64::MAX, 0u64); 256];
    for (&c, &code) in cats.iter().zip(codes) {
        let (n, (lo, hi)) = (&mut counts[c as usize], &mut ranges[c as usize]);
        *n += 1;
        (*lo, *hi) = ((*lo).min(code), (*hi).max(code));
    }
    let per_cat = per_cat_of(&counts);
    for &(c, n) in &per_cat {
        let of_cat = cats.iter().zip(codes).filter(move |(&x, _)| x == c);
        let codes = of_cat.map(|(_, &code)| code);
        each_distinct(codes, n, ranges[c as usize], |code| seen.push((c, code)));
    }
    seen.shrink_to_fit();
    (seen, per_cat)
}

/// The sorted distinct origins, or `None` beyond [`MAX_ORIGINS`]:
/// action ids are small, so they are marked like codes, and
/// [`ORIGIN_USER`] (the largest `u32`) goes last.
fn distinct_origins(origin: &[u32]) -> Option<Vec<u32>> {
    let actions = origin.iter().filter(|&&o| o != ORIGIN_USER);
    let (mut n, mut range) = (0u64, (u64::MAX, 0u64));
    for &o in actions.clone() {
        n += 1;
        range = (range.0.min(o.into()), range.1.max(o.into()));
    }
    let mut out = Vec::with_capacity(origin.len());
    if n > 0 {
        let values = actions.map(|&o| u64::from(o));
        each_distinct(values, n, range, |o| out.push(o as u32));
    }
    if n < origin.len() as u64 {
        out.push(ORIGIN_USER);
    }
    out.shrink_to_fit();
    (out.len() <= MAX_ORIGINS).then_some(out)
}

impl ChunkSummary {
    /// Summarizes `mo`'s rows — the one place fact rows are scanned for
    /// statistics. Each dimension's distinct values come out of a
    /// per-category bitset over the codes seen (`each_distinct`),
    /// not a sort of every row.
    pub fn compute(mo: &Mo) -> ChunkSummary {
        let store = mo.store();
        let n_dims = mo.schema().n_dims();
        let mut distinct = Vec::with_capacity(n_dims);
        let mut per_cat = Vec::with_capacity(n_dims);
        let mut hulls = Vec::with_capacity(n_dims);
        for d in 0..n_dims {
            let (seen, counts) = distinct_column(&store.cats[d], &store.codes[d]);
            hulls.push(dim_hull(mo.schema().dim(DimId(d as u16)), &seen));
            per_cat.push(counts);
            distinct.push(seen);
        }
        let keys = KeyPacker::new(mo.schema()).and_then(|pk| pk.key_range(store));
        ChunkSummary {
            rows: store.len() as u64,
            bytes: store.approx_bytes() as u64,
            distinct,
            per_cat,
            key_min: keys.map(|k| k.0),
            key_max: keys.map(|k| k.1),
            hulls,
            origins: distinct_origins(&store.origin),
        }
    }

    /// The summary of the concatenation of the summarized chunks, without
    /// looking at a row: counts add, zone maps widen, distinct sets and
    /// origin sets are united, and each hull is re-derived from the
    /// united set exactly as [`compute`](ChunkSummary::compute) derives
    /// it from rows.
    pub fn fold<'a>(
        schema: &Schema,
        parts: impl IntoIterator<Item = &'a ChunkSummary>,
    ) -> ChunkSummary {
        let parts: Vec<&ChunkSummary> = parts.into_iter().collect();
        let n_dims = schema.n_dims();
        let mut distinct = Vec::with_capacity(n_dims);
        let mut per_cat = Vec::with_capacity(n_dims);
        let mut hulls = Vec::with_capacity(n_dims);
        for d in 0..n_dims {
            let mut seen: Vec<(u8, u64)> = Vec::new();
            let mut counts = [0u64; 256];
            for p in &parts {
                seen.extend_from_slice(&p.distinct[d]);
                for &(c, n) in &p.per_cat[d] {
                    counts[c as usize] += n;
                }
            }
            let seen = sorted_set(seen);
            hulls.push(dim_hull(schema.dim(DimId(d as u16)), &seen));
            per_cat.push(per_cat_of(&counts));
            distinct.push(seen);
        }
        let origins = parts
            .iter()
            .map(|p| p.origins.as_deref())
            .collect::<Option<Vec<&[u32]>>>()
            .map(|sets| sorted_set(sets.concat()))
            .filter(|all| all.len() <= MAX_ORIGINS);
        ChunkSummary {
            rows: parts.iter().map(|p| p.rows).sum(),
            bytes: parts.iter().map(|p| p.bytes).sum(),
            distinct,
            per_cat,
            key_min: parts.iter().filter_map(|p| p.key_min).min(),
            key_max: parts.iter().filter_map(|p| p.key_max).max(),
            hulls,
            origins,
        }
    }

    /// Number of summarized rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The bottom-footprint hull of dimension `d` (see
    /// [`SubcubeStats::hulls`]).
    pub fn hull(&self, d: usize) -> Option<(i64, i64)> {
        self.hulls.get(d).copied().flatten()
    }

    /// Per dimension (schema order), the sorted distinct direct
    /// `(category, code)` values of the summarized rows — what a query's
    /// chunk verdict reads to skip the chunk.
    pub fn distinct(&self) -> &[Vec<(u8, u64)>] {
        &self.distinct
    }

    /// The zone map: the smallest and largest packed cell key of the
    /// summarized rows (`None` when empty or the schema does not pack).
    pub fn key_range(&self) -> Option<(u128, u128)> {
        self.key_min.zip(self.key_max)
    }

    /// The statistics of a cube made of exactly the summarized rows,
    /// stamped with the epoch at which those rows were published.
    pub fn into_stats(self, epoch: u64) -> SubcubeStats {
        SubcubeStats {
            rows: self.rows,
            bytes: self.bytes,
            dims: self
                .distinct
                .iter()
                .zip(self.per_cat)
                .map(|(seen, per_cat)| DimColStats {
                    distinct: seen.len() as u32,
                    per_cat,
                })
                .collect(),
            key_min: self.key_min,
            key_max: self.key_max,
            last_epoch: epoch,
            hulls: self.hulls,
            origins: self.origins,
        }
    }
}

impl SubcubeStats {
    /// Computes exact statistics of `mo`'s fact snapshot, stamped with
    /// the epoch at which that snapshot was published.
    pub fn compute(mo: &Mo, epoch: u64) -> SubcubeStats {
        ChunkSummary::compute(mo).into_stats(epoch)
    }

    /// A copy stripped to the format-2 fields (no hulls, no origins) —
    /// what a pre-format-3 checkpoint persisted. Recovery of old
    /// directories verifies persisted stats against this projection of a
    /// fresh recomputation.
    pub fn legacy_projection(&self) -> SubcubeStats {
        SubcubeStats {
            hulls: Vec::new(),
            origins: None,
            ..self.clone()
        }
    }

    /// Serializes into a manifest stats block (fixed little-endian
    /// layout; the enclosing manifest carries the CRC): the format-2
    /// fields, then the format-3 hull/origin block.
    pub(crate) fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.rows.to_le_bytes());
        b.extend_from_slice(&self.bytes.to_le_bytes());
        b.extend_from_slice(&self.last_epoch.to_le_bytes());
        b.push(self.key_min.is_some() as u8);
        b.extend_from_slice(&self.key_min.unwrap_or(0).to_le_bytes());
        b.extend_from_slice(&self.key_max.unwrap_or(0).to_le_bytes());
        b.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        for d in &self.dims {
            b.extend_from_slice(&d.distinct.to_le_bytes());
            b.extend_from_slice(&(d.per_cat.len() as u32).to_le_bytes());
            for (cat, rows) in &d.per_cat {
                b.push(*cat);
                b.extend_from_slice(&rows.to_le_bytes());
            }
        }
        b.extend_from_slice(&(self.hulls.len() as u32).to_le_bytes());
        for h in &self.hulls {
            b.push(h.is_some() as u8);
            let (lo, hi) = h.unwrap_or((0, 0));
            b.extend_from_slice(&lo.to_le_bytes());
            b.extend_from_slice(&hi.to_le_bytes());
        }
        match &self.origins {
            None => b.push(0),
            Some(os) => {
                b.push(1);
                b.extend_from_slice(&(os.len() as u32).to_le_bytes());
                for o in os {
                    b.extend_from_slice(&o.to_le_bytes());
                }
            }
        }
    }

    /// Decodes one stats block via the manifest's cursor-style reader.
    /// `extended` says whether the hull/origin block follows (manifest
    /// format ≥ 3); legacy blocks decode with empty hulls and no origin
    /// set.
    pub(crate) fn decode_from(
        take: &mut dyn FnMut(usize) -> Result<Vec<u8>, SubcubeError>,
        extended: bool,
    ) -> Result<SubcubeStats, SubcubeError> {
        let u64_at = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let rows = u64_at(&take(8)?);
        let bytes = u64_at(&take(8)?);
        let last_epoch = u64_at(&take(8)?);
        let has_keys = take(1)?[0] != 0;
        let key_min_raw = u128::from_le_bytes(take(16)?.as_slice().try_into().unwrap());
        let key_max_raw = u128::from_le_bytes(take(16)?.as_slice().try_into().unwrap());
        let n_dims = u32::from_le_bytes(take(4)?.as_slice().try_into().unwrap()) as usize;
        let mut dims = Vec::with_capacity(n_dims.min(256));
        for _ in 0..n_dims {
            let distinct = u32::from_le_bytes(take(4)?.as_slice().try_into().unwrap());
            let n_cats = u32::from_le_bytes(take(4)?.as_slice().try_into().unwrap()) as usize;
            let mut per_cat = Vec::with_capacity(n_cats.min(256));
            for _ in 0..n_cats {
                let cat = take(1)?[0];
                per_cat.push((cat, u64_at(&take(8)?)));
            }
            dims.push(DimColStats { distinct, per_cat });
        }
        let (mut hulls, mut origins) = (Vec::new(), None);
        if extended {
            let i64_at = |b: &[u8]| i64::from_le_bytes(b.try_into().unwrap());
            let n_hulls = u32::from_le_bytes(take(4)?.as_slice().try_into().unwrap()) as usize;
            hulls.reserve(n_hulls.min(256));
            for _ in 0..n_hulls {
                let present = take(1)?[0] != 0;
                let lo = i64_at(&take(8)?);
                let hi = i64_at(&take(8)?);
                hulls.push(present.then_some((lo, hi)));
            }
            if take(1)?[0] != 0 {
                let n = u32::from_le_bytes(take(4)?.as_slice().try_into().unwrap()) as usize;
                let mut os = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    os.push(u32::from_le_bytes(take(4)?.as_slice().try_into().unwrap()));
                }
                origins = Some(os);
            }
        }
        Ok(SubcubeStats {
            rows,
            bytes,
            dims,
            key_min: has_keys.then_some(key_min_raw),
            key_max: has_keys.then_some(key_max_raw),
            last_epoch,
            hulls,
            origins,
        })
    }

    /// The bottom-footprint hull of dimension `d`, if one was computed
    /// (see [`SubcubeStats::hulls`]).
    pub fn hull(&self, d: usize) -> Option<(i64, i64)> {
        self.hulls.get(d).copied().flatten()
    }
}

/// The bottom-footprint hull of one dimension column: the smallest
/// interval (in ground-set coordinates — day serials for time, interned
/// bottom ids for enums) containing the bottom footprint of every
/// distinct stored value. `None` when the column is empty or a value
/// fails to resolve, which a reader must take as "cannot skip".
fn dim_hull(dim: &Dimension, seen: &[(u8, u64)]) -> Option<(i64, i64)> {
    if seen.is_empty() {
        return None;
    }
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    match dim {
        Dimension::Time(t) => {
            for &(cat, code) in seen {
                let v = TimeValue::from_code(CatId(cat), code).ok()?;
                let (s, e) = match (v.start_day(), v.end_day()) {
                    (Some(s), Some(e)) => (s as i64, e as i64),
                    // ⊤ has no intrinsic extent; its query footprint is
                    // the dimension horizon (`compare::footprint`).
                    _ => (t.min_day as i64, t.max_day as i64),
                };
                lo = lo.min(s);
                hi = hi.max(e);
            }
        }
        Dimension::Enum(e) => {
            let bottom = e.graph().bottom();
            for &(cat, code) in seen {
                if CatId(cat) == bottom {
                    lo = lo.min(code as i64);
                    hi = hi.max(code as i64);
                    continue;
                }
                for b in e.drill_down(DimValue::new(CatId(cat), code), bottom).ok()? {
                    lo = lo.min(b.code as i64);
                    hi = hi.max(b.code as i64);
                }
            }
        }
    }
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdr_mdm::FactId;
    use sdr_workload::{paper_mo, paper_schema};

    /// The summary as it was computed before the linear pass: every
    /// row's `(cat, code)` sorted per dimension, and the origins sorted
    /// — the reference [`ChunkSummary::compute`] must equal.
    fn compute_by_sort(mo: &Mo) -> ChunkSummary {
        let store = mo.store();
        let n_dims = mo.schema().n_dims();
        let mut distinct = Vec::with_capacity(n_dims);
        let mut per_cat = Vec::with_capacity(n_dims);
        let mut hulls = Vec::with_capacity(n_dims);
        for d in 0..n_dims {
            let cats = &store.cats[d];
            let seen: Vec<(u8, u64)> = sorted_set(
                cats.iter()
                    .copied()
                    .zip(store.codes[d].iter().copied())
                    .collect(),
            );
            let mut counts = [0u64; 256];
            for &c in cats {
                counts[c as usize] += 1;
            }
            hulls.push(dim_hull(mo.schema().dim(DimId(d as u16)), &seen));
            per_cat.push(per_cat_of(&counts));
            distinct.push(seen);
        }
        let origins = sorted_set(store.origin.clone());
        let (mut key_min, mut key_max) = (None, None);
        if !store.is_empty() {
            if let Some(packer) = KeyPacker::new(mo.schema()) {
                let mut lo = u128::MAX;
                let mut hi = 0u128;
                for f in mo.facts() {
                    let k = packer.pack_row(store, f);
                    lo = lo.min(k);
                    hi = hi.max(k);
                }
                key_min = Some(lo);
                key_max = Some(hi);
            }
        }
        ChunkSummary {
            rows: store.len() as u64,
            bytes: store.approx_bytes() as u64,
            distinct,
            per_cat,
            key_min,
            key_max,
            hulls,
            origins: (origins.len() <= MAX_ORIGINS).then_some(origins),
        }
    }

    /// One random row of the paper schema: a day offset into the
    /// horizon (past its end: one of its two ends, chosen by the URL
    /// seed), the Time and URL categories to roll it up to (⊤
    /// included), a URL seed and an origin seed.
    type RowSeed = (u32, u8, u8, u32, u32);

    fn row_seed() -> impl Strategy<Value = RowSeed> {
        (0u32..2400, 0u8..8, 0u8..4, any::<u32>(), any::<u32>())
    }

    /// The rows `seeds` describe, over the paper schema; origins are
    /// drawn from `origins` action ids (and the user's), so more than
    /// [`MAX_ORIGINS`] of them can occur.
    fn chunk_of(seeds: &[RowSeed], origins: u32, descending: bool) -> Mo {
        let (schema, _) = paper_schema();
        let Dimension::Time(t) = schema.dim(DimId(0)) else {
            unreachable!("the paper's first dimension is Time")
        };
        let Dimension::Enum(url) = schema.dim(DimId(1)) else {
            unreachable!("the paper's second dimension is URL")
        };
        let time_cats: Vec<CatId> = schema.dims[0].graph().all().collect();
        let url_cats: Vec<CatId> = schema.dims[1].graph().all().collect();
        let mut rows: Vec<(Vec<DimValue>, u32)> = seeds
            .iter()
            .map(|&(day, tc, uc, u, o)| {
                let day = match t.min_day + day as i32 {
                    d if d <= t.max_day => d,
                    _ if u % 2 == 0 => t.min_day,
                    _ => t.max_day,
                };
                let tc = time_cats[tc as usize % time_cats.len()];
                let time = TimeValue::Day(day).rollup(tc).unwrap();
                let uc = url_cats[uc as usize % url_cats.len()];
                let code = u64::from(u) % url.cardinality(uc).max(1) as u64;
                let origin = match o % (origins + 1) {
                    0 => ORIGIN_USER,
                    o => o - 1,
                };
                let coords = vec![DimValue::new(tc, time.code()), DimValue::new(uc, code)];
                (coords, origin)
            })
            .collect();
        if descending {
            rows.sort_by(|a, b| b.cmp(a));
        }
        let mut mo = Mo::new(schema);
        for (coords, origin) in rows {
            let ms = vec![1; mo.schema().n_measures()];
            mo.insert_fact_at(&coords, &ms, origin).unwrap();
        }
        mo
    }

    proptest! {
        /// The linear summary equals the sorted one on random chunks:
        /// every Time and URL category (⊤ included), days at both ends
        /// of the horizon, rows in descending code order, one-row
        /// chunks, and more than `MAX_ORIGINS` origins.
        #[test]
        fn the_linear_summary_equals_the_sorted_one(
            seeds in collection::vec(row_seed(), 1..300),
            many_origins in any::<bool>(),
            descending in any::<bool>(),
            one in any::<bool>(),
        ) {
            let seeds = if one { &seeds[..1] } else { &seeds[..] };
            let origins = if many_origins { MAX_ORIGINS as u32 + 8 } else { 3 };
            let mo = chunk_of(seeds, origins, descending);
            prop_assert_eq!(ChunkSummary::compute(&mo), compute_by_sort(&mo));
        }
    }

    #[test]
    fn compute_is_exact_and_deterministic() {
        let (mo, _) = paper_mo();
        let s = SubcubeStats::compute(&mo, 7);
        assert_eq!(s.rows, mo.len() as u64);
        assert_eq!(s.bytes, mo.store().approx_bytes() as u64);
        assert_eq!(s.last_epoch, 7);
        assert_eq!(s.dims.len(), mo.schema().n_dims());
        for d in &s.dims {
            // Histogram rows sum to the cube's row count.
            assert_eq!(d.per_cat.iter().map(|(_, r)| r).sum::<u64>(), s.rows);
            assert!(d.distinct >= d.per_cat.len() as u32);
        }
        // Zone map brackets every packed key.
        let p = KeyPacker::new(mo.schema()).unwrap();
        let (lo, hi) = (s.key_min.unwrap(), s.key_max.unwrap());
        for f in mo.facts() {
            let k = p.pack_row(mo.store(), f);
            assert!(lo <= k && k <= hi);
        }
        assert_eq!(SubcubeStats::compute(&mo, 7), s, "bit-identical recompute");
    }

    /// Rows `rows` of `mo` as their own MO (one chunk of a cut).
    fn slice(mo: &Mo, rows: std::ops::Range<usize>) -> Mo {
        let mut out = mo.empty_like();
        out.absorb_rows(mo, rows).unwrap();
        out
    }

    #[test]
    fn fold_of_chunk_summaries_equals_compute_over_the_concatenation() {
        let (mo, _) = paper_mo();
        let schema = mo.schema().clone();
        let want = SubcubeStats::compute(&mo, 5);
        // Every two-way cut, and one-row chunks.
        for cut in 0..=mo.len() {
            let parts =
                [slice(&mo, 0..cut), slice(&mo, cut..mo.len())].map(|p| ChunkSummary::compute(&p));
            assert_eq!(
                ChunkSummary::fold(&schema, &parts).into_stats(5),
                want,
                "cut at {cut}"
            );
        }
        let rows: Vec<ChunkSummary> = (0..mo.len())
            .map(|i| ChunkSummary::compute(&slice(&mo, i..i + 1)))
            .collect();
        assert_eq!(ChunkSummary::fold(&schema, &rows).into_stats(5), want);
        // Folding nothing is the empty cube.
        assert_eq!(
            ChunkSummary::fold(&schema, []).into_stats(0),
            SubcubeStats::compute(&mo.empty_like(), 0)
        );
        // More than MAX_ORIGINS distinct origins across chunks degrade to
        // `None`, exactly as within one.
        let coords: Vec<_> = mo.coords(mo.facts().next().unwrap());
        let ms = vec![1; schema.n_measures()];
        let mut wide = mo.empty_like();
        for o in 0..(MAX_ORIGINS as u32 + 1) {
            wide.insert_fact_at(&coords, &ms, o).unwrap();
        }
        let halves =
            [slice(&wide, 0..40), slice(&wide, 40..wide.len())].map(|p| ChunkSummary::compute(&p));
        assert!(halves.iter().all(|h| h.origins.is_some()));
        assert_eq!(
            ChunkSummary::fold(&schema, &halves).into_stats(0),
            SubcubeStats::compute(&wide, 0)
        );
    }

    #[test]
    fn key_range_brackets_every_stored_cell() {
        let (mo, _) = paper_mo();
        let s = ChunkSummary::compute(&slice(&mo, 0..3));
        let packer = KeyPacker::new(mo.schema()).unwrap();
        let (lo, hi) = s.key_range().unwrap();
        let keys: Vec<u128> = (0..3)
            .map(|f| packer.pack_row(mo.store(), FactId(f)))
            .collect();
        assert_eq!(
            (lo, hi),
            (*keys.iter().min().unwrap(), *keys.iter().max().unwrap())
        );
        assert_eq!(ChunkSummary::compute(&mo.empty_like()).key_range(), None);
    }

    #[test]
    fn empty_mo_has_no_zone_map() {
        let (mo, _) = paper_mo();
        let s = SubcubeStats::compute(&mo.empty_like(), 0);
        assert_eq!(s.rows, 0);
        assert_eq!(s.key_min, None);
        assert_eq!(s.key_max, None);
    }

    #[test]
    fn codec_roundtrips() {
        let (mo, _) = paper_mo();
        for s in [
            SubcubeStats::compute(&mo, 3),
            SubcubeStats::compute(&mo.empty_like(), 0),
        ] {
            // The (format ≥ 3) round-trip is lossless.
            let mut b = Vec::new();
            s.encode_into(&mut b);
            let mut pos = 0usize;
            let mut take = |n: usize| -> Result<Vec<u8>, SubcubeError> {
                let out = b[pos..pos + n].to_vec();
                pos += n;
                Ok(out)
            };
            assert_eq!(SubcubeStats::decode_from(&mut take, true).unwrap(), s);
            assert_eq!(pos, b.len(), "decoder consumed the whole block");
            // A legacy (format 2) block is the same bytes without the
            // extension: decoding the prefix drops exactly that.
            let mut pos = 0usize;
            let mut take = |n: usize| -> Result<Vec<u8>, SubcubeError> {
                let out = b[pos..pos + n].to_vec();
                pos += n;
                Ok(out)
            };
            assert_eq!(
                SubcubeStats::decode_from(&mut take, false).unwrap(),
                s.legacy_projection()
            );
            let extension =
                4 + 17 * s.hulls.len() + 1 + s.origins.as_ref().map_or(0, |o| 4 + 4 * o.len());
            assert_eq!(pos + extension, b.len(), "the legacy block is a prefix");
        }
    }

    #[test]
    fn hulls_cover_every_fact_footprint() {
        let (mo, _) = paper_mo();
        let s = SubcubeStats::compute(&mo, 1);
        assert_eq!(s.hulls.len(), mo.schema().n_dims());
        let schema = mo.schema().clone();
        for d in 0..schema.n_dims() {
            let (lo, hi) = s.hull(d).expect("non-empty cube has a hull");
            let dim = schema.dim(sdr_mdm::DimId(d as u16));
            for f in mo.facts() {
                let cat = CatId(mo.store().cats[d][f.index()]);
                let code = mo.store().codes[d][f.index()];
                match dim {
                    Dimension::Time(t) => {
                        let v = TimeValue::from_code(cat, code).unwrap();
                        let (s0, e0) = match (v.start_day(), v.end_day()) {
                            (Some(a), Some(b)) => (a as i64, b as i64),
                            _ => (t.min_day as i64, t.max_day as i64),
                        };
                        assert!(lo <= s0 && e0 <= hi, "dim {d}: [{s0},{e0}] ⊄ [{lo},{hi}]");
                    }
                    Dimension::Enum(e) => {
                        let bottom = e.graph().bottom();
                        for b in e.drill_down(DimValue::new(cat, code), bottom).unwrap() {
                            let id = b.code as i64;
                            assert!(lo <= id && id <= hi, "dim {d}: id {id} ∉ [{lo},{hi}]");
                        }
                    }
                }
            }
        }
        // Empty cube: no hulls, empty (but present) origin set.
        let empty = SubcubeStats::compute(&mo.empty_like(), 0);
        assert!(empty.hulls.iter().all(Option::is_none));
        assert_eq!(empty.origins, Some(Vec::new()));
    }

    #[test]
    fn origins_collects_sorted_distinct_and_caps() {
        let (mo, _) = paper_mo();
        let s = SubcubeStats::compute(&mo, 1);
        let want: std::collections::BTreeSet<u32> = mo.store().origin.iter().copied().collect();
        assert_eq!(s.origins, Some(want.into_iter().collect::<Vec<u32>>()));
        // Synthesize > MAX_ORIGINS distinct origins → None.
        let mut wide = mo.empty_like();
        let coords: Vec<_> = mo.coords(mo.facts().next().unwrap());
        for o in 0..(MAX_ORIGINS as u32 + 1) {
            wide.insert_fact_at(&coords, &vec![1; mo.schema().n_measures()], o)
                .unwrap();
        }
        assert_eq!(SubcubeStats::compute(&wide, 0).origins, None);
    }
}
