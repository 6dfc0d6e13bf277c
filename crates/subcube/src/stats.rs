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
//! [`SubcubeStats::compute`] over the concatenated rows, an invariant
//! [`verify`](crate::manager::WarehouseView::verify_stats) re-checks on
//! demand and recovery re-checks against the persisted copy in the
//! checkpoint manifest.
//!
//! `specdr explain` uses the zone maps and row counts to annotate the
//! subcube DAG (which cubes a query scanned, which were skippable), so
//! the numbers here must be exact, not estimates.

use sdr_mdm::{CatId, DimId, DimValue, Dimension, KeyPacker, Mo, Schema, TimeValue};

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
    /// interned bottom-value ids for enumerated dimensions. The hull
    /// lives in the same coordinate space as the prover's ground sets
    /// (`DayInterval` / `BitSet`), so the planner can test an atom's
    /// ground set against it directly. `None` means "no hull": the cube
    /// is empty, a value failed to resolve, or the stats predate format
    /// 3 — the planner must not prune on that dimension.
    pub hulls: Vec<Option<(i64, i64)>>,
    /// Sorted distinct values of the origin column (the responsible
    /// [`sdr_spec::ActionId`] index per fact, `u32::MAX` for
    /// user-inserted rows). `None` when more than [`MAX_ORIGINS`]
    /// distinct origins occur (or the stats predate format 3) — the
    /// planner then skips origin-gated region pruning for this cube.
    pub origins: Option<Vec<u32>>,
}

/// Cap on the distinct-origin set kept in [`SubcubeStats::origins`];
/// beyond it the set degrades to `None` (planner: no region oracle).
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

/// Rows per category id from a dense count table.
fn per_cat_of(counts: &[u64; 256]) -> Vec<(u8, u64)> {
    (0u8..=255)
        .zip(counts)
        .filter(|&(_, &n)| n > 0)
        .map(|(c, &n)| (c, n))
        .collect()
}

impl ChunkSummary {
    /// Summarizes `mo`'s rows — the one place fact rows are scanned for
    /// statistics.
    pub fn compute(mo: &Mo) -> ChunkSummary {
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

    /// False only when no summarized row can sit at cell `coords`
    /// (packed as `key`, when the schema packs): the key lies outside
    /// the zone map or some coordinate is not among that dimension's
    /// distinct values.
    pub fn may_hold(&self, coords: &[DimValue], key: Option<u128>) -> bool {
        if let (Some(k), Some(lo), Some(hi)) = (key, self.key_min, self.key_max) {
            if k < lo || k > hi {
                return false;
            }
        }
        coords
            .iter()
            .zip(&self.distinct)
            .all(|(v, seen)| seen.binary_search(&(v.cat.0, v.code)).is_ok())
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
/// fails to resolve, which the planner must read as "cannot prune".
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
    use sdr_workload::paper_mo;

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
    fn may_hold_never_misses_a_stored_cell() {
        let (mo, _) = paper_mo();
        let s = ChunkSummary::compute(&slice(&mo, 0..3));
        let packer = KeyPacker::new(mo.schema()).unwrap();
        for f in mo.facts() {
            let coords = mo.coords(f);
            let held = f.index() < 3;
            let key = Some(packer.pack_coords(&coords));
            // Sound with and without a packed key; rows outside the
            // chunk may still be admitted (it is a filter, not an index).
            assert!(!held || s.may_hold(&coords, key), "{coords:?}");
            assert!(!held || s.may_hold(&coords, None), "{coords:?}");
            assert!(s.may_hold(&coords, None) || !s.may_hold(&coords, key));
        }
        let top: Vec<DimValue> = mo.schema().dims.iter().map(|d| d.top_value()).collect();
        assert!(!s.may_hold(&top, None), "no stored row sits at ⊤");
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
