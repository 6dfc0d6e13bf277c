//! Packed grouping keys and a fast hasher for the vectorized kernels.
//!
//! Grouping facts by their (direct or target) cell is the inner loop of
//! reduction, aggregate formation, and subcube synchronization. The naive
//! representation of a cell key — `Vec<DimValue>` — costs one heap
//! allocation per fact plus a lexicographic comparison per tree step.
//! [`KeyPacker`] instead packs every `(category, code)` pair of a cell
//! into a fixed-width integer (`u64` when the schema's value space fits
//! 64 bits, `u128` up to 128), so keys are `Copy`, hash in one or two
//! multiplies, and compare in one instruction.
//!
//! Packing is *injective* per schema — each dimension gets a bit field
//! wide enough for its largest category id and value code — and
//! *order-preserving*: every key uses the same fixed field widths, the
//! first dimension occupies the highest bits, and within a dimension the
//! category sits above the code, so integer comparison of packed keys is
//! exactly the lexicographic `Vec<DimValue>` comparison ([`DimValue`]'s
//! derived `Ord` is the `(cat, code)` ordering the reference
//! `BTreeMap<Vec<DimValue>, _>` keys sort by). Kernels that must emit
//! facts in the deterministic `BTreeMap` order of the row-at-a-time
//! reference implementations can therefore sort result groups by packed
//! key or by unpacked coordinates interchangeably.
//!
//! Schemas whose summed field widths exceed 128 bits (dozens of
//! dimensions, or astronomically wide codes) are rejected at construction
//! — [`KeyPacker::new`] returns `None` and callers fall back to the
//! original `Vec<DimValue>` path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{BitOr, Shl};

use crate::category::CatId;
use crate::dimension::DimValue;
use crate::mo::{FactId, FactStore};
use crate::schema::Schema;

/// An FxHash-style multiply-xor hasher (the rustc hash function): not
/// cryptographic, extremely cheap, and well-distributed for the dense
/// packed keys produced by [`KeyPacker`]. Vendored in-repo so the kernels
/// stay dependency-free.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier is `2^64 / φ` rounded to odd — the classic Fibonacci
/// hashing constant used by rustc's FxHash.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast in-repo [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A cell key packed by a [`KeyPacker`]: `u64` or `u128`. The kernels are
/// generic over this trait so narrow schemas pay only 64-bit hashing; a
/// key is the OR of its dimensions' [fields](KeyPacker::field), and
/// widens back losslessly for [`KeyPacker::unpack`].
pub trait PackedKey:
    Copy + Ord + Hash + Send + Sync + BitOr<Output = Self> + Into<u128> + 'static
{
    /// Truncates the packer's 128-bit accumulator to the key width (the
    /// packer guarantees the value fits when this key type is selected).
    fn from_wide(wide: u128) -> Self;
}

impl PackedKey for u64 {
    #[inline]
    fn from_wide(wide: u128) -> u64 {
        debug_assert_eq!(wide >> 64, 0, "key overflows u64");
        wide as u64
    }
}

impl PackedKey for u128 {
    #[inline]
    fn from_wide(wide: u128) -> u128 {
        wide
    }
}

/// Packs a cell's `(cat, code)` pairs into one fixed-width integer.
///
/// Field widths are computed from the schema alone (category-graph sizes
/// and maximum value codes), so one packer serves every cell — direct or
/// rolled-up — of any MO over the schema.
#[derive(Debug, Clone)]
pub struct KeyPacker {
    /// Per dimension: bits reserved for the category id and the code.
    widths: Vec<(u32, u32)>,
    /// Per dimension: how far its field sits above bit 0.
    shifts: Vec<u32>,
    total_bits: u32,
}

/// Bits needed to represent values `0..=max`.
#[inline]
fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

impl KeyPacker {
    /// Builds a packer for `schema`, or `None` when the summed field
    /// widths exceed 128 bits (callers then fall back to `Vec<DimValue>`
    /// keys).
    pub fn new(schema: &Schema) -> Option<KeyPacker> {
        let mut widths = Vec::with_capacity(schema.n_dims());
        let mut total = 0u32;
        for dim in &schema.dims {
            let cat_bits = bits_for(dim.graph().len().saturating_sub(1) as u64);
            let code_bits = bits_for(dim.max_code());
            total += cat_bits + code_bits;
            widths.push((cat_bits, code_bits));
        }
        // The first dimension occupies the highest bits.
        let mut below = total;
        let shifts = widths
            .iter()
            .map(|&(cat_bits, code_bits)| {
                below -= cat_bits + code_bits;
                below
            })
            .collect();
        (total <= 128).then_some(KeyPacker {
            widths,
            shifts,
            total_bits: total,
        })
    }

    /// True when every key fits a `u64` (kernels then use the narrow
    /// instantiation).
    #[inline]
    pub fn fits64(&self) -> bool {
        self.total_bits <= 64
    }

    /// Total packed width in bits.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Packs explicit coordinates (one value per dimension).
    #[inline]
    pub fn pack_coords(&self, coords: &[DimValue]) -> u128 {
        debug_assert_eq!(coords.len(), self.widths.len());
        let mut acc = 0u128;
        for (v, &(cat_bits, code_bits)) in coords.iter().zip(&self.widths) {
            acc = (acc << cat_bits) | v.cat.0 as u128;
            acc = (acc << code_bits) | v.code as u128;
        }
        acc
    }

    /// Dimension `d`'s field of a key whose coordinate there is `v`,
    /// already shifted into place: a key is the OR of its dimensions'
    /// fields, so a kernel can memoize fields per value and never pack a
    /// whole cell.
    #[inline]
    pub fn field(&self, d: usize, v: DimValue) -> u128 {
        let code_bits = self.widths[d].1;
        (((v.cat.0 as u128) << code_bits) | v.code as u128) << self.shifts[d]
    }

    /// The coordinates `key` packs, into `out` (cleared first): the
    /// inverse of [`pack_coords`](KeyPacker::pack_coords).
    pub fn unpack(&self, key: u128, out: &mut Vec<DimValue>) {
        let mask = |bits: u32| (1u128 << bits) - 1;
        out.clear();
        for (&(cat_bits, code_bits), &shift) in self.widths.iter().zip(&self.shifts) {
            let f = key >> shift;
            out.push(DimValue {
                cat: CatId(((f >> code_bits) & mask(cat_bits)) as u8),
                code: (f & mask(code_bits)) as u64,
            });
        }
    }

    /// The smallest and largest packed key of `store`'s rows (`None`
    /// when it is empty), computed column by column over runs of rows:
    /// each dimension's fields OR'd into one key per row, in 64 bits
    /// when the keys fit.
    pub fn key_range(&self, store: &FactStore) -> Option<(u128, u128)> {
        if store.is_empty() {
            return None;
        }
        if self.fits64() {
            let (lo, hi) = self.range_of::<u64>(store);
            Some((lo.into(), hi.into()))
        } else {
            Some(self.range_of::<u128>(store))
        }
    }

    fn range_of<K>(&self, store: &FactStore) -> (K, K)
    where
        K: PackedKey + Shl<u32, Output = K> + From<u8> + From<u64>,
    {
        const RUN: usize = 256;
        let mut keys = [K::from_wide(0); RUN];
        let mut range: Option<(K, K)> = None;
        for lo in (0..store.len()).step_by(RUN) {
            let rows = lo..store.len().min(lo + RUN);
            let keys = &mut keys[..rows.len()];
            keys.fill(K::from_wide(0));
            for (d, &(_, code_bits)) in self.widths.iter().enumerate() {
                let shift = self.shifts[d];
                let cells = store.cats[d][rows.clone()]
                    .iter()
                    .zip(&store.codes[d][rows.clone()]);
                for (k, (&cat, &code)) in keys.iter_mut().zip(cells) {
                    *k = *k | (((K::from(cat) << code_bits) | K::from(code)) << shift);
                }
            }
            let first = range.unwrap_or((keys[0], keys[0]));
            range = Some(
                keys.iter()
                    .fold(first, |(lo, hi), &k| (lo.min(k), hi.max(k))),
            );
        }
        range.expect("a non-empty store")
    }

    /// Packs the direct cell of row `f` straight from the columnar store
    /// (no `Vec<DimValue>` materialization).
    #[inline]
    pub fn pack_row(&self, store: &FactStore, f: FactId) -> u128 {
        let i = f.index();
        let mut acc = 0u128;
        for (d, &(cat_bits, code_bits)) in self.widths.iter().enumerate() {
            acc = (acc << cat_bits) | store.cats[d][i] as u128;
            acc = (acc << code_bits) | store.codes[d][i] as u128;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::CatGraph;
    use crate::dimension::{Dimension, EnumDimensionBuilder};
    use crate::schema::{AggFn, MeasureDef};
    use crate::time::TimeDimension;
    use std::sync::Arc;

    fn two_dim_schema() -> Arc<Schema> {
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
            vec![MeasureDef::new("n", AggFn::Count)],
        )
        .unwrap()
    }

    #[test]
    fn paper_like_schema_fits_u64() {
        let s = two_dim_schema();
        let p = KeyPacker::new(&s).expect("packs");
        // Time codes carry the 2^40 bias (~41 bits) + 3 cat bits; the URL
        // dimension needs a handful more — comfortably within 64.
        assert!(p.fits64(), "total bits = {}", p.total_bits());
    }

    #[test]
    fn packing_is_injective_on_distinct_cells() {
        let s = two_dim_schema();
        let p = KeyPacker::new(&s).expect("packs");
        let time = &s.dims[0];
        let url = &s.dims[1];
        let mut seen = std::collections::HashMap::new();
        let day0 = crate::calendar::days_from_civil(1999, 1, 1);
        for d in 0..40 {
            let tv = crate::time::TimeValue::Day(day0 + d);
            for cat in time.graph().all() {
                let t = DimValue::new(cat, tv.rollup(cat).map(|x| x.code()).unwrap_or(0));
                for ucat in url.graph().all() {
                    let uv = DimValue::new(ucat, 0);
                    let coords = vec![t, uv];
                    let key = p.pack_coords(&coords);
                    if let Some(prev) = seen.insert(key, coords.clone()) {
                        assert_eq!(prev, coords, "collision on {key:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_row_matches_pack_coords() {
        let s = two_dim_schema();
        let p = KeyPacker::new(&s).expect("packs");
        let mut mo = crate::mo::Mo::new(Arc::clone(&s));
        let day = DimValue::new(
            crate::time::cat::DAY,
            crate::time::TimeValue::Day(crate::calendar::days_from_civil(2000, 3, 4)).code(),
        );
        let top = s.dims[1].top_value();
        mo.insert_fact(&[day, top], &[1]).unwrap();
        let f = FactId(0);
        assert_eq!(p.pack_row(mo.store(), f), p.pack_coords(&mo.coords(f)));
    }

    #[test]
    fn fields_or_into_the_key_and_unpack_inverts_it() {
        let s = two_dim_schema();
        let p = KeyPacker::new(&s).expect("packs");
        let day0 = crate::calendar::days_from_civil(1999, 1, 1);
        let mut out = Vec::new();
        for d in [0, 45, 700] {
            let tv = crate::time::TimeValue::Day(day0 + d);
            for cat in s.dims[0].graph().all() {
                let t = DimValue::new(cat, tv.rollup(cat).map(|x| x.code()).unwrap_or(0));
                for ucat in s.dims[1].graph().all() {
                    let coords = vec![t, DimValue::new(ucat, 0)];
                    let key = p.pack_coords(&coords);
                    assert_eq!(p.field(0, coords[0]) | p.field(1, coords[1]), key);
                    p.unpack(key, &mut out);
                    assert_eq!(out, coords);
                }
            }
        }
    }

    #[test]
    fn packing_is_order_preserving() {
        // The reduce merge sorts groups by packed key and relies on that
        // order equalling the lexicographic order of the coordinate
        // vectors (DimValue orders by (cat, code)). Verify on a sample of
        // cells spanning both dimensions and several categories.
        let s = two_dim_schema();
        let p = KeyPacker::new(&s).expect("packs");
        let time = &s.dims[0];
        let url = &s.dims[1];
        let day0 = crate::calendar::days_from_civil(1999, 1, 1);
        let mut cells: Vec<Vec<DimValue>> = Vec::new();
        for d in [0, 3, 17, 100] {
            let tv = crate::time::TimeValue::Day(day0 + d);
            for cat in time.graph().all() {
                let t = DimValue::new(cat, tv.rollup(cat).map(|x| x.code()).unwrap_or(0));
                for ucat in url.graph().all() {
                    let n = match url {
                        Dimension::Enum(e) => e.cardinality(ucat).max(1),
                        Dimension::Time(_) => unreachable!(),
                    };
                    for code in 0..n {
                        cells.push(vec![t, DimValue::new(ucat, code as u64)]);
                    }
                }
            }
        }
        for a in &cells {
            for b in &cells {
                let (ka, kb) = (p.pack_coords(a), p.pack_coords(b));
                assert_eq!(
                    ka.cmp(&kb),
                    a.cmp(b),
                    "key order diverges on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn fx_hasher_is_stable_and_spreads() {
        let h = |k: u64| {
            let mut hs = FxHasher::default();
            k.hash(&mut hs);
            hs.finish()
        };
        assert_ne!(h(1), h(2));
        assert_eq!(h(42), h(42));
        // Byte-slice path agrees with itself across chunk boundaries.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }
}
