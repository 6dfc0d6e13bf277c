//! The fact-table codec: [`Mo`] columns to `SDRFACT2` bytes and back.
//!
//! The paper stores each subcube as an ordinary star-schema fact table
//! (Section 7); in memory that table is an [`Mo`], and this module is its
//! byte form — what a checkpoint's cube file and a WAL bulk-load record
//! hold. Rows are cut into segments of [`DEFAULT_SEGMENT_ROWS`]; a
//! segment stores each column in the smallest [`ColumnEnc`] layout plus
//! the min/max packed cell key of its rows. [`table_stats`] gives the
//! storage-gain experiment byte-accurate numbers for raw vs. encoded
//! vs. reduced data.
//!
//! ```text
//! magic:u64le  n_dims:u32le  n_measures:u32le  n_segments:u32le
//! per segment: rows:u64le  zone:u8 [lo:u128le hi:u128le]   (zone: SDRFACT2 only)
//!              category column per dimension, code column per dimension,
//!              column per measure, origin column   (ColumnEnc::write)
//! ```

use std::ops::Range;
use std::sync::Arc;

use sdr_mdm::{CatId, FactId, FactStore, KeyPacker, Mo, Schema};

use crate::encode::{self, take, take_u32, take_u64, take_u8, ColumnEnc};
use crate::error::StorageError;

/// Rows per segment.
pub const DEFAULT_SEGMENT_ROWS: usize = 64 * 1024;

/// Format-1 file magic (`"SDRFACT1"`): plain/RLE/delta columns, no
/// segment zone maps. Still readable; never written anymore.
const MAGIC_V1: u64 = 0x5344_5246_4143_5431;

/// Format-2 file magic (`"SDRFACT2"`): adds dictionary/bit-packed
/// columns and a per-segment min/max zone map over the order-preserving
/// packed cell key ([`KeyPacker`]).
const MAGIC_V2: u64 = 0x5344_5246_4143_5432;

/// Storage size statistics of a fact table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Number of facts.
    pub rows: usize,
    /// Bytes in the plain (unencoded) columnar layout.
    pub raw_bytes: usize,
    /// Bytes of the encoded columns.
    pub encoded_bytes: usize,
}

/// Bytes `rows` facts over `schema` take in the plain columnar layout.
pub fn raw_bytes(schema: &Schema, rows: usize) -> usize {
    rows * (schema.n_dims() * 9 + schema.n_measures() * 8 + 4)
}

/// Rows `.1` of a store: one run of the rows a segment holds.
type Piece<'a> = (&'a FactStore, Range<usize>);

/// One column of a segment — each piece's slice of it, widened to `u64`
/// through `buf`.
fn column<'b, T: Copy>(
    pieces: &[Piece],
    buf: &'b mut Vec<u64>,
    of: impl Fn(&FactStore) -> &[T],
    widen: impl Fn(T) -> u64,
) -> &'b [u64] {
    buf.clear();
    for (store, rows) in pieces {
        buf.extend(of(store)[rows.clone()].iter().map(|&v| widen(v)));
    }
    buf
}

/// One segment: its columns in file order (categories, codes, measures,
/// origin), each with its encoded size, and built unless only sized.
struct Segment {
    rows: usize,
    /// Min/max packed key of the rows — `None` when the schema exceeds
    /// the 128-bit packing budget, or the segment was only sized.
    zone: Option<(u128, u128)>,
    cols: Vec<(usize, Option<ColumnEnc>)>,
}

impl Segment {
    /// Sizes the rows of `pieces` (of stores over one schema, in order)
    /// as one segment, and encodes them when `build` is set.
    fn seal(packer: Option<&KeyPacker>, pieces: &[Piece], build: bool) -> Segment {
        let span = sdr_obs::span("storage.encode");
        let rows = pieces.iter().map(|(_, r)| r.len()).sum();
        let buf = &mut Vec::with_capacity(rows);
        let (n_dims, n_measures) = (pieces[0].0.cats.len(), pieces[0].0.measures.len());
        let (mut cols, mut layouts) = (Vec::with_capacity(2 * n_dims + n_measures + 1), [0; 5]);
        let mut put = |values: &[u64]| {
            let (bytes, layout) = encode::smallest_layout(values);
            layouts[layout as usize] += 1;
            cols.push((bytes, build.then(|| layout.build(values))));
        };
        for d in 0..n_dims {
            put(column(pieces, buf, |s| s.cats[d].as_slice(), u64::from));
        }
        for d in 0..n_dims {
            put(column(pieces, buf, |s| s.codes[d].as_slice(), |c| c));
        }
        for j in 0..n_measures {
            put(column(
                pieces,
                buf,
                |s| s.measures[j].as_slice(),
                |m| m as u64,
            ));
        }
        put(column(pieces, buf, |s| s.origin.as_slice(), u64::from));
        let zone = packer.map(|p| {
            let keys = pieces
                .iter()
                .flat_map(|(s, r)| r.clone().map(|i| p.pack_row(s, FactId(i as u32))));
            keys.fold((u128::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)))
        });
        drop(span);
        let seg = Segment { rows, zone, cols };
        if sdr_obs::enabled() {
            sdr_obs::add("storage.rows_sealed", rows as u64);
            sdr_obs::add("storage.encoded_bytes", seg.encoded_bytes() as u64);
            sdr_obs::record("storage.segment_bytes", seg.encoded_bytes() as u64);
            for (name, n) in encode::LAYOUT_COUNTERS.into_iter().zip(layouts) {
                sdr_obs::add(name, n);
            }
        }
        seg
    }

    fn encoded_bytes(&self) -> usize {
        self.cols.iter().map(|(bytes, _)| bytes).sum()
    }
}

/// Cuts the concatenation of `parts` into segments of
/// [`DEFAULT_SEGMENT_ROWS`] rows (the last one shorter), across part
/// boundaries, and seals each — sized only, or `build` too.
fn seal<'a>(schema: &Schema, parts: impl IntoIterator<Item = &'a Mo>, build: bool) -> Vec<Segment> {
    let mut cuts: Vec<Vec<Piece>> = Vec::new();
    let mut room = 0;
    for part in parts {
        debug_assert_eq!(part.schema().n_dims(), schema.n_dims());
        debug_assert_eq!(part.schema().n_measures(), schema.n_measures());
        let mut lo = 0;
        while lo < part.len() {
            if room == 0 {
                cuts.push(Vec::new());
                room = DEFAULT_SEGMENT_ROWS;
            }
            let hi = part.len().min(lo + room);
            let cut = cuts.last_mut().expect("pushed when room ran out");
            cut.push((part.store(), lo..hi));
            room -= hi - lo;
            lo = hi;
        }
    }
    let packer = KeyPacker::new(schema).filter(|_| build);
    cuts.iter()
        .map(|pieces| Segment::seal(packer.as_ref(), pieces, build))
        .collect()
}

/// Storage statistics (raw vs. encoded bytes) of the facts of `parts` —
/// MOs over `schema`, read as one table in the order given — sized
/// without building any column. Like [`encode_facts`], the sizes depend
/// on the concatenated rows only.
pub fn table_stats<'a>(schema: &Schema, parts: impl IntoIterator<Item = &'a Mo>) -> TableStats {
    let parts: Vec<&Mo> = parts.into_iter().collect();
    let rows = parts.iter().map(|p| p.len()).sum();
    TableStats {
        rows,
        raw_bytes: raw_bytes(schema, rows),
        encoded_bytes: seal(schema, parts, false)
            .iter()
            .map(Segment::encoded_bytes)
            .sum(),
    }
}

/// Encodes the facts of `parts` — MOs over `schema`, read as one table
/// in the order given — in the current (`SDRFACT2`) layout. The bytes
/// depend on the concatenated rows only, not on where the parts divide
/// them.
pub fn encode_facts<'a>(schema: &Schema, parts: impl IntoIterator<Item = &'a Mo>) -> Vec<u8> {
    let segments = seal(schema, parts, true);
    let _span = sdr_obs::span("storage.serialize");
    let mut out = Vec::with_capacity(
        20 + segments
            .iter()
            .map(|s| 41 + s.encoded_bytes() + 9 * s.cols.len())
            .sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC_V2.to_le_bytes());
    out.extend_from_slice(&(schema.n_dims() as u32).to_le_bytes());
    out.extend_from_slice(&(schema.n_measures() as u32).to_le_bytes());
    out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for s in &segments {
        out.extend_from_slice(&(s.rows as u64).to_le_bytes());
        match s.zone {
            Some((lo, hi)) => {
                out.push(1);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            None => out.push(0),
        }
        for (_, c) in &s.cols {
            c.as_ref().expect("a built segment").write(&mut out);
        }
    }
    sdr_obs::add("storage.serialized_bytes", out.len() as u64);
    out
}

/// Decodes facts written by [`encode_facts`] (or by a format-1 build)
/// for the same schema.
///
/// # Errors
/// [`StorageError::Corrupt`] for bytes no writer produces — a bad magic,
/// a truncated or malformed column, a column whose value count is not
/// its segment's row count, anything after the last segment —
/// [`StorageError::SchemaMismatch`] for a
/// table of another shape, and [`StorageError::Model`] for a category
/// index the schema does not define. Never panics, and never allocates
/// more than a segment's rows ahead of the bytes that back them.
pub fn decode_facts(schema: &Arc<Schema>, mut buf: &[u8]) -> Result<Mo, StorageError> {
    let bad = |what: &str| StorageError::Corrupt(what.into());
    let cut = || bad("truncated or malformed table");
    let buf = &mut buf;
    let magic = take_u64(buf).ok_or_else(cut)?;
    if magic != MAGIC_V1 && magic != MAGIC_V2 {
        return Err(bad("bad magic"));
    }
    let n_dims = take_u32(buf).ok_or_else(cut)? as usize;
    let n_measures = take_u32(buf).ok_or_else(cut)? as usize;
    if n_dims != schema.n_dims() || n_measures != schema.n_measures() {
        return Err(StorageError::SchemaMismatch);
    }
    let n_segments = take_u32(buf).ok_or_else(cut)?;
    let mut cats: Vec<Vec<u8>> = vec![Vec::new(); n_dims];
    let mut codes: Vec<Vec<u64>> = vec![Vec::new(); n_dims];
    let mut measures: Vec<Vec<i64>> = vec![Vec::new(); n_measures];
    let mut origin: Vec<u32> = Vec::new();
    for _ in 0..n_segments {
        let rows = take_u64(buf).ok_or_else(cut)?;
        if rows > DEFAULT_SEGMENT_ROWS as u64 {
            return Err(bad("segment larger than any writer cuts"));
        }
        if magic == MAGIC_V2 {
            match take_u8(buf).ok_or_else(cut)? {
                0 => {}
                1 => {
                    let zone = take(buf, 32).ok_or_else(cut)?;
                    let key = |b: &[u8]| u128::from_le_bytes(b.try_into().expect("16 of 32"));
                    if key(&zone[..16]) > key(&zone[16..]) {
                        return Err(bad("segment zone map is inverted"));
                    }
                }
                _ => return Err(cut()),
            }
        }
        // The next column of this segment, decoded: its value count is
        // compared with the segment's before anything is expanded.
        let mut column = || {
            let c = ColumnEnc::read(buf).ok_or_else(cut)?;
            if c.len() as u64 != rows {
                return Err(bad("column length differs from its segment's row count"));
            }
            Ok(c.decode())
        };
        for col in &mut cats {
            for v in column()? {
                col.push(CatId::try_from_index(v)?.0);
            }
        }
        for col in &mut codes {
            col.append(&mut column()?);
        }
        for col in &mut measures {
            col.extend(column()?.into_iter().map(|m| m as i64));
        }
        for v in column()? {
            origin.push(u32::try_from(v).map_err(|_| bad("origin exceeds 32 bits"))?);
        }
    }
    if !buf.is_empty() {
        return Err(bad("bytes after the last segment"));
    }
    Ok(Mo::from_columns(
        Arc::clone(schema),
        cats,
        codes,
        measures,
        origin,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdr_workload::{generate, paper_mo, ClickstreamConfig};

    /// The paper MO as a format-1 build wrote it (segments of 4 rows,
    /// plain/RLE/delta columns), generated once at commit c168b26.
    const FORMAT1: &[u8] = include_bytes!("../../../tests/fixtures/paper_mo.sdrfact1");

    fn rows(mo: &Mo) -> Vec<String> {
        mo.facts().map(|f| mo.render_fact(f)).collect()
    }

    #[test]
    fn roundtrip_preserves_rows_and_zones_cover_them() {
        let (mo, _) = paper_mo();
        let bytes = encode_facts(mo.schema(), [&mo]);
        assert_eq!(&bytes[..8], &MAGIC_V2.to_le_bytes());
        let back = decode_facts(mo.schema(), &bytes).unwrap();
        assert_eq!(rows(&back), rows(&mo));
        assert_eq!(back.store().origin, mo.store().origin);
        let packer = KeyPacker::new(mo.schema()).unwrap();
        let segs = seal(mo.schema(), [&mo], true);
        assert_eq!(segs.len(), 1);
        let (lo, hi) = segs[0].zone.expect("packable schema → zone map");
        let keys: Vec<u128> = mo.facts().map(|f| packer.pack_row(mo.store(), f)).collect();
        assert_eq!(lo, *keys.iter().min().unwrap());
        assert_eq!(hi, *keys.iter().max().unwrap());
    }

    /// Summed `encoded_bytes` of every column `bytes` holds, read back
    /// the way `decode_facts` reads them.
    fn written_column_bytes(mut bytes: &[u8]) -> usize {
        let buf = &mut bytes;
        take(buf, 8).unwrap();
        let cols = 2 * take_u32(buf).unwrap() + take_u32(buf).unwrap() + 1;
        let mut total = 0;
        for _ in 0..take_u32(buf).unwrap() {
            take(buf, 8).unwrap();
            if take_u8(buf).unwrap() == 1 {
                take(buf, 32).unwrap();
            }
            for _ in 0..cols {
                total += ColumnEnc::read(buf).unwrap().encoded_bytes();
            }
        }
        assert!(buf.is_empty());
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// `table_stats` builds no column, yet its byte count is exactly
        /// what `encode_facts` writes for the columns of the same rows —
        /// in click order or shuffled, across segment boundaries.
        #[test]
        fn stats_size_the_columns_encode_writes(
            len in 0usize..100_000,
            shuffled in any::<bool>(),
            seed in any::<u64>(),
        ) {
            static CLICKS: std::sync::OnceLock<Mo> = std::sync::OnceLock::new();
            let clicks = CLICKS.get_or_init(|| {
                generate(&ClickstreamConfig {
                    clicks_per_day: 200,
                    start: (1999, 1, 1),
                    end: (1999, 3, 31),
                    ..Default::default()
                })
                .mo
            });
            let mut rng = TestRng::for_test(&seed.to_string());
            let n = clicks.len() as u64;
            let rows: Vec<u32> = (0..len as u64)
                .map(|i| if shuffled { rng.below(n) } else { i * n / len as u64 } as u32)
                .collect();
            let mo = clicks.gather(&rows);
            let stats = table_stats(mo.schema(), [&mo]);
            let bytes = encode_facts(mo.schema(), [&mo]);
            prop_assert_eq!(stats.encoded_bytes, written_column_bytes(&bytes));
        }
    }

    #[test]
    fn legacy_format1_files_still_load() {
        let (mo, _) = paper_mo();
        assert_eq!(&FORMAT1[..8], &MAGIC_V1.to_le_bytes());
        let loaded = decode_facts(mo.schema(), FORMAT1).unwrap();
        assert_eq!(rows(&loaded), rows(&mo));
        // Re-encoding what a legacy file held upgrades it to format 2:
        // the bytes are those of the MO itself.
        let upgraded = encode_facts(mo.schema(), [&loaded]);
        assert_eq!(upgraded, encode_facts(mo.schema(), [&mo]));
        assert_eq!(
            rows(&decode_facts(mo.schema(), &upgraded).unwrap()),
            rows(&mo)
        );
    }

    #[test]
    fn empty_table() {
        let (mo, _) = paper_mo();
        let empty = mo.empty_like();
        assert_eq!(table_stats(empty.schema(), [&empty]), TableStats::default());
        let bytes = encode_facts(mo.schema(), [&empty]);
        assert_eq!(bytes.len(), 20, "header only: no segment for no rows");
        assert_eq!(bytes, encode_facts(mo.schema(), []));
        assert!(decode_facts(mo.schema(), &bytes).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_garbage_and_foreign_shapes() {
        let (mo, _) = paper_mo();
        let schema = mo.schema();
        let corrupt = |b: &[u8]| matches!(decode_facts(schema, b), Err(StorageError::Corrupt(_)));
        assert!(corrupt(&[]));
        assert!(corrupt(&[0u8; 64]));
        let full = encode_facts(schema, [&mo]);
        for cut in [5, 19, 21, full.len() / 2, full.len() - 5] {
            assert!(corrupt(&full[..cut]), "cut at {cut}");
        }
        assert!(corrupt(&[&full[..], &[0]].concat()), "one byte too many");
        let mut wide = full.clone();
        wide[8] += 1;
        assert!(matches!(
            decode_facts(schema, &wide),
            Err(StorageError::SchemaMismatch)
        ));
    }

    /// A category index the `u8` columns cannot hold, or one the
    /// dimension's graph does not define, is refused — truncating it
    /// would silently alias a different category.
    #[test]
    fn decode_rejects_category_index_outside_the_graph() {
        let (mo, _) = paper_mo();
        let one = mo.gather(&[0]);
        let good = encode_facts(mo.schema(), [&one]);
        // The first column (dimension 0's category) follows the 20-byte
        // header, the 8-byte row count and the 33-byte zone map. For one
        // row it is plain: tag, count, value.
        let at = 20 + 8 + 33;
        assert_eq!(good[at], 0, "plain column");
        let cat = mo.store().cats[0][0] as u64;
        assert_eq!(good[at + 9..at + 17], cat.to_le_bytes());
        for (index, want) in [(256u64, "256"), (u8::MAX as u64, "unknown category")] {
            let mut forged = good.clone();
            forged[at + 9..at + 17].copy_from_slice(&index.to_le_bytes());
            let err = decode_facts(mo.schema(), &forged).expect_err("foreign category index");
            assert!(matches!(err, StorageError::Model(_)), "{err:?}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }
}
