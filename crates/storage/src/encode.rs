//! Column encodings for fact segments.
//!
//! A segment encodes each column with the smallest of
//! plain, run-length, delta (zigzag-varint), frame-of-reference
//! bit-packed, or dictionary layout. Reduced warehouses are extremely
//! compression-friendly: after aggregation, coordinate columns contain
//! long runs (facts grouped by cell), category columns are near-constant
//! within a subcube, bounded-cardinality code columns bit-pack to
//! `ceil(log2(cardinality))` bits per row, and append-ordered time
//! columns are near-sorted — this is where a large share of the paper's
//! "huge storage gains" materializes physically.

/// An encoded `u64` column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnEnc {
    /// Plain fixed-width values.
    Plain(Vec<u64>),
    /// Run-length encoded `(value, run_length)` pairs.
    Rle(Vec<(u64, u32)>),
    /// Delta encoding: a base value plus zigzag-varint deltas. Near-sorted
    /// columns — time coordinates of append-ordered click streams — shrink
    /// to ~1 byte per row.
    Delta {
        /// First value of the column.
        base: u64,
        /// Zigzag-varint encoded successive deltas.
        deltas: Vec<u8>,
        /// Number of logical values (including the base).
        count: u64,
    },
    /// Frame-of-reference bit packing: values minus the column minimum,
    /// packed at `width = ceil(log2(max - min + 1))` bits per row.
    /// Bounded unsorted columns — dimension codes with a few thousand
    /// distinct values — drop from 8 bytes to ~1–2 bytes per row.
    BitPacked {
        /// The column minimum (the frame of reference).
        min: u64,
        /// Bits per value (0 when the column is constant).
        width: u8,
        /// Number of logical values.
        count: u64,
        /// LSB-first packed payload.
        words: Vec<u64>,
    },
    /// Dictionary encoding: the sorted distinct values plus bit-packed
    /// indices (`width = ceil(log2(n_distinct))`). The sorted dictionary
    /// keeps the encoding order-preserving — index order equals value
    /// order — which wide, shuffled, low-cardinality columns (biased
    /// packed time codes) need to beat frame-of-reference packing.
    Dict {
        /// Sorted distinct values.
        dict: Vec<u64>,
        /// Bits per index (0 when the dictionary has one entry).
        width: u8,
        /// Number of logical values.
        count: u64,
        /// LSB-first packed dictionary indices.
        words: Vec<u64>,
    },
}

/// Bits needed to represent `v` (0 for `v == 0`).
#[inline]
fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Packs `values` at `width` bits each, LSB-first across little-endian
/// words. `width == 0` packs to nothing.
fn pack_bits(values: impl ExactSizeIterator<Item = u64>, width: u8) -> Vec<u64> {
    if width == 0 {
        return Vec::new();
    }
    let n = values.len();
    let total_bits = n as u128 * width as u128;
    let mut words = vec![0u64; total_bits.div_ceil(64) as usize];
    let mut bit = 0usize;
    for v in values {
        let (w, off) = (bit / 64, (bit % 64) as u32);
        words[w] |= v << off;
        if off + width as u32 > 64 {
            words[w + 1] |= v >> (64 - off);
        }
        bit += width as usize;
    }
    words
}

/// Reads the `i`-th `width`-bit value from an LSB-first packed payload.
#[inline]
fn unpack_bits(words: &[u64], width: u8, i: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit = i * width as usize;
    let (w, off) = (bit / 64, (bit % 64) as u32);
    let mask = u64::MAX >> (64 - width);
    let mut v = words[w] >> off;
    if off + width as u32 > 64 {
        v |= words[w + 1] << (64 - off);
    }
    v & mask
}

/// Expected word count for `count` values at `width` bits; `None` when
/// it does not fit a `usize`.
#[inline]
fn packed_words(count: u64, width: u8) -> Option<usize> {
    usize::try_from((count as u128 * width as u128).div_ceil(64)).ok()
}

/// Zigzag-encodes a signed delta to an unsigned varint payload.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Splits the first `n` bytes off `buf`; `None` when fewer remain.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n)?;
    *buf = rest;
    Some(head)
}

pub(crate) fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    take(buf, 1).map(|b| b[0])
}

pub(crate) fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    take(buf, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes taken")))
}

pub(crate) fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    take(buf, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes taken")))
}

/// `n` little-endian words; the byte count is checked before anything
/// is allocated for it.
fn take_u64s(buf: &mut &[u8], n: usize) -> Option<Vec<u64>> {
    let bytes = take(buf, n.checked_mul(8)?)?;
    Some(
        bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

fn put_u64s(out: &mut Vec<u8>, words: &[u64]) {
    out.reserve(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A column layout. The order is the tie order: of two layouts of equal
/// size, the earlier one is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Layout {
    Delta,
    Rle,
    BitPacked,
    Dict,
    Plain,
}

/// The counter of columns sealed in each layout, by `Layout as usize`.
pub(crate) const LAYOUT_COUNTERS: [&str; 5] = [
    "storage.columns.delta",
    "storage.columns.rle",
    "storage.columns.bitpacked",
    "storage.columns.dict",
    "storage.columns.plain",
];

/// The sorted distinct values of a column: its run heads, sorted.
fn distinct(values: &[u64]) -> Vec<u64> {
    let heads = values.windows(2).filter(|w| w[0] != w[1]).map(|w| w[1]);
    let mut dict: Vec<u64> = values.iter().take(1).copied().chain(heads).collect();
    dict.sort_unstable();
    dict.dedup();
    dict
}

/// The smallest layout of `values` and its exact encoded bytes, found
/// without building any layout: one pass sizes run-length, delta and
/// bit-packed; distinct values are counted only when a dictionary could win.
pub(crate) fn smallest_layout(values: &[u64]) -> (usize, Layout) {
    let n = values.len();
    let first = values.first().copied().unwrap_or_default();
    let (mut prev, mut run, mut runs, mut varints) = (first, 1u32, n.min(1), 0);
    let (mut lo, mut hi) = (first, first);
    for &v in values.iter().skip(1) {
        let split = v != prev || run == u32::MAX;
        (runs, run) = (runs + split as usize, if split { 1 } else { run + 1 });
        let delta = bits_for(zigzag((v as i64).wrapping_sub(prev as i64)));
        varints += (delta as usize).max(1).div_ceil(7);
        (prev, lo, hi) = (v, lo.min(v), hi.max(v));
    }
    let packed = |width| 8 * packed_words(n as u64, width).expect("fits a slice length");
    let delta = if n >= 2 { 16 + varints } else { usize::MAX };
    let mut sizes = [
        (delta, Layout::Delta),
        (12 * runs, Layout::Rle),
        (9 + packed(bits_for(hi - lo)), Layout::BitPacked),
        (usize::MAX, Layout::Dict),
        (8 * n, Layout::Plain),
    ];
    // The dictionary of the fewest values the column can hold — one, or
    // two with 1-bit indices when min and max differ — bounds it below.
    let floor = if hi > lo { 25 + packed(1) } else { 17 };
    if sizes[..3].iter().all(|&(bytes, _)| floor < bytes) && floor <= 8 * n {
        let d = distinct(values).len();
        if d <= 1 << 16 {
            sizes[3].0 = 9 + 8 * d + packed(bits_for(d as u64 - 1));
        }
    }
    sizes.into_iter().min().expect("five candidates")
}

impl Layout {
    /// Builds `values` in this layout.
    pub(crate) fn build(self, values: &[u64]) -> ColumnEnc {
        let count = values.len() as u64;
        match self {
            Layout::Delta => {
                let mut deltas = Vec::with_capacity(values.len());
                for w in values.windows(2) {
                    put_varint(&mut deltas, zigzag((w[1] as i64).wrapping_sub(w[0] as i64)));
                }
                ColumnEnc::Delta {
                    base: values[0],
                    deltas,
                    count,
                }
            }
            Layout::Rle => ColumnEnc::Rle(
                values
                    .chunk_by(|a, b| a == b)
                    .flat_map(|run| run.chunks(u32::MAX as usize))
                    .map(|run| (run[0], run.len() as u32))
                    .collect(),
            ),
            Layout::BitPacked => {
                let min = *values.iter().min().expect("a non-empty column");
                let width = bits_for(values.iter().max().expect("a non-empty column") - min);
                ColumnEnc::BitPacked {
                    words: pack_bits(values.iter().map(|&v| v - min), width),
                    min,
                    width,
                    count,
                }
            }
            Layout::Dict => {
                // An index is the value's rank among the sorted distinct
                // values, so index order is value order.
                let dict = distinct(values);
                let width = bits_for(dict.len() as u64 - 1);
                let rank = |v: &u64| dict.binary_search(v).expect("a value of the column") as u64;
                ColumnEnc::Dict {
                    words: pack_bits(values.iter().map(rank), width),
                    dict,
                    width,
                    count,
                }
            }
            Layout::Plain => ColumnEnc::Plain(values.to_vec()),
        }
    }
}

impl ColumnEnc {
    /// Encodes a column in the smallest of plain, RLE, delta, frame-of-
    /// reference bit-packed, and dictionary layouts, building only that one.
    pub fn encode(values: &[u64]) -> ColumnEnc {
        smallest_layout(values).1.build(values)
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        match self {
            ColumnEnc::Plain(v) => v.len(),
            ColumnEnc::Rle(r) => r.iter().map(|(_, n)| *n as usize).sum(),
            ColumnEnc::Delta { count, .. } => *count as usize,
            ColumnEnc::BitPacked { count, .. } => *count as usize,
            ColumnEnc::Dict { count, .. } => *count as usize,
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded size in bytes (payload only).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            ColumnEnc::Plain(v) => v.len() * 8,
            ColumnEnc::Rle(r) => r.len() * 12,
            ColumnEnc::Delta { deltas, .. } => 16 + deltas.len(),
            ColumnEnc::BitPacked { words, .. } => 9 + words.len() * 8,
            ColumnEnc::Dict { dict, words, .. } => 9 + (dict.len() + words.len()) * 8,
        }
    }

    /// Decodes back to plain values.
    pub fn decode(&self) -> Vec<u64> {
        match self {
            ColumnEnc::Plain(v) => v.clone(),
            ColumnEnc::Rle(r) => {
                let mut out = Vec::with_capacity(self.len());
                for &(v, n) in r {
                    out.extend(std::iter::repeat_n(v, n as usize));
                }
                out
            }
            ColumnEnc::Delta {
                base,
                deltas,
                count,
            } => {
                let mut out = Vec::with_capacity(*count as usize);
                let mut cur = *base;
                out.push(cur);
                let mut pos = 0usize;
                for _ in 1..*count {
                    let d = get_varint(deltas, &mut pos).expect("well-formed deltas");
                    cur = (cur as i64).wrapping_add(unzigzag(d)) as u64;
                    out.push(cur);
                }
                out
            }
            ColumnEnc::BitPacked {
                min,
                width,
                count,
                words,
            } => (0..*count as usize)
                .map(|i| min.wrapping_add(unpack_bits(words, *width, i)))
                .collect(),
            ColumnEnc::Dict {
                dict,
                width,
                count,
                words,
            } => (0..*count as usize)
                .map(|i| dict[unpack_bits(words, *width, i) as usize])
                .collect(),
        }
    }

    /// Appends the serialized column (tag + length + payload) to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        match self {
            ColumnEnc::Plain(v) => {
                out.push(0);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                put_u64s(out, v);
            }
            ColumnEnc::Rle(r) => {
                out.push(1);
                out.extend_from_slice(&(r.len() as u64).to_le_bytes());
                out.reserve(r.len() * 12);
                for &(v, n) in r {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
            ColumnEnc::Delta {
                base,
                deltas,
                count,
            } => {
                out.push(2);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&(deltas.len() as u64).to_le_bytes());
                out.extend_from_slice(deltas);
            }
            ColumnEnc::BitPacked {
                min,
                width,
                count,
                words,
            } => {
                out.push(3);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&min.to_le_bytes());
                out.push(*width);
                put_u64s(out, words);
            }
            ColumnEnc::Dict {
                dict,
                width,
                count,
                words,
            } => {
                out.push(4);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&(dict.len() as u64).to_le_bytes());
                out.push(*width);
                put_u64s(out, dict);
                put_u64s(out, words);
            }
        }
    }

    /// Reads a column previously written with [`ColumnEnc::write`] off
    /// the front of `buf`.
    ///
    /// Returns `None` on malformed input: every length is checked against
    /// the bytes that remain before anything is allocated for it, and a
    /// column that is returned decodes without panicking. What is *not*
    /// bounded here is the number of values a run-length or zero-width
    /// column stands for — compare [`ColumnEnc::len`] with the expected
    /// row count before calling [`ColumnEnc::decode`].
    pub fn read(buf: &mut &[u8]) -> Option<ColumnEnc> {
        let tag = take_u8(buf)?;
        let n = usize::try_from(take_u64(buf)?).ok()?;
        match tag {
            0 => Some(ColumnEnc::Plain(take_u64s(buf, n)?)),
            1 => {
                let mut runs = take(buf, n.checked_mul(12)?)?;
                let run = |_| Some((take_u64(&mut runs)?, take_u32(&mut runs)?));
                Some(ColumnEnc::Rle((0..n).map(run).collect::<Option<_>>()?))
            }
            2 => {
                let base = take_u64(buf)?;
                let dlen = usize::try_from(take_u64(buf)?).ok()?;
                let deltas = take(buf, dlen)?.to_vec();
                // The payload must decode to exactly count-1 deltas (the
                // encoder never writes a delta column of no values).
                if n == 0 {
                    return None;
                }
                let mut pos = 0usize;
                for _ in 1..n {
                    get_varint(&deltas, &mut pos)?;
                }
                if pos != deltas.len() {
                    return None;
                }
                Some(ColumnEnc::Delta {
                    base,
                    deltas,
                    count: n as u64,
                })
            }
            3 => {
                let min = take_u64(buf)?;
                let width = take_u8(buf).filter(|&w| w <= 64)?;
                Some(ColumnEnc::BitPacked {
                    min,
                    width,
                    count: n as u64,
                    words: take_u64s(buf, packed_words(n as u64, width)?)?,
                })
            }
            4 => {
                let dict_len = usize::try_from(take_u64(buf)?).ok()?;
                let width = take_u8(buf).filter(|&w| w <= 64)?;
                let dict = take_u64s(buf, dict_len)?;
                let words = take_u64s(buf, packed_words(n as u64, width)?)?;
                // Every packed index must address the dictionary; a
                // truncated or forged payload fails here instead of
                // panicking during a later decode. With zero-width
                // indices every row reads entry 0.
                let in_range = match width {
                    0 => n == 0 || dict_len > 0,
                    _ => (0..n).all(|i| (unpack_bits(&words, width, i) as usize) < dict_len),
                };
                in_range.then_some(ColumnEnc::Dict {
                    dict,
                    width,
                    count: n as u64,
                    words,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder as it was before layouts were sized first: build all
    /// five candidates, keep the smallest. The reference the sizing
    /// encoder must equal, layout and payload alike.
    fn encode_reference(values: &[u64]) -> ColumnEnc {
        let plain_bytes = values.len() * 8;
        // Candidate 1: RLE.
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((rv, n)) if *rv == v && *n < u32::MAX => *n += 1,
                _ => runs.push((v, 1)),
            }
        }
        let rle_bytes = runs.len() * 12;
        // Candidate 2: delta (only meaningful with ≥ 2 values).
        let delta = if values.len() >= 2 {
            let base = values[0];
            let mut deltas = Vec::with_capacity(values.len());
            for w in values.windows(2) {
                put_varint(&mut deltas, zigzag((w[1] as i64).wrapping_sub(w[0] as i64)));
            }
            Some(ColumnEnc::Delta {
                base,
                count: values.len() as u64,
                deltas,
            })
        } else {
            None
        };
        let delta_bytes = delta
            .as_ref()
            .map(|d| d.encoded_bytes())
            .unwrap_or(usize::MAX);
        // Candidates 3 and 4: frame-of-reference bit packing and the
        // sorted dictionary.
        let (mut bp, mut dict) = (None, None);
        if !values.is_empty() {
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for &v in values {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let width = bits_for(hi - lo);
            bp = Some(ColumnEnc::BitPacked {
                min: lo,
                width,
                count: values.len() as u64,
                words: pack_bits(values.iter().map(|&v| v - lo), width),
            });
            let mut index = std::collections::BTreeMap::new();
            for &v in values {
                let next = index.len() as u64;
                index.entry(v).or_insert(next);
                if index.len() > (1 << 16) {
                    break;
                }
            }
            if index.len() <= (1 << 16) {
                // BTreeMap insertion order is value order only for sorted
                // input; re-rank so indices are order-preserving.
                for (rank, (_, slot)) in index.iter_mut().enumerate() {
                    *slot = rank as u64;
                }
                let width = bits_for(index.len() as u64 - 1);
                dict = Some(ColumnEnc::Dict {
                    width,
                    count: values.len() as u64,
                    words: pack_bits(values.iter().map(|v| index[v]), width),
                    dict: index.into_keys().collect(),
                });
            }
        }
        let bp_bytes = bp.as_ref().map(|e| e.encoded_bytes()).unwrap_or(usize::MAX);
        let dict_bytes = dict
            .as_ref()
            .map(|e| e.encoded_bytes())
            .unwrap_or(usize::MAX);
        let best = plain_bytes
            .min(rle_bytes)
            .min(delta_bytes)
            .min(bp_bytes)
            .min(dict_bytes);
        if best == delta_bytes {
            delta.expect("delta computed")
        } else if best == rle_bytes {
            ColumnEnc::Rle(runs)
        } else if best == bp_bytes {
            bp.expect("bit-packed computed")
        } else if best == dict_bytes {
            dict.expect("dictionary computed")
        } else {
            ColumnEnc::Plain(values.to_vec())
        }
    }

    /// `values` encoded, checked against the reference encoder and the
    /// sizing pass's byte count.
    fn encode_checked(values: &[u64]) -> ColumnEnc {
        let e = ColumnEnc::encode(values);
        assert_eq!(e, encode_reference(values));
        assert_eq!(smallest_layout(values).0, e.encoded_bytes());
        e
    }

    /// A column of `len` values in one of the shapes fact segments hold
    /// (or must survive), drawn from `seed`.
    fn shaped(shape: u8, len: usize, seed: u64) -> Vec<u64> {
        let mut rng = TestRng::for_test(&format!("{shape}/{len}/{seed}"));
        let wide: Vec<u64> = (0..1 + rng.below(300)).map(|_| rng.next_u64()).collect();
        let mut col = Vec::with_capacity(len);
        let mut at = rng.next_u64() >> rng.below(64);
        while col.len() < len {
            let (bits, coin) = (rng.below(40), rng.below(4) == 0);
            let step = rng.below(1 << bits);
            let v = match shape {
                // Sorted: append-ordered time codes.
                0 => at.wrapping_add(step >> 20),
                // Runs of repeated values.
                1 => at ^ (coin as u64 * step),
                // Bounded noise: shuffled dimension codes.
                2 => (wide[0] >> 1) + rng.below(1 + (wide[0] & 0xfff)),
                // Wide, low cardinality: biased packed codes.
                3 => wide[rng.below(wide.len() as u64) as usize],
                // Extremes: 0, `u64::MAX`, and deltas that wrap `i64`.
                4 => [0, u64::MAX, i64::MAX as u64, i64::MIN as u64, at][rng.below(5) as usize],
                // Noise over the full range.
                _ => rng.next_u64(),
            };
            at = v;
            col.push(v);
        }
        col
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sizing encoder returns the reference encoder's column —
        /// the same layout, the same payload — on every shape, at the
        /// lengths that decide the candidates (0, 1, 2), a full segment
        /// (65 536), one distinct value more than a dictionary may hold,
        /// and anything in between.
        #[test]
        fn encode_equals_the_reference(
            shape in 0u8..6,
            pick in 0usize..9,
            len in 3usize..3000,
            seed in any::<u64>(),
        ) {
            let len = [0, 1, 2, 1 << 16, (1 << 16) + 1].get(pick).copied().unwrap_or(len);
            let col = shaped(shape, len, seed);
            let e = ColumnEnc::encode(&col);
            prop_assert_eq!(&e, &encode_reference(&col), "shape {} len {}", shape, len);
            prop_assert_eq!(smallest_layout(&col).0, e.encoded_bytes());
            prop_assert_eq!(e.decode(), col);
        }
    }

    /// No dictionary holds more than 65 536 entries: at 65 536 distinct
    /// wide values it is the smallest layout, at one more it is not a
    /// candidate.
    #[test]
    fn dictionary_caps_at_65_536_distinct_values() {
        for (distinct, dict_wins) in [(1 << 16, true), ((1 << 16) + 1, false)] {
            let col: Vec<u64> = (0..3 << 16)
                .map(|i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % distinct) << 40)
                .collect();
            let e = encode_checked(&col);
            assert_eq!(matches!(e, ColumnEnc::Dict { .. }), dict_wins, "{distinct}");
        }
    }

    #[test]
    fn empty_column_is_an_empty_run_list() {
        assert_eq!(encode_checked(&[]), ColumnEnc::Rle(vec![]));
    }

    /// Delta and run-length both take 24 bytes; delta wins the tie.
    #[test]
    fn delta_wins_a_tie_with_run_length() {
        // Two runs: 12 B each. Deltas: 16 B header, six 1-byte zeros,
        // one 2-byte step of 300. Bit-packing at 9 bits needs 2 words.
        let col = [[1000u64; 4], [1300; 4]].concat();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::Delta { .. }), "{e:?}");
        assert_eq!(e.encoded_bytes(), 24);
        assert_eq!(
            ColumnEnc::Rle(vec![(1000, 4), (1300, 4)]).encoded_bytes(),
            24
        );
    }

    /// Sorting is skipped only when the dictionary's lower bound cannot
    /// win; two distinct values win at exactly that bound.
    #[test]
    fn dictionary_wins_at_its_lower_bound() {
        let col: Vec<u64> = (0..5).map(|i| (i % 2) << 40).collect();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::Dict { width: 1, .. }), "{e:?}");
        // Plain takes 40 bytes, 41-bit packing 41.
        assert_eq!(e.encoded_bytes(), 33);
    }

    /// Bit-packed and dictionary both take 49 bytes; bit-packed wins.
    #[test]
    fn bitpacked_wins_a_tie_with_the_dictionary() {
        // 64 rows cycling 0, 1, 16: 5-bit offsets fill 5 words; the
        // 3-entry dictionary plus 2-bit indices (2 words) is 5 words too.
        let col: Vec<u64> = (0..64).map(|i| [0, 1, 16][i % 3]).collect();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::BitPacked { width: 5, .. }), "{e:?}");
        assert_eq!(e.encoded_bytes(), 49);
        let ranks = (0..64).fold(0u128, |w, i| w | (((i % 3) as u128) << (2 * i)));
        let dict = ColumnEnc::Dict {
            dict: vec![0, 1, 16],
            width: 2,
            count: 64,
            words: vec![ranks as u64, (ranks >> 64) as u64],
        };
        assert_eq!((dict.encoded_bytes(), dict.decode()), (49, col));
    }

    #[test]
    fn rle_wins_on_runs() {
        let col: Vec<u64> = std::iter::repeat_n(7u64, 1000)
            .chain(std::iter::repeat_n(9u64, 500))
            .collect();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::Rle(_)));
        assert_eq!(e.encoded_bytes(), 24);
        assert_eq!(e.decode(), col);
        assert_eq!(e.len(), 1500);
    }

    #[test]
    fn delta_wins_on_sorted() {
        let col: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::Delta { .. }), "{e:?}");
        // ~1 byte per row instead of 8.
        assert!(e.encoded_bytes() < 1100, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), col);
    }

    #[test]
    fn plain_wins_on_noise() {
        // Wide pseudo-random values: every delta needs ≥ 9 varint bytes,
        // so plain fixed-width is the smallest.
        let col: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::Plain(_)), "{e:?}");
        assert_eq!(e.encoded_bytes(), 8000);
        assert_eq!(e.decode(), col);
    }

    #[test]
    fn delta_handles_negative_steps_and_extremes() {
        let col = vec![100u64, 50, 75, 0, u64::MAX / 4, 3];
        let e = encode_checked(&col);
        assert_eq!(e.decode(), col);
        // Zigzag varints roundtrip through serialization too.
        let mut buf = Vec::new();
        e.write(&mut buf);
        assert_eq!(ColumnEnc::read(&mut &buf[..]).unwrap().decode(), col);
    }

    #[test]
    fn serialization_roundtrip() {
        for col in [
            vec![],
            vec![42u64],
            std::iter::repeat_n(7u64, 100).collect::<Vec<_>>(),
            (0..100u64).collect::<Vec<_>>(),
        ] {
            let e = encode_checked(&col);
            let mut buf = Vec::new();
            e.write(&mut buf);
            let d = ColumnEnc::read(&mut &buf[..]).unwrap();
            assert_eq!(d.decode(), col);
        }
    }

    #[test]
    fn bitpacked_wins_on_bounded_noise() {
        // Shuffled codes in [0, 1000): plain is 8 B/row, delta ~2 B/row,
        // frame-of-reference packing 10 bits/row.
        let col: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1000)
            .collect();
        let e = encode_checked(&col);
        assert!(matches!(e, ColumnEnc::BitPacked { width: 10, .. }), "{e:?}");
        assert!(e.encoded_bytes() < 1300, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), col);
        assert_eq!(e.len(), 1000);
    }

    #[test]
    fn dict_wins_on_wide_low_cardinality() {
        // 36 distinct wide values (biased month codes), shuffled: the
        // sorted dictionary packs each row to 6 bits.
        let months: Vec<u64> = (0..36u64).map(|m| (1u64 << 40) + m * 31).collect();
        let col: Vec<u64> = (0..1000u64)
            .map(|i| months[(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 36) as usize])
            .collect();
        let e = encode_checked(&col);
        let ColumnEnc::Dict {
            ref dict, width, ..
        } = e
        else {
            panic!("{e:?}")
        };
        assert_eq!(width, 6);
        assert!(dict.windows(2).all(|w| w[0] < w[1]), "dictionary sorted");
        assert!(e.encoded_bytes() < 1100, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), col);
    }

    #[test]
    fn packed_encodings_roundtrip_serialization() {
        let cases: Vec<ColumnEnc> = vec![
            ColumnEnc::encode(&(0..257u64).map(|i| i * 7 % 131).collect::<Vec<_>>()),
            ColumnEnc::encode(&[5u64; 1]),
            ColumnEnc::BitPacked {
                min: 3,
                width: 64,
                count: 3,
                words: vec![u64::MAX - 3, 7, 0],
            },
            ColumnEnc::Dict {
                dict: vec![10, 20, 30],
                width: 2,
                count: 5,
                words: vec![0b10_01_00_01_10],
            },
        ];
        for e in cases {
            let col = e.decode();
            let mut buf = Vec::new();
            e.write(&mut buf);
            let mut b = &buf[..];
            let d = ColumnEnc::read(&mut b).unwrap();
            assert_eq!(d, e);
            assert_eq!(d.decode(), col);
            assert!(b.is_empty(), "reader consumed the column exactly");
        }
    }

    #[test]
    fn read_rejects_out_of_range_dict_index() {
        let e = ColumnEnc::Dict {
            dict: vec![10, 20],
            width: 2,
            count: 4,
            // Index 3 is out of range for a 2-entry dictionary.
            words: vec![0b11_01_00_01],
        };
        let mut buf = Vec::new();
        e.write(&mut buf);
        assert!(ColumnEnc::read(&mut &buf[..]).is_none());
    }

    #[test]
    fn packed_truncation_rejected() {
        for col in [
            (0..100u64).map(|i| i % 9).collect::<Vec<_>>(),
            (0..100u64)
                .map(|i| (1 << 50) + i % 4 * 1000)
                .collect::<Vec<_>>(),
        ] {
            let e = encode_checked(&col);
            assert!(
                matches!(e, ColumnEnc::BitPacked { .. } | ColumnEnc::Dict { .. }),
                "{e:?}"
            );
            let mut buf = Vec::new();
            e.write(&mut buf);
            assert!(ColumnEnc::read(&mut &buf[..buf.len() - 5]).is_none());
        }
    }

    #[test]
    fn read_rejects_truncation() {
        let e = ColumnEnc::encode(&(0..100u64).collect::<Vec<_>>());
        let mut buf = Vec::new();
        e.write(&mut buf);
        assert!(ColumnEnc::read(&mut &buf[..buf.len() - 4]).is_none());
        assert!(ColumnEnc::read(&mut &[][..]).is_none());
    }

    /// A forged count must fail the length check, not wrap it or size an
    /// allocation: the products `n * 8` / `n * 12` overflow a `usize`.
    #[test]
    fn read_rejects_counts_whose_byte_length_overflows() {
        for tag in [0u8, 1] {
            for n in [u64::MAX, u64::MAX / 8 + 2, u64::MAX / 12 + 2, 1 << 61] {
                let mut buf = vec![tag];
                buf.extend_from_slice(&n.to_le_bytes());
                buf.extend_from_slice(&[0u8; 64]);
                assert!(ColumnEnc::read(&mut &buf[..]).is_none(), "tag {tag} n {n}");
            }
        }
        // Zero-width packed columns carry no payload to bound the count:
        // they read back, and `len` reports the count for the caller to
        // check before decoding.
        let forged = ColumnEnc::BitPacked {
            min: 7,
            width: 0,
            count: 1 << 60,
            words: vec![],
        };
        let mut buf = Vec::new();
        forged.write(&mut buf);
        assert_eq!(ColumnEnc::read(&mut &buf[..]).unwrap().len(), 1 << 60);
        let forged = ColumnEnc::Dict {
            dict: vec![],
            width: 0,
            count: 1 << 60,
            words: vec![],
        };
        let mut buf = Vec::new();
        forged.write(&mut buf);
        assert!(ColumnEnc::read(&mut &buf[..]).is_none(), "no entry 0");
    }
}
