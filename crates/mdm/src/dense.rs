//! The dense tables the packed-key kernels share: the read scan
//! (`sdr_query::scan`) and the reduction step of the subcube manager.
//!
//! Both kernels memoize per distinct dimension value — a selection mask,
//! a target's key field, a roll-up — and both group rows by packed cell
//! key ([`KeyPacker`](crate::KeyPacker)). A [`CodeTable`] holds one
//! category's entries indexed by the code's offset in that category's
//! domain: enum codes are dense interned ids and time codes are bounded
//! by the schema horizon, so over the schema's values a table never
//! outgrows its category's domain, and no hash map is needed.
//! [`DimTables`] is a dimension's tables, one per category; [`Slots`] is
//! the key → group slot map; [`Accs`] the measure columns a kernel folds
//! its rows into, one pass per measure with the aggregate chosen once.

use std::collections::hash_map::Entry;

use crate::dimension::Dimension;
use crate::pack::FxHashMap;
use crate::schema::{AggFn, MeasureId, Schema};

/// A memo over one category's value codes: slot `i` is code `base + i`.
/// It covers only the span of codes seen so far, and grows to take in a
/// new one — downward (re-basing) by at least its own length, so a run
/// fed in descending code order costs amortized O(1) per code, but never
/// below the category's lowest code. Over values within the schema (enum
/// ids, days within the time horizon) a table is therefore at most as
/// long as its category's domain.
#[derive(Debug, Clone)]
pub struct CodeTable<T> {
    base: u64,
    slots: Vec<Option<T>>,
    /// The category's lowest code.
    floor: u64,
}

impl<T: Copy> CodeTable<T> {
    /// An empty table over a category whose lowest code is `floor`.
    pub fn new(floor: u64) -> CodeTable<T> {
        CodeTable {
            base: floor,
            slots: Vec::new(),
            floor,
        }
    }

    /// The entry of `code`, if memoized.
    #[inline]
    pub fn get(&self, code: u64) -> Option<T> {
        // A code below `base` wraps to an offset past the end.
        let off = code.wrapping_sub(self.base);
        if off < self.slots.len() as u64 {
            self.slots[off as usize]
        } else {
            None
        }
    }

    /// Memoizes `v` for `code`.
    pub fn insert(&mut self, code: u64, v: T) {
        if self.slots.is_empty() {
            self.base = code;
        } else if code < self.base {
            let len = self.slots.len() as u64;
            let base = code.min(self.base.saturating_sub(len).max(self.floor));
            let grow = (self.base - base) as usize;
            self.slots.splice(0..0, std::iter::repeat_n(None, grow));
            self.base = base;
        }
        let off = (code - self.base) as usize;
        if off >= self.slots.len() {
            self.slots.resize(off + 1, None);
        }
        self.slots[off] = Some(v);
    }

    /// The entry of `code`, made by `make` on a miss.
    #[inline]
    pub fn get_or_make<E>(
        &mut self,
        code: u64,
        make: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        match self.get(code) {
            Some(v) => Ok(v),
            None => {
                let v = make()?;
                self.insert(code, v);
                Ok(v)
            }
        }
    }

    /// The codes memoized.
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// One dimension's memo: a [`CodeTable`] per category id.
#[derive(Debug, Clone)]
pub struct DimTables<T>(Vec<CodeTable<T>>);

impl<T: Copy> DimTables<T> {
    /// Empty tables for every category of `dim`.
    pub fn new(dim: &Dimension) -> DimTables<T> {
        DimTables(
            dim.graph()
                .all()
                .map(|c| CodeTable::new(dim.min_code(c)))
                .collect(),
        )
    }

    /// The entry of value `(cat, code)`, made by `make` on a miss.
    #[inline]
    pub fn get_or_make<E>(
        &mut self,
        cat: u8,
        code: u64,
        make: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.0[cat as usize].get_or_make(code, make)
    }

    /// The values memoized, over every category.
    pub fn filled(&self) -> usize {
        self.0.iter().map(CodeTable::filled).sum()
    }
}

/// Packed cell key → group slot, slots numbered in first-seen order.
#[derive(Debug, Clone)]
pub struct Slots<K> {
    map: FxHashMap<K, u32>,
    keys: Vec<K>,
}

impl<K> Default for Slots<K> {
    fn default() -> Self {
        Slots {
            map: FxHashMap::default(),
            keys: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + std::hash::Hash> Slots<K> {
    /// The slot of `key`, and whether it was opened by this call.
    #[inline]
    pub fn slot(&mut self, key: K) -> (u32, bool) {
        match self.map.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let slot = self.keys.len() as u32;
                e.insert(slot);
                self.keys.push(key);
                (slot, true)
            }
        }
    }

    /// The slot of `key`, if open.
    #[inline]
    pub fn get(&self, key: K) -> Option<u32> {
        self.map.get(&key).copied()
    }

    /// Every slot's key, by slot.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Slots open.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no slot is open.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// One accumulator column per measure, one entry per group, in `i128`:
/// no partial sum of `i64` values can leave it, and MIN and MAX keep an
/// `i64` value. A read folds freely and checks each group's totals once
/// ([`values`](Accs::values)); the write path folds
/// [`checked`](Accs::fold_checked), which reports every partial SUM or
/// COUNT that leaves `i64` — the refusal `Schema::fold_measures` makes
/// row by row.
#[derive(Debug, Clone)]
pub struct Accs(Vec<(AggFn, Vec<i128>)>);

impl Accs {
    /// No groups, one column per measure of `schema`.
    pub fn new(schema: &Schema) -> Accs {
        Accs(
            schema
                .measures
                .iter()
                .map(|m| (m.agg, Vec::new()))
                .collect(),
        )
    }

    /// Opens groups up to `n`, each holding every aggregate's identity.
    pub fn open_to(&mut self, n: usize) {
        for (agg, a) in &mut self.0 {
            a.resize(n.max(a.len()), agg.identity().into());
        }
    }

    /// Folds `value(j, i)` into measure `j` of group `slots[i]`, for
    /// every `i`: one pass per measure, its aggregate chosen once.
    pub fn fold(&mut self, slots: &[u32], value: impl Fn(usize, usize) -> i64) {
        self.fold_checked(slots, value, |_, _| {});
    }

    /// [`fold`](Accs::fold), calling `leaves(i, m)` whenever measure `m`
    /// of group `slots[i]` leaves `i64` as row `i` is folded in.
    pub fn fold_checked(
        &mut self,
        slots: &[u32],
        value: impl Fn(usize, usize) -> i64,
        mut leaves: impl FnMut(usize, MeasureId),
    ) {
        for (j, (agg, a)) in self.0.iter_mut().enumerate() {
            let rows = slots.iter().map(|&s| s as usize).enumerate();
            let value = |i| i128::from(value(j, i));
            match agg {
                AggFn::Sum | AggFn::Count => rows.for_each(|(i, s)| {
                    a[s] += value(i);
                    if i64::try_from(a[s]).is_err() {
                        leaves(i, MeasureId(j as u16));
                    }
                }),
                AggFn::Min => rows.for_each(|(i, s)| a[s] = a[s].min(value(i))),
                AggFn::Max => rows.for_each(|(i, s)| a[s] = a[s].max(value(i))),
            }
        }
    }

    /// Folds group `src` of `other` into group `dst`.
    pub fn absorb(&mut self, dst: u32, other: &Accs, src: u32) {
        let (d, s) = (dst as usize, src as usize);
        for ((agg, a), (_, b)) in self.0.iter_mut().zip(&other.0) {
            a[d] = match agg {
                AggFn::Sum | AggFn::Count => a[d] + b[s],
                AggFn::Min => a[d].min(b[s]),
                AggFn::Max => a[d].max(b[s]),
            };
        }
    }

    /// Group `slot`'s aggregates into `out` (cleared first), or the
    /// lowest measure whose total leaves `i64`.
    pub fn values(&self, slot: u32, out: &mut Vec<i64>) -> Result<(), MeasureId> {
        out.clear();
        for (j, (_, a)) in self.0.iter().enumerate() {
            out.push(i64::try_from(a[slot as usize]).map_err(|_| MeasureId(j as u16))?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table fed codes in descending order grows downward by at least
    /// its own length, and never below its category's lowest code.
    #[test]
    fn a_code_table_rebases_downward_within_its_range() {
        let mut t = CodeTable::new(100);
        for code in (100..=200).rev() {
            t.insert(code, code);
            assert!(t.base >= 100 && t.base <= code);
        }
        assert_eq!(t.slots.len(), 101);
        assert!((100..=200).all(|c| t.get(c) == Some(c)));
        assert_eq!((t.get(99), t.get(201)), (None, None));
    }

    #[test]
    fn slots_number_keys_in_first_seen_order() {
        let mut s = Slots::default();
        assert_eq!(s.slot(7u64), (0, true));
        assert_eq!(s.slot(3), (1, true));
        assert_eq!(s.slot(7), (0, false));
        assert_eq!((s.get(3), s.get(9)), (Some(1), None));
        assert_eq!(s.keys(), &[7, 3]);
    }
}
