//! One compiled scan: selection `σ[p]` and aggregate formation
//! `α[C₁…Cₙ]` fused into a single pass over any number of fact runs.
//!
//! A [`Scan`] is compiled once per query — the predicate to DNF with
//! every `NOW` term resolved, laid out in one un-memoized
//! [`LeafMaskPlan`] (`sdr-spec`'s, the one reduction uses), the target
//! levels, the approach and the key packer — and is then shared
//! read-only by every worker. Each accumulator memoizes a clone of the
//! plan of its own. A worker starts a [`ScanAcc`] and
//! [`feed`](ScanAcc::feed)s it runs (chunks of
//! any cube of any shard, or a single MO); workers that ran side by side
//! merge their accumulators with [`absorb`](ScanAcc::absorb), and the
//! one accumulator left is [`finish`](ScanAcc::finish)ed once. The
//! aggregate functions are distributive (Section 3), so folding every
//! kept row of every run into one group table is the answer of the
//! operators on the runs' union, bit for bit.
//!
//! The kernel is dense. Everything it memoizes per distinct dimension
//! value — the selection's satisfied-atom masks, and the aggregation's
//! target per direct value — sits in one table per (dimension,
//! category), indexed by the code's offset in that category's domain
//! ([`CodeTable`](sdr_mdm::CodeTable), shared through `sdr_mdm::dense`
//! with the reduction step of the subcube manager). Enum codes are
//! dense interned ids and time codes are bounded by the schema horizon,
//! so over the schema's values a table never outgrows its category's
//! domain; it grows lazily to the codes seen, and there is no hash-map
//! fallback. A target entry holds the target value's pre-shifted
//! [`KeyPacker`] field (or "excluded", for strict), so a row's group
//! key is the OR of its dimensions' fields. A run's rows are first
//! mapped to group slots, into a reused buffer; then each measure folds
//! column by column into its accumulator column, with the aggregate
//! function chosen once per column. SUM and COUNT accumulate in `i128`
//! and are checked once per group, at `finish`, in coordinate order: a
//! query fails with `MeasureOverflow` exactly when some group's true
//! total leaves `i64`, whatever the order, split or parallelism of its
//! runs.
//!
//! [`finish`](ScanAcc::finish) sorts the groups by packed key — packing
//! is injective and order-preserving, so this is the reference
//! `BTreeMap` order — and unpacks each key into the answer's
//! coordinates. The LUB approach groups by *direct* cell while folding
//! the uniform target over every fed row, and rolls the distinct cells up
//! at `finish`. The weighted selection mode decides per distinct packed
//! cell instead (a hash map, as its weight is not dimension-local).
//! Above [`LeafMaskPlan::MAX_LEAVES`] leaves a boolean selection takes
//! the plan's one fallback, every row's cell evaluated whole.
//!
//! Before a run is fed, [`ScanAcc::may_keep`] judges it from its
//! distinct values per dimension, on the same memo the scan then reads:
//! a run no cell of whose value product the selection can keep need not
//! be fed at all. That is how a warehouse query skips chunks and cubes.
//!
//! Without a key packer (a schema too wide for 128 bits) and for the
//! disaggregated approach, whose fan-out is not cell-local, the kept
//! rows are copied out per run instead and aggregated row at a time at
//! the end (`aggregate_rows_naive`). A scan with no aggregation
//! (`Scan::selection`, behind [`crate::select_view`]) returns the kept
//! rows themselves.
//!
//! [`crate::select_view`] and [`crate::aggregate_ids`] are this scan over
//! one MO; nothing else implements either kernel.

use std::borrow::Cow;
use std::sync::Arc;

use sdr_mdm::{
    Accs, CatId, DayNum, DimId, DimTables, DimValue, FactId, FxHashMap, KeyPacker, Mo, PackedKey,
    Schema, Slots, ORIGIN_USER,
};
use sdr_spec::{CompiledPred, LeafMaskPlan, LeafMeaning, Pexp};

use crate::aggregate::{aggregate_rows_naive, AggApproach};
use crate::compare::SelectMode;
use crate::error::QueryError;

/// A compiled predicate in the plan that evaluates it.
#[derive(Clone)]
enum Selection {
    /// Conservative or liberal: the plan's leaf masks decide every row.
    Masks(LeafMaskPlan),
    /// Weighted: the plan's weight decides every distinct packed cell
    /// (or, without a packer, every row) against the threshold. The plan
    /// is compiled liberal, which its weight does not read: only the
    /// chunk verdict does (see [`ScanAcc::may_keep`]).
    Weighted(LeafMaskPlan, f64),
}

impl Selection {
    fn compile(
        schema: &Schema,
        p: &Pexp,
        now: DayNum,
        mode: SelectMode,
    ) -> Result<Selection, QueryError> {
        let meaning = match mode {
            SelectMode::Conservative => LeafMeaning::Conservative,
            SelectMode::Liberal | SelectMode::Weighted { .. } => LeafMeaning::Liberal,
        };
        let plan = LeafMaskPlan::new(vec![CompiledPred::compile_as(schema, p, now, meaning)?]);
        Ok(match mode {
            SelectMode::Weighted { threshold } => Selection::Weighted(plan, threshold),
            _ => Selection::Masks(plan),
        })
    }
}

/// A query's selection and aggregation, compiled once and shared
/// read-only by the workers that scan its inputs (see the module docs).
pub struct Scan {
    schema: Arc<Schema>,
    select: Option<Selection>,
    /// Target levels and approach; `None` scans select only.
    group: Option<(Vec<CatId>, AggApproach)>,
    packer: Option<KeyPacker>,
}

impl Scan {
    /// Compiles `α[levels]σ[pred]` under `mode` and `approach` at `now`
    /// (`pred: None` keeps every fact).
    pub fn compile(
        schema: &Arc<Schema>,
        pred: Option<&Pexp>,
        now: DayNum,
        mode: SelectMode,
        levels: &[CatId],
        approach: AggApproach,
    ) -> Result<Scan, QueryError> {
        debug_assert_eq!(levels.len(), schema.n_dims());
        Scan::build(schema, pred, now, mode, Some((levels.to_vec(), approach)))
    }

    /// A selection-only scan: its result is the kept rows themselves.
    pub(crate) fn selection(
        schema: &Arc<Schema>,
        pred: &Pexp,
        now: DayNum,
        mode: SelectMode,
    ) -> Result<Scan, QueryError> {
        Scan::build(schema, Some(pred), now, mode, None)
    }

    fn build(
        schema: &Arc<Schema>,
        pred: Option<&Pexp>,
        now: DayNum,
        mode: SelectMode,
        group: Option<(Vec<CatId>, AggApproach)>,
    ) -> Result<Scan, QueryError> {
        let select = pred
            .map(|p| Selection::compile(schema, p, now, mode))
            .transpose()?;
        Ok(Scan {
            schema: Arc::clone(schema),
            select,
            group,
            packer: KeyPacker::new(schema),
        })
    }

    /// The schema the scan was compiled against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// A fresh accumulator for one worker.
    pub fn start(&self) -> ScanAcc<'_> {
        let state = match &self.packer {
            Some(pk) if pk.fits64() => State::Narrow(Keyed::new(self)),
            _ => State::Wide(Keyed::new(self)),
        };
        ScanAcc {
            scan: self,
            state,
            keep: Vec::new(),
            visited: 0,
            kept: 0,
        }
    }

    /// Whether grouping runs through the packed-key kernel.
    fn keyed_groups(&self) -> bool {
        self.packer.is_some()
            && self
                .group
                .as_ref()
                .is_some_and(|(_, a)| *a != AggApproach::Disaggregated)
    }

    /// One memo per dimension `dims` names, each with a table per
    /// category.
    fn memos<T: Copy>(&self, dims: impl Iterator<Item = DimId>) -> Vec<DimTables<T>> {
        dims.map(|d| DimTables::new(self.schema.dim(d))).collect()
    }
}

/// Every dimension of `schema`, in order.
fn every_dim(schema: &Schema) -> impl Iterator<Item = DimId> {
    (0..schema.n_dims()).map(|d| DimId(d as u16))
}

/// The distinct values memoized over `memos`.
fn filled<T: Copy>(memos: &[DimTables<T>]) -> usize {
    memos.iter().map(DimTables::filled).sum()
}

/// The state of one worker's scan, carried across its runs.
pub struct ScanAcc<'s> {
    scan: &'s Scan,
    state: State,
    /// The current run's kept rows (reused across runs).
    keep: Vec<u32>,
    visited: u64,
    kept: u64,
}

enum State {
    Narrow(Keyed<u64>),
    Wide(Keyed<u128>),
}

/// The memo and group state of one scan, over packed keys `K`.
struct Keyed<K> {
    /// This accumulator's clone of the scan's selection, whose plan
    /// memoizes satisfied-leaf masks per direct value.
    select: Option<Selection>,
    /// Packed direct cell → decision (weighted mode).
    cells: FxHashMap<K, bool>,
    /// Scratch cell of the weighted mode's misses.
    cell: Vec<DimValue>,
    out: Out<K>,
}

enum Out<K> {
    /// The kept rows of every run: a selection's result, or the input of
    /// the row-at-a-time aggregation.
    Rows(Vec<Mo>),
    /// The packed-key group table.
    Groups(Groups<K>),
}

impl<K: PackedKey> Keyed<K> {
    fn new(scan: &Scan) -> Keyed<K> {
        let out = match &scan.group {
            Some((levels, approach)) if scan.keyed_groups() => {
                let targets = match approach {
                    AggApproach::Lub => Vec::new(),
                    _ => scan.memos(every_dim(&scan.schema)),
                };
                Out::Groups(Groups::new(scan, levels.clone(), targets))
            }
            _ => Out::Rows(Vec::new()),
        };
        Keyed {
            select: scan.select.clone(),
            cells: FxHashMap::default(),
            cell: Vec::new(),
            out,
        }
    }

    /// One run: its kept rows into `keep`, then into the output.
    fn feed(&mut self, scan: &Scan, mo: &Mo, keep: &mut Vec<u32>) -> Result<u64, QueryError> {
        let all = self.select(scan, mo, keep)?;
        let kept = if all { mo.len() } else { keep.len() } as u64;
        match &mut self.out {
            Out::Rows(parts) => {
                if kept > 0 {
                    parts.push(if all { mo.clone() } else { mo.gather(keep) });
                }
            }
            Out::Groups(g) if all => g.fold(scan, mo, 0..mo.len() as u32)?,
            Out::Groups(g) => g.fold(scan, mo, keep.iter().copied())?,
        }
        Ok(kept)
    }

    /// The selection kernels: the plan's leaf masks for boolean modes,
    /// the per-cell memo of weighted decisions otherwise, row at a time
    /// without a packer. Returns `true`, leaving `keep` alone, when every
    /// row is kept.
    fn select(&mut self, scan: &Scan, mo: &Mo, keep: &mut Vec<u32>) -> Result<bool, QueryError> {
        let schema = &*scan.schema;
        let store = mo.store();
        match &mut self.select {
            None => return Ok(true),
            Some(Selection::Masks(plan)) => plan.any_run(schema, store, keep)?,
            Some(Selection::Weighted(plan, threshold)) => {
                keep.clear();
                for f in mo.facts() {
                    let key = scan
                        .packer
                        .as_ref()
                        .map(|pk| K::from_wide(pk.pack_row(store, f)));
                    let dec = match key.and_then(|k| self.cells.get(&k)) {
                        Some(&d) => d,
                        None => {
                            mo.coords_into(f, &mut self.cell);
                            let d = plan.weight(schema, &self.cell)? >= *threshold;
                            if let Some(k) = key {
                                self.cells.insert(k, d);
                            }
                            d
                        }
                    };
                    if dec {
                        keep.push(f.0);
                    }
                }
            }
        }
        Ok(keep.len() == mo.len())
    }

    /// The selection's memo, named by its metric: the plan's distinct
    /// dimension values, or the weighted mode's distinct packed cells.
    /// The plan's whole-cell fallback, and the weighted mode without a
    /// packer, memoize nothing.
    fn select_memo(&self, packed: bool) -> Option<(&'static str, usize)> {
        match &self.select {
            Some(Selection::Masks(plan)) if plan.is_masked() => {
                Some(("query.select.kernel.distinct_dim_values", plan.filled()))
            }
            Some(Selection::Weighted(..)) if packed => {
                Some(("query.select.kernel.distinct_cells", self.cells.len()))
            }
            _ => None,
        }
    }

    /// The chunk verdict of this accumulator's selection (see
    /// [`ScanAcc::may_keep`]).
    fn may_keep(&mut self, schema: &Schema, values: &[Vec<(u8, u64)>]) -> Result<bool, QueryError> {
        let plan = match &mut self.select {
            Some(Selection::Masks(plan)) => plan,
            Some(Selection::Weighted(plan, threshold)) if *threshold > 0.0 => plan,
            _ => return Ok(true),
        };
        Ok(plan.any_in_product(schema, values)?)
    }

    /// Folds `other`'s output into this one's.
    fn absorb(&mut self, schema: &Schema, other: Keyed<K>) {
        match (&mut self.out, other.out) {
            (Out::Rows(parts), Out::Rows(more)) => parts.extend(more),
            (Out::Groups(g), Out::Groups(more)) => g.absorb(schema, more),
            _ => unreachable!("accumulators of one scan share their output kind"),
        }
    }
}

/// The group table of a keyed scan.
struct Groups<K> {
    /// Availability / strict: per dimension, per direct value, its
    /// target's key field (`None`: excluded by a strict aggregation).
    targets: Vec<DimTables<Option<K>>>,
    /// Packed target cell (availability, strict) or packed direct cell
    /// (LUB) → slot.
    slots: Slots<K>,
    accs: Accs,
    /// LUB: the uniform target, folded over every fed row's categories.
    lub: Vec<CatId>,
    /// The current run's grouped rows and their slots (reused).
    rows: Vec<u32>,
    slot_of: Vec<u32>,
}

impl<K: PackedKey> Groups<K> {
    fn new(scan: &Scan, lub: Vec<CatId>, targets: Vec<DimTables<Option<K>>>) -> Groups<K> {
        Groups {
            targets,
            slots: Slots::default(),
            accs: Accs::new(&scan.schema),
            lub,
            rows: Vec::new(),
            slot_of: Vec::new(),
        }
    }

    /// The slot of `key`, opened at the identity if new.
    #[inline]
    fn slot(&mut self, key: K) -> (u32, bool) {
        let (slot, new) = self.slots.slot(key);
        if new {
            self.accs.open_to(self.slots.len());
        }
        (slot, new)
    }

    /// Folds `rows` of `mo` into the group table: every row to its slot
    /// first, then the measures column by column.
    fn fold(
        &mut self,
        scan: &Scan,
        mo: &Mo,
        rows: impl Iterator<Item = u32>,
    ) -> Result<(), QueryError> {
        let (levels, approach) = scan.group.as_ref().expect("a grouping scan");
        let pk = scan.packer.as_ref().expect("a keyed scan");
        let schema = &*scan.schema;
        let store = mo.store();
        self.rows.clear();
        self.slot_of.clear();
        if *approach == AggApproach::Lub {
            // Group by *direct* cell while folding the uniform target
            // (LUB over distinct cells equals LUB over all rows —
            // idempotent); `finish` rolls the few distinct cells up.
            for r in rows {
                let key = K::from_wide(pk.pack_row(store, FactId(r)));
                let (slot, new) = self.slot(key);
                if new {
                    for (d, tc) in self.lub.iter_mut().enumerate() {
                        let c = CatId(store.cats[d][r as usize]);
                        *tc = schema.dims[d].graph().lub(*tc, c);
                    }
                }
                self.rows.push(r);
                self.slot_of.push(slot);
            }
        } else {
            // Availability / strict: a row's target value in each
            // dimension is a function of its direct value there alone.
            'row: for r in rows {
                let i = r as usize;
                let mut key = K::from_wide(0);
                for (d, memo) in self.targets.iter_mut().enumerate() {
                    let (cat, code) = (store.cats[d][i], store.codes[d][i]);
                    let field = memo.get_or_make(cat, code, || {
                        target_field(schema, pk, d, levels[d], *approach, cat, code)
                    })?;
                    match field {
                        Some(f) => key = key | f,
                        None => continue 'row,
                    }
                }
                let (slot, _) = self.slot(key);
                self.rows.push(r);
                self.slot_of.push(slot);
            }
        }
        let (measures, rows) = (&store.measures, &self.rows);
        self.accs
            .fold(&self.slot_of, |j, i| measures[j][rows[i] as usize]);
        Ok(())
    }

    /// Folds `other`'s groups into this table, by packed key.
    fn absorb(&mut self, schema: &Schema, other: Groups<K>) {
        // LUB's uniform targets meet; the levels of availability and
        // strict stay themselves.
        for ((tc, &oc), dim) in self.lub.iter_mut().zip(&other.lub).zip(&schema.dims) {
            *tc = dim.graph().lub(*tc, oc);
        }
        for (src, &key) in other.slots.keys().iter().enumerate() {
            let (dst, _) = self.slot(key);
            self.accs.absorb(dst, &other.accs, src as u32);
        }
    }

    /// The groups as an MO, in coordinate order; the first group in that
    /// order whose SUM or COUNT leaves `i64` is the error, naming its
    /// lowest such measure.
    fn finish(self, scan: &Scan) -> Result<Mo, QueryError> {
        let (schema, pk) = (&scan.schema, scan.packer.as_ref().expect("a keyed scan"));
        let groups = match &scan.group {
            Some((_, AggApproach::Lub)) => self.roll_up(scan, pk)?,
            _ => self,
        };
        // Packed keys sort in coordinate order.
        let mut order: Vec<(K, u32)> = groups.slots.keys().iter().copied().zip(0..).collect();
        order.sort_unstable();
        let mut out = Mo::new(Arc::clone(schema));
        out.reserve(order.len());
        let (mut coords, mut values) = (Vec::new(), Vec::new());
        for (key, s) in order {
            pk.unpack(key.into(), &mut coords);
            groups
                .accs
                .values(s, &mut values)
                .map_err(|m| schema.measure_overflow(m, &coords))?;
            out.insert_fact_at(&coords, &values, ORIGIN_USER)?;
        }
        Ok(out)
    }

    /// LUB: every distinct direct cell rolled up to the uniform target
    /// (memoized per direct value, like the other approaches' targets),
    /// merged by target cell.
    fn roll_up(self, scan: &Scan, pk: &KeyPacker) -> Result<Groups<K>, QueryError> {
        let schema = &*scan.schema;
        let mut fields: Vec<DimTables<K>> = scan.memos(every_dim(schema));
        let mut up = Groups::new(scan, self.lub.clone(), Vec::new());
        let mut coords = Vec::new();
        for (src, &key) in self.slots.keys().iter().enumerate() {
            pk.unpack(key.into(), &mut coords);
            let mut target = K::from_wide(0);
            for (d, (&v, memo)) in coords.iter().zip(&mut fields).enumerate() {
                target = target
                    | memo.get_or_make(v.cat.0, v.code, || {
                        let t = schema.dim(DimId(d as u16)).rollup(v, self.lub[d])?;
                        Ok::<_, QueryError>(K::from_wide(pk.field(d, t)))
                    })?;
            }
            let (dst, _) = up.slot(target);
            up.accs.absorb(dst, &self.accs, src as u32);
        }
        Ok(up)
    }
}

/// Dimension `d`'s key field for the direct value `(cat, code)`: its
/// target value's, or `None` when a strict aggregation excludes it.
fn target_field<K: PackedKey>(
    schema: &Schema,
    pk: &KeyPacker,
    d: usize,
    req: CatId,
    approach: AggApproach,
    cat: u8,
    code: u64,
) -> Result<Option<K>, QueryError> {
    let dim = schema.dim(DimId(d as u16));
    let g = dim.graph();
    let v = DimValue {
        cat: CatId(cat),
        code,
    };
    let tc = match approach {
        AggApproach::Availability => Some(g.lub(req, v.cat)),
        AggApproach::Strict => g.leq(v.cat, req).then_some(req),
        _ => unreachable!("LUB groups direct cells, disaggregated row at a time"),
    };
    let target = tc.map(|tc| dim.rollup(v, tc)).transpose()?;
    Ok(target.map(|t| K::from_wide(pk.field(d, t))))
}

impl ScanAcc<'_> {
    /// Scans one run of the input, after the runs fed before it.
    pub fn feed(&mut self, mo: &Mo) -> Result<(), QueryError> {
        sdr_mdm::check_same_schema(&self.scan.schema, mo.schema())?;
        let kept = match &mut self.state {
            State::Narrow(k) => k.feed(self.scan, mo, &mut self.keep)?,
            State::Wide(k) => k.feed(self.scan, mo, &mut self.keep)?,
        };
        self.visited += mo.len() as u64;
        self.kept += kept;
        Ok(())
    }

    /// Merges `other` — an accumulator of the same scan, fed other runs —
    /// into this one: its groups by packed key (its kept rows, on the
    /// row-at-a-time path) and its counts. The answer
    /// [`finish`](ScanAcc::finish) then gives is the one a single
    /// accumulator fed both sets of runs gives.
    pub fn absorb(&mut self, other: ScanAcc<'_>) {
        debug_assert!(std::ptr::eq(self.scan, other.scan), "one scan");
        if sdr_obs::enabled() {
            other.record_memos();
        }
        self.visited += other.visited;
        self.kept += other.kept;
        match (&mut self.state, other.state) {
            (State::Narrow(a), State::Narrow(b)) => a.absorb(&self.scan.schema, b),
            (State::Wide(a), State::Wide(b)) => a.absorb(&self.scan.schema, b),
            _ => unreachable!("accumulators of one scan share their key width"),
        }
    }

    /// The chunk verdict: whether a run whose distinct `(cat, code)`
    /// values per dimension are `values` may hold a row this scan's
    /// selection keeps — `false` only when no cell of their product can
    /// ([`LeafMaskPlan::any_in_product`], on this accumulator's memo,
    /// which the scan then reuses). Conservative and liberal selections
    /// judge their own plan. A weighted one with threshold `t > 0`
    /// judges its plan liberal: a weight `≥ t` needs every leaf of some
    /// conjunction to weigh more than 0, and a leaf weighs more than 0
    /// exactly when it holds liberally. No predicate, or `t ≤ 0`, keeps
    /// every run.
    pub fn may_keep(&mut self, values: &[Vec<(u8, u64)>]) -> Result<bool, QueryError> {
        let schema = &self.scan.schema;
        match &mut self.state {
            State::Narrow(k) => k.may_keep(schema, values),
            State::Wide(k) => k.may_keep(schema, values),
        }
    }

    /// Rows fed so far.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Fed rows the selection kept.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// The memo sizes: the selection's distinct values or cells, and the
    /// aggregation's distinct direct values.
    fn record_memos(&self) {
        let packed = self.scan.packer.is_some();
        let (select, targets) = match &self.state {
            State::Narrow(k) => (k.select_memo(packed), k.out.targets()),
            State::Wide(k) => (k.select_memo(packed), k.out.targets()),
        };
        if let Some((name, n)) = select {
            sdr_obs::add(name, n as u64);
        }
        if let Some(t) = targets {
            sdr_obs::add("query.aggregate.kernel.distinct_dim_values", t as u64);
        }
    }

    /// The aggregated answer over every fed row.
    pub fn finish(self) -> Result<Mo, QueryError> {
        let (_, approach) = self.scan.group.as_ref().expect("an aggregating scan");
        let enabled = sdr_obs::enabled();
        if enabled {
            self.record_memos();
        }
        let out = match self.state {
            State::Narrow(k) => k.out.finish(self.scan)?,
            State::Wide(k) => k.out.finish(self.scan)?,
        };
        if enabled {
            sdr_obs::add(approach.visited_metric(), self.kept);
            sdr_obs::add("query.aggregate.cells_produced", out.len() as u64);
        }
        Ok(out)
    }

    /// A selection-only scan of `mo`: `mo` itself when every row is
    /// kept, else the kept rows copied out.
    pub(crate) fn filter<'m>(mut self, mo: &'m Mo) -> Result<Cow<'m, Mo>, QueryError> {
        debug_assert!(self.scan.group.is_none());
        sdr_mdm::check_same_schema(&self.scan.schema, mo.schema())?;
        let all = match &mut self.state {
            State::Narrow(k) => k.select(self.scan, mo, &mut self.keep)?,
            State::Wide(k) => k.select(self.scan, mo, &mut self.keep)?,
        };
        if sdr_obs::enabled() {
            self.record_memos();
        }
        Ok(if all {
            Cow::Borrowed(mo)
        } else {
            Cow::Owned(mo.gather(&self.keep))
        })
    }
}

impl<K: PackedKey> Out<K> {
    /// The aggregation's memoized distinct direct values (keyed
    /// availability and strict only).
    fn targets(&self) -> Option<usize> {
        match self {
            Out::Groups(g) if !g.targets.is_empty() => Some(filled(&g.targets)),
            _ => None,
        }
    }

    fn finish(self, scan: &Scan) -> Result<Mo, QueryError> {
        match self {
            Out::Groups(g) => {
                if sdr_obs::enabled() {
                    let distinct = g.slots.len() as u64;
                    sdr_obs::add("query.aggregate.kernel.distinct_cells", distinct);
                }
                g.finish(scan)
            }
            Out::Rows(parts) => {
                let (levels, approach) = scan.group.as_ref().expect("an aggregating scan");
                let parts: Vec<&Mo> = parts.iter().collect();
                aggregate_rows_naive(&scan.schema, &parts, levels, *approach)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{aggregate_ids, select};
    use sdr_mdm::calendar::days_from_civil;
    use sdr_reduce::{reduce, DataReductionSpec};
    use sdr_spec::{parse_action, parse_pexp};
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};

    fn rows(mo: &Mo) -> Vec<(String, u32)> {
        mo.facts()
            .map(|f| (mo.render_fact(f), mo.store().origin[f.index()]))
            .collect()
    }

    /// `mo` cut into `n` runs of near-equal length, in row order.
    fn split(mo: &Mo, n: usize) -> Vec<Mo> {
        let step = mo.len().div_ceil(n);
        (0..n)
            .map(|i| {
                let rows: Vec<u32> = (i * step..mo.len().min((i + 1) * step))
                    .map(|r| r as u32)
                    .collect();
                mo.gather(&rows)
            })
            .collect()
    }

    /// `mo` plus one fact on the first and one on the last day of the
    /// schema horizon, so a day table spans its category's whole domain.
    fn with_horizon_ends(mo: &Mo) -> Mo {
        let time = &mo.schema().dims[0];
        let sdr_mdm::Dimension::Time(t) = time else {
            panic!("the paper's first dimension is Time")
        };
        let code = |d| sdr_mdm::TimeValue::Day(d).code();
        assert_eq!(time.min_code(sdr_mdm::time_cat::DAY), code(t.min_day));
        let mut out = mo.clone();
        let f = sdr_mdm::FactId(0);
        for day in [t.max_day, t.min_day] {
            let mut coords = mo.coords(f);
            coords[0] = DimValue::new(sdr_mdm::time_cat::DAY, code(day));
            out.insert_fact(&coords, &mo.measures_of(f)).unwrap();
        }
        out
    }

    /// One scan fed an MO in 1, 2 or 7 runs — in row order, in reverse
    /// run order (the tables re-base downward), or split over two
    /// accumulators that are then absorbed — answers exactly what the
    /// operators answer on the whole MO, row for row, under every select
    /// mode and approach: on raw facts, on reduced ones, whose varying
    /// granularities exercise LUB, strict and the weighted mode, and on
    /// raw facts that reach both ends of the schema horizon.
    #[test]
    fn a_scan_over_runs_equals_the_operators_on_the_whole() {
        let (raw, _) = paper_mo();
        let schema = Arc::clone(raw.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
        let now = days_from_civil(2000, 11, 5);
        let reduced = reduce(&raw, &spec, now).unwrap();
        let ends = with_horizon_ends(&raw);
        let (_, grp) = schema.resolve_cat("URL.domain_grp").unwrap();
        let (_, domain) = schema.resolve_cat("URL.domain").unwrap();
        let preds = [
            "Time.month <= 1999/12",
            "URL.domain_grp = .com AND Time.quarter >= 1999Q4",
            "URL.domain = cnn.com OR Time.month IN {2000/1, 2000/2}",
            "NOT (URL.domain_grp = .edu)",
        ];
        let modes = [
            SelectMode::Conservative,
            SelectMode::Liberal,
            SelectMode::Weighted { threshold: 0.5 },
            SelectMode::Weighted { threshold: 0.0 },
        ];
        let approaches = [
            AggApproach::Availability,
            AggApproach::Strict,
            AggApproach::Lub,
            AggApproach::Disaggregated,
        ];
        let levels = [
            vec![sdr_mdm::time_cat::MONTH, grp],
            vec![sdr_mdm::time_cat::QUARTER, domain],
            vec![sdr_mdm::time_cat::DAY, domain],
        ];
        let mut compared = 0;
        for mo in [&raw, &reduced, &ends] {
            for pred in preds {
                let p = parse_pexp(&schema, pred).unwrap();
                for mode in modes {
                    let selected = select(mo, &p, now, mode).unwrap();
                    for lv in &levels {
                        for approach in approaches {
                            let want = rows(&aggregate_ids(&selected, lv, approach).unwrap());
                            let scan =
                                Scan::compile(&schema, Some(&p), now, mode, lv, approach).unwrap();
                            for n in [1, 2, 7] {
                                let runs = split(mo, n);
                                let mut forward = scan.start();
                                let mut reverse = scan.start();
                                let (mut left, mut right) = (scan.start(), scan.start());
                                for (i, run) in runs.iter().enumerate() {
                                    forward.feed(run).unwrap();
                                    reverse.feed(&runs[n - 1 - i]).unwrap();
                                    let half = if i % 2 == 0 { &mut left } else { &mut right };
                                    half.feed(run).unwrap();
                                }
                                left.absorb(right);
                                for (how, acc) in [
                                    ("forward", forward),
                                    ("reverse", reverse),
                                    ("absorbed", left),
                                ] {
                                    assert_eq!(acc.visited(), mo.len() as u64);
                                    assert_eq!(acc.kept(), selected.len() as u64);
                                    let got = rows(&acc.finish().unwrap());
                                    let ctx =
                                        format!("{pred} {mode:?} {approach:?} {n} runs {how}");
                                    assert_eq!(got, want, "{ctx}");
                                    compared += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 3 * 4 * 4 * 3 * 4 * 3 * 3);
    }
}
