//! One compiled scan: selection `σ[p]` and aggregate formation
//! `α[C₁…Cₙ]` fused into a single pass over any number of fact runs.
//!
//! A [`Scan`] is compiled once per query — the predicate to DNF with
//! every `NOW` term resolved (`CompiledSelect`), its per-dimension mask
//! plan (`SelMaskPlan`), the target levels, the approach and the key
//! packer — and is then shared read-only by every worker. Each worker
//! starts a [`ScanAcc`] and [`feed`](ScanAcc::feed)s it the runs of one
//! input in row order (a warehouse cube's chunks, or a single MO); the
//! accumulator carries across runs everything the kernels memoize:
//!
//! * the per-dimension select masks (or the per-cell decisions of the
//!   weighted mode), keyed by distinct dimension value / packed cell;
//! * the per-dimension aggregate targets (availability, strict), or the
//!   LUB approach's direct-cell groups and its uniform target;
//! * the packed-key group map and its accumulators.
//!
//! A run's kept rows are found first (row indices into the run, in a
//! buffer reused across runs) and then folded straight into the group
//! map: no row is copied. [`finish`](ScanAcc::finish) sorts the groups
//! by coordinates — packed keys are injective on cells, so this
//! reproduces the reference `BTreeMap` order exactly — or, for LUB,
//! rolls the distinct direct cells up to the target folded over every
//! fed row. Measure folds are reassociated across runs only for the
//! (commutative, associative) built-in `AggFn`s, so the answer is the
//! one a scan of the concatenated runs gives, bit for bit.
//!
//! Without a key packer (a schema too wide for 128 bits) and for the
//! disaggregated approach, whose fan-out is not cell-local, the kept
//! rows are remembered per run instead and aggregated row at a time at
//! the end (`aggregate_rows_naive`). A scan with no aggregation
//! (`Scan::selection`, behind [`crate::select_view`]) returns the kept
//! rows themselves.
//!
//! [`crate::select_view`] and [`crate::aggregate_ids`] are this scan over
//! one MO; nothing else implements either kernel.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use sdr_mdm::{
    CatId, DayNum, DimId, DimValue, FactId, FxHashMap, KeyPacker, Mo, PackedKey, Schema,
    ORIGIN_USER,
};
use sdr_spec::Pexp;

use crate::aggregate::{aggregate_rows_naive, AggApproach};
use crate::compare::SelectMode;
use crate::error::QueryError;
use crate::select::{CompiledSelect, SelMaskPlan};

/// A compiled predicate plus the kernel that evaluates it.
struct Selection {
    compiled: CompiledSelect,
    /// The per-dimension mask plan: boolean modes with ≤ 64 atom
    /// occurrences. Otherwise decisions are memoized per packed cell
    /// (or, without a packer, made row by row).
    masks: Option<SelMaskPlan>,
    mode: SelectMode,
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
        let select = match pred {
            Some(p) => {
                let compiled = CompiledSelect::compile(schema, p, now)?;
                let masks = match mode {
                    SelectMode::Weighted { .. } => None,
                    _ => SelMaskPlan::build(&compiled),
                };
                Some(Selection {
                    compiled,
                    masks,
                    mode,
                })
            }
            None => None,
        };
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

    /// A fresh accumulator for one input.
    pub fn start<'m>(&self) -> ScanAcc<'_, 'm> {
        let masks = self.select.as_ref().and_then(|s| s.masks.as_ref());
        let state = match &self.packer {
            Some(pk) if pk.fits64() => State::Narrow(Keyed::new(self, masks)),
            _ => State::Wide(Keyed::new(self, masks)),
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
}

/// The state of one scan over one input, carried across its runs.
pub struct ScanAcc<'s, 'm> {
    scan: &'s Scan,
    state: State<'m>,
    /// The current run's kept rows (reused across runs).
    keep: Vec<u32>,
    visited: u64,
    kept: u64,
}

enum State<'m> {
    Narrow(Keyed<'m, u64>),
    Wide(Keyed<'m, u128>),
}

/// The memo and group state of one scan, over packed keys `K`.
struct Keyed<'m, K> {
    /// Per mask-plan dimension: distinct value → satisfied-bit mask.
    masks: Vec<FxHashMap<(u8, u64), u64>>,
    /// Packed direct cell → decision (weighted mode, wide predicates).
    cells: FxHashMap<K, bool>,
    out: Out<'m, K>,
}

/// A run and its kept rows (`None`: every row).
type Part<'m> = (&'m Mo, Option<Vec<u32>>);

enum Out<'m, K> {
    /// The kept rows of every run: a selection's result, or the input of
    /// the row-at-a-time aggregation.
    Rows(Vec<Part<'m>>),
    /// The packed-key group map.
    Groups(Groups<K>),
}

/// One output cell's coordinates and measure accumulators.
type Group = (Vec<DimValue>, Vec<i64>);

struct Groups<K> {
    /// Availability / strict: per dimension, distinct direct value → its
    /// target value (`None`: excluded by a strict aggregation).
    targets: Vec<FxHashMap<(u8, u64), Option<DimValue>>>,
    /// Packed target cell (availability, strict) or packed direct cell
    /// (LUB) → slot in `groups`.
    slots: FxHashMap<K, u32>,
    /// Accumulators in first-seen order.
    groups: Vec<Group>,
    /// LUB: the uniform target, folded over every fed row's categories.
    lub: Vec<CatId>,
    tbuf: Vec<DimValue>,
}

impl<'m, K: PackedKey> Keyed<'m, K> {
    fn new(scan: &Scan, masks: Option<&SelMaskPlan>) -> Keyed<'m, K> {
        let out = match &scan.group {
            Some((levels, _)) if scan.keyed_groups() => Out::Groups(Groups {
                targets: levels.iter().map(|_| FxHashMap::default()).collect(),
                slots: FxHashMap::default(),
                groups: Vec::new(),
                lub: levels.clone(),
                tbuf: Vec::with_capacity(levels.len()),
            }),
            _ => Out::Rows(Vec::new()),
        };
        Keyed {
            masks: masks.map_or_else(Vec::new, |m| {
                m.dims.iter().map(|_| FxHashMap::default()).collect()
            }),
            cells: FxHashMap::default(),
            out,
        }
    }

    /// One run: its kept rows into `keep`, then into the output.
    fn feed(&mut self, scan: &Scan, mo: &'m Mo, keep: &mut Vec<u32>) -> Result<u64, QueryError> {
        let all = match &scan.select {
            None => true,
            Some(sel) => {
                keep.clear();
                self.select(scan, sel, mo, keep)?;
                keep.len() == mo.len()
            }
        };
        let kept = if all { mo.len() } else { keep.len() } as u64;
        match &mut self.out {
            Out::Rows(parts) => {
                if kept > 0 {
                    parts.push((mo, (!all).then(|| keep.clone())));
                }
            }
            Out::Groups(g) => {
                let (levels, approach) = scan.group.as_ref().expect("a grouping scan");
                let pk = scan.packer.as_ref().expect("a keyed scan");
                if all {
                    g.fold(mo, 0..mo.len(), levels, *approach, pk)?;
                } else {
                    g.fold(mo, keep.iter().map(|&r| r as usize), levels, *approach, pk)?;
                }
            }
        }
        Ok(kept)
    }

    /// The selection kernels: per-dimension masks for boolean modes,
    /// per-cell memo otherwise, row at a time without a packer.
    fn select(
        &mut self,
        scan: &Scan,
        sel: &Selection,
        mo: &Mo,
        keep: &mut Vec<u32>,
    ) -> Result<(), QueryError> {
        let schema = &*scan.schema;
        let store = mo.store();
        let compiled = &sel.compiled;
        if let Some(plan) = &sel.masks {
            for i in 0..mo.len() {
                let mut sat = 0u64;
                for (memo, (dim, atoms)) in self.masks.iter_mut().zip(&plan.dims) {
                    let d = dim.index();
                    let (cat, code) = (store.cats[d][i], store.codes[d][i]);
                    sat |= match memo.get(&(cat, code)) {
                        Some(&m) => m,
                        None => {
                            let v = DimValue {
                                cat: CatId(cat),
                                code,
                            };
                            let mut m = 0u64;
                            for &(b, ci, ai) in atoms {
                                let atom = &compiled.dnf[ci][ai];
                                if compiled.eval_atom_value(schema, atom, v, sel.mode)? {
                                    m |= b;
                                }
                            }
                            memo.insert((cat, code), m);
                            m
                        }
                    };
                }
                if plan.conj_masks.iter().any(|&cm| cm & !sat == 0) {
                    keep.push(i as u32);
                }
            }
        } else if let Some(pk) = &scan.packer {
            for f in mo.facts() {
                let key = K::from_wide(pk.pack_row(store, f));
                let dec = match self.cells.get(&key) {
                    Some(&d) => d,
                    None => {
                        let d = compiled.decide_cell(schema, &mo.coords(f), sel.mode)?;
                        self.cells.insert(key, d);
                        d
                    }
                };
                if dec {
                    keep.push(f.0);
                }
            }
        } else {
            for f in mo.facts() {
                if compiled.decide_cell(schema, &mo.coords(f), sel.mode)? {
                    keep.push(f.0);
                }
            }
        }
        Ok(())
    }
}

/// A fresh accumulator row: each measure's aggregate identity.
fn identity_acc(schema: &Schema) -> Vec<i64> {
    schema.measures.iter().map(|m| m.agg.identity()).collect()
}

/// Folds measure row `fi` of `mo` into the group `(cell, acc)`.
fn combine_row(
    schema: &Schema,
    (cell, acc): &mut (Vec<DimValue>, Vec<i64>),
    mo: &Mo,
    fi: usize,
) -> Result<(), QueryError> {
    let measures = &mo.store().measures;
    let folded = schema.fold_measures(acc, |j| measures[j][fi]);
    Ok(folded.map_err(|m| schema.measure_overflow(m, cell))?)
}

impl<K: PackedKey> Groups<K> {
    /// Folds `rows` of `mo` into the group map.
    fn fold(
        &mut self,
        mo: &Mo,
        rows: impl Iterator<Item = usize>,
        levels: &[CatId],
        approach: AggApproach,
        pk: &KeyPacker,
    ) -> Result<(), QueryError> {
        let schema = &**mo.schema();
        let store = mo.store();
        if approach == AggApproach::Lub {
            // Group by *direct* cell while folding the uniform target
            // (LUB over distinct cells equals LUB over all rows —
            // idempotent); `finish` rolls the few distinct cells up.
            for fi in rows {
                let f = FactId(fi as u32);
                let key = K::from_wide(pk.pack_row(store, f));
                let slot = match self.slots.get(&key) {
                    Some(&s) => s,
                    None => {
                        let coords = mo.coords(f);
                        for (i, tc) in self.lub.iter_mut().enumerate() {
                            *tc = schema.dims[i].graph().lub(*tc, coords[i].cat);
                        }
                        let s = self.groups.len() as u32;
                        self.groups.push((coords, identity_acc(schema)));
                        self.slots.insert(key, s);
                        s
                    }
                };
                combine_row(schema, &mut self.groups[slot as usize], mo, fi)?;
            }
            return Ok(());
        }
        // Availability / strict: a row's target value in each dimension
        // is a function of its direct value in that dimension alone, so
        // the lattice walk (lub/leq + rollup) is memoized per distinct
        // dimension value — a domain orders of magnitude smaller than
        // distinct cells, which on raw data are nearly one per row.
        'row: for fi in rows {
            self.tbuf.clear();
            for (i, &req) in levels.iter().enumerate() {
                let (cat, code) = (store.cats[i][fi], store.codes[i][fi]);
                let tv = match self.targets[i].get(&(cat, code)) {
                    Some(&t) => t,
                    None => {
                        let dim = schema.dim(DimId(i as u16));
                        let g = dim.graph();
                        let v = DimValue {
                            cat: CatId(cat),
                            code,
                        };
                        let tc = match approach {
                            AggApproach::Availability => Some(g.lub(req, v.cat)),
                            AggApproach::Strict => g.leq(v.cat, req).then_some(req),
                            _ => unreachable!("LUB above, disaggregated row at a time"),
                        };
                        let t = tc.map(|tc| dim.rollup(v, tc)).transpose()?;
                        self.targets[i].insert((cat, code), t);
                        t
                    }
                };
                match tv {
                    Some(t) => self.tbuf.push(t),
                    None => continue 'row,
                }
            }
            let key = K::from_wide(pk.pack_coords(&self.tbuf));
            let slot = match self.slots.get(&key) {
                Some(&s) => s,
                None => {
                    let s = self.groups.len() as u32;
                    self.slots.insert(key, s);
                    self.groups.push((self.tbuf.clone(), identity_acc(schema)));
                    s
                }
            };
            combine_row(schema, &mut self.groups[slot as usize], mo, fi)?;
        }
        Ok(())
    }

    /// The groups as an MO over `schema`, in coordinate order.
    fn finish(self, schema: &Arc<Schema>, approach: AggApproach) -> Result<Mo, QueryError> {
        if sdr_obs::enabled() {
            sdr_obs::add(
                "query.aggregate.kernel.distinct_cells",
                self.slots.len() as u64,
            );
            if approach != AggApproach::Lub {
                let dvals: usize = self.targets.iter().map(|m| m.len()).sum();
                sdr_obs::add("query.aggregate.kernel.distinct_dim_values", dvals as u64);
            }
        }
        let mut groups = self.groups;
        if approach == AggApproach::Lub {
            // Roll each distinct direct cell up to the uniform target and
            // merge partials (AggFns are commutative and associative).
            let mut merged: BTreeMap<Vec<DimValue>, Vec<i64>> = BTreeMap::new();
            for (coords, acc) in groups {
                let key: Vec<DimValue> = coords
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| schema.dim(DimId(i as u16)).rollup(v, self.lub[i]))
                    .collect::<Result<_, _>>()?;
                schema.fold_into_group(&mut merged, key, |j| acc[j])?;
            }
            groups = merged.into_iter().collect();
        } else {
            groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        let mut out = Mo::new(Arc::clone(schema));
        out.reserve(groups.len());
        for (coords, ms) in groups {
            out.insert_fact_at(&coords, &ms, ORIGIN_USER)?;
        }
        Ok(out)
    }
}

impl<'m> ScanAcc<'_, 'm> {
    /// Scans one run of the input, after the runs fed before it.
    pub fn feed(&mut self, mo: &'m Mo) -> Result<(), QueryError> {
        sdr_mdm::check_same_schema(&self.scan.schema, mo.schema())?;
        let kept = match &mut self.state {
            State::Narrow(k) => k.feed(self.scan, mo, &mut self.keep)?,
            State::Wide(k) => k.feed(self.scan, mo, &mut self.keep)?,
        };
        self.visited += mo.len() as u64;
        self.kept += kept;
        Ok(())
    }

    /// Rows fed so far.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Fed rows the selection kept.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// The selection's distinct-value and distinct-cell memo sizes.
    fn record_select(&self) {
        let (masks, cells) = match &self.state {
            State::Narrow(k) => (&k.masks, k.cells.len()),
            State::Wide(k) => (&k.masks, k.cells.len()),
        };
        match self.scan.select.as_ref().map(|s| s.masks.is_some()) {
            Some(true) => {
                let distinct: usize = masks.iter().map(|m| m.len()).sum();
                sdr_obs::add("query.select.kernel.distinct_dim_values", distinct as u64);
            }
            Some(false) if self.scan.packer.is_some() => {
                sdr_obs::add("query.select.kernel.distinct_cells", cells as u64);
            }
            _ => {}
        }
    }

    /// The aggregated answer over every fed row.
    pub fn finish(self) -> Result<Mo, QueryError> {
        let (levels, approach) = self.scan.group.as_ref().expect("an aggregating scan");
        let enabled = sdr_obs::enabled();
        if enabled {
            self.record_select();
        }
        let schema = &self.scan.schema;
        let out = match self.state {
            State::Narrow(Keyed {
                out: Out::Groups(g),
                ..
            }) => g.finish(schema, *approach)?,
            State::Wide(Keyed {
                out: Out::Groups(g),
                ..
            }) => g.finish(schema, *approach)?,
            State::Narrow(Keyed {
                out: Out::Rows(parts),
                ..
            })
            | State::Wide(Keyed {
                out: Out::Rows(parts),
                ..
            }) => aggregate_rows_naive(schema, &parts, levels, *approach)?,
        };
        if enabled {
            sdr_obs::add(approach.visited_metric(), self.kept);
            sdr_obs::add("query.aggregate.cells_produced", out.len() as u64);
        }
        Ok(out)
    }

    /// A selection-only scan's kept rows, over the one run it was fed:
    /// that run itself when every row was kept, else the kept rows copied
    /// out.
    pub(crate) fn finish_rows(self) -> Cow<'m, Mo> {
        debug_assert!(self.scan.group.is_none());
        if sdr_obs::enabled() {
            self.record_select();
        }
        let mut parts = match self.state {
            State::Narrow(Keyed {
                out: Out::Rows(p), ..
            })
            | State::Wide(Keyed {
                out: Out::Rows(p), ..
            }) => p,
            _ => unreachable!("a selection-only scan keeps rows"),
        };
        debug_assert!(parts.len() <= 1, "a selection is fed one run");
        match parts.pop() {
            Some((mo, None)) => Cow::Borrowed(mo),
            Some((mo, Some(rows))) => Cow::Owned(mo.gather(&rows)),
            None => Cow::Owned(Mo::new(Arc::clone(&self.scan.schema))),
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

    /// One scan fed an MO in 1, 2 or 7 runs answers exactly what the
    /// operators answer on the whole MO, row for row, under every select
    /// mode and approach — on raw facts and on reduced ones, whose
    /// varying granularities exercise LUB, strict and the weighted mode.
    #[test]
    fn a_scan_over_runs_equals_the_operators_on_the_whole() {
        let (raw, _) = paper_mo();
        let schema = Arc::clone(raw.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
        let now = days_from_civil(2000, 11, 5);
        let reduced = reduce(&raw, &spec, now).unwrap();
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
        ];
        let mut compared = 0;
        for mo in [&raw, &reduced] {
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
                                let mut acc = scan.start();
                                for run in &runs {
                                    acc.feed(run).unwrap();
                                }
                                assert_eq!(acc.visited(), mo.len() as u64);
                                assert_eq!(acc.kept(), selected.len() as u64);
                                let got = rows(&acc.finish().unwrap());
                                let ctx = format!("{pred} {mode:?} {approach:?} {n} runs");
                                assert_eq!(got, want, "{ctx}");
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 2 * 4 * 4 * 2 * 4 * 3);
    }
}
