//! The benchmark's data set and warehouse construction.
//!
//! **`clickstream-600`**: `sdr_workload::generate` with the run's seed,
//! from 1999/01/01, 600 clicks a day (512 URLs / 32 domains / 4 groups,
//! Zipf 1.0), schema horizon 1998–2006, under `retention_policy(6, 36)`:
//! raw clicks for six months, month × domain summaries to 36 months,
//! quarter × domain-group summaries after that. A workload pre-loads the
//! prefix up to its *cut* day (bulk load, one `sync`, one checkpoint) and
//! keeps the days after the cut as one batch per simulated day for its
//! writer. The program only ever sees these generated inputs.

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sdr_mdm::calendar::{civil_from_days, days_from_civil};
use sdr_mdm::{time_cat, DayNum, DimId, DimValue, Mo, Schema, TimeValue};
use sdr_reduce::DataReductionSpec;
use sdr_storage::{Fs, RealFs};
use sdr_subcube::{ShardRouter, ShardViewSet, SubcubeManager};
use sdr_workload::{generate, retention_policy, ClickstreamConfig};

use crate::metered_fs::MeteredFs;
use crate::trace::Recorder;

/// Mean clicks generated per simulated day.
pub const CLICKS_PER_DAY: usize = 600;
/// Shards of every warehouse the benchmark builds (the box has 2 cores).
pub const SHARDS: usize = 2;
/// First day of generated data.
pub const DATA_START: (i32, u32, u32) = (1999, 1, 1);
/// Last day any workload may generate data for (inside the horizon, with
/// room for the un-synchronized query's look-ahead).
pub const DATA_END: (i32, u32, u32) = (2005, 12, 28);
/// The schema's time horizon.
pub const HORIZON: ((i32, u32, u32), (i32, u32, u32)) = ((1998, 1, 1), (2006, 12, 31));
/// A checkpoint every this many simulated days on the write path.
pub const CHECKPOINT_EVERY: usize = 30;

/// One generated data set, split at the workload's cut day.
pub struct Dataset {
    pub schema: Arc<Schema>,
    pub spec: DataReductionSpec,
    /// Every fact dated on or before `cut` — the pre-load.
    pub pre: Mo,
    /// One batch per simulated day after `cut`, in day order.
    pub days: Vec<(DayNum, Mo)>,
    pub cut: DayNum,
}

impl Dataset {
    /// Generates the data set for `seed` from [`DATA_START`] through
    /// `cut` plus `tail_days` simulated days (clamped to [`DATA_END`]).
    pub fn generate(seed: u64, cut: (i32, u32, u32), tail_days: usize) -> Dataset {
        Self::generate_sized(seed, cut, tail_days, CLICKS_PER_DAY)
    }

    /// [`Dataset::generate`] at another daily volume (the unit tests use
    /// a small one).
    pub fn generate_sized(
        seed: u64,
        cut: (i32, u32, u32),
        tail_days: usize,
        clicks_per_day: usize,
    ) -> Dataset {
        let cut = days_from_civil(cut.0, cut.1, cut.2);
        let end = days_from_civil(DATA_END.0, DATA_END.1, DATA_END.2);
        let last = cut
            .saturating_add(DayNum::try_from(tail_days).unwrap_or(DayNum::MAX))
            .min(end);
        let cs = generate(&ClickstreamConfig {
            seed,
            clicks_per_day,
            start: DATA_START,
            end: civil_from_days(last),
            horizon: HORIZON,
            ..Default::default()
        });
        let actions = retention_policy(6, 36)
            .iter()
            .map(|src| sdr_spec::parse_action(&cs.schema, src).expect("retention policy parses"))
            .collect();
        let spec =
            DataReductionSpec::new(Arc::clone(&cs.schema), actions).expect("policy is sound");

        // The generator emits facts in day order: the pre-load is a prefix
        // and each later day a contiguous run of rows.
        let day_of = |f| {
            let code = cs.mo.value(f, DimId(0)).code;
            match TimeValue::from_code(time_cat::DAY, code) {
                Ok(TimeValue::Day(d)) => d,
                other => panic!("generated fact is not day-granular: {other:?}"),
            }
        };
        let mut pre_rows: Vec<u32> = Vec::new();
        let mut day_rows: Vec<(DayNum, Vec<u32>)> = Vec::new();
        for f in cs.mo.facts() {
            let (day, row) = (day_of(f), f.index() as u32);
            if day <= cut {
                pre_rows.push(row);
            } else {
                match day_rows.last_mut() {
                    Some((d, rows)) if *d == day => rows.push(row),
                    _ => day_rows.push((day, vec![row])),
                }
            }
        }
        Dataset {
            pre: cs.mo.gather(&pre_rows),
            days: day_rows
                .into_iter()
                .map(|(d, rows)| (d, cs.mo.gather(&rows)))
                .collect(),
            schema: cs.schema,
            spec,
            cut,
        }
    }
}

/// A warehouse on disk under the benchmark's scratch directory, removed
/// when dropped.
pub struct Warehouse {
    pub dir: PathBuf,
    /// The filesystem the router was created over — kept so restart
    /// cycles recover through the same (possibly metered) handle.
    pub fs: Arc<dyn Fs>,
    /// `Some` in traced runs.
    pub metered: Option<Arc<MeteredFs>>,
    /// Facts handed to `bulk_load` so far.
    pub facts_loaded: u64,
}

impl Drop for Warehouse {
    fn drop(&mut self) {
        // Best effort: a leftover directory is under the ignored `out/`.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The filesystem for a run: the shipped [`RealFs`] untraced, the same
/// behind [`MeteredFs`] when traced.
pub fn make_fs(rec: Option<&Arc<Recorder>>) -> (Arc<dyn Fs>, Option<Arc<MeteredFs>>) {
    match rec {
        Some(rec) => {
            let m = MeteredFs::new(Arc::clone(rec));
            (Arc::clone(&m) as Arc<dyn Fs>, Some(m))
        }
        None => (RealFs::shared(), None),
    }
}

impl Warehouse {
    /// Creates a [`SHARDS`]-shard warehouse in `dir`, bulk-loads the
    /// pre-load, synchronizes to the cut day and checkpoints.
    pub fn build(
        ds: &Dataset,
        dir: &Path,
        rec: Option<&Arc<Recorder>>,
    ) -> (Warehouse, ShardRouter) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create warehouse dir");
        let (fs, metered) = make_fs(rec);
        let router = ShardRouter::create_with_fs(ds.spec.clone(), dir, SHARDS, Arc::clone(&fs))
            .expect("create warehouse");
        router.bulk_load(&ds.pre).expect("pre-load");
        router.sync(ds.cut).expect("pre-load sync");
        router.checkpoint().expect("pre-load checkpoint");
        let wh = Warehouse {
            dir: dir.to_path_buf(),
            fs,
            metered,
            facts_loaded: ds.pre.len() as u64,
        };
        (wh, router)
    }

    /// Filesystem counters so far (zero when not metered).
    pub fn fs_counts(&self) -> crate::metered_fs::FsCounts {
        self.metered
            .as_ref()
            .map(|m| m.counts())
            .unwrap_or_default()
    }
}

/// The state a workload starts its timed window from.
pub struct Prepared {
    pub ds: Dataset,
    pub wh: Warehouse,
    /// The router over `wh` (separate so a restart can drop it).
    pub router: Arc<ShardRouter>,
    pub costs: SetupCosts,
}

/// What setting up cost: two of the end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct SetupCosts {
    /// Median wall time of the set-ups made (generate + pre-load + sync +
    /// checkpoint + whatever `extra` does).
    pub setup_s: f64,
    /// Bytes under the warehouse directory right after the pre-load
    /// checkpoint, per fact loaded: the stored size the specification
    /// buys. A pure function of the seed.
    pub bytes_per_fact: f64,
}

/// How many times a run sets up; the reported set-up time is the median.
pub const SETUP_REPS: usize = 3;

/// Sets up [`SETUP_REPS`] times (each in a fresh directory, the previous
/// one dropped first) and keeps the last.
pub fn prepare(
    scratch: &Path,
    rec: Option<&Arc<Recorder>>,
    make: impl Fn() -> Dataset,
    extra: impl Fn(&Dataset, &mut Warehouse, &ShardRouter),
) -> Prepared {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let ds = make();
        let (mut wh, router) = Warehouse::build(&ds, &scratch.join(format!("wh-{rep}")), rec);
        let bytes_per_fact = dir_bytes(&wh.dir) as f64 / wh.facts_loaded as f64;
        extra(&ds, &mut wh, &router);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((ds, wh, router, bytes_per_fact));
    }
    let (ds, wh, router, bytes_per_fact) = kept.expect("SETUP_REPS > 0");
    Prepared {
        ds,
        wh,
        router: Arc::new(router),
        costs: SetupCosts {
            setup_s: crate::stats::median(&times),
            bytes_per_fact,
        },
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Digest of an MO's *logical* content: facts grouped by cell with the
/// measures folded through each measure's aggregate function. Two shards
/// can each hold an aggregated fact for the same (month, domain) cell
/// when the cell's bottom facts were split across them; every query
/// re-aggregates the union to the unsharded fact, so content equality is
/// defined modulo that regrouping.
pub fn content_digest(mo: &Mo) -> u64 {
    let schema = mo.schema();
    let mut cells: BTreeMap<Vec<DimValue>, Vec<i64>> = BTreeMap::new();
    for f in mo.facts() {
        let measures = mo.measures_of(f);
        match cells.entry(mo.coords(f)) {
            Entry::Vacant(v) => {
                v.insert(measures);
            }
            Entry::Occupied(mut o) => {
                for (i, acc) in o.get_mut().iter_mut().enumerate() {
                    *acc = schema.measures[i].agg.combine(*acc, measures[i]);
                }
            }
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (coords, measures) in &cells {
        for b in format!("{coords:?}|{measures:?};").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// [`content_digest`] of everything a published set holds.
pub fn set_digest(set: &ShardViewSet) -> u64 {
    content_digest(&set.to_mo().expect("warehouse renders to one MO"))
}

/// The from-scratch reference: one in-memory, unsharded manager holding
/// the pre-load and the first `days` daily batches in a single bulk load,
/// synchronized once to `now`.
pub fn reference_manager(ds: &Dataset, days: usize, now: DayNum) -> SubcubeManager {
    let m = SubcubeManager::new(ds.spec.clone());
    if days == 0 {
        m.bulk_load(&ds.pre).expect("reference load");
    } else {
        let mut all = ds.pre.clone();
        for (_, batch) in &ds.days[..days] {
            all.absorb(batch).expect("batches share the schema");
        }
        m.bulk_load(&all).expect("reference load");
    }
    m.sync(now).expect("reference sync");
    m
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_splits_at_the_cut_into_ordered_days() {
        let ds = Dataset::generate_sized(3, (1999, 6, 30), 20, 10);
        assert_eq!(ds.days.len(), 20);
        assert!(ds.days.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert_eq!(ds.days[0].0, ds.cut + 1);
        // 181 days of pre-load at 7..=12 clicks a day.
        assert!(
            (181 * 7..=181 * 13).contains(&ds.pre.len()),
            "{}",
            ds.pre.len()
        );
        // Same seed, same facts; the pre-load does not depend on the tail.
        let again = Dataset::generate_sized(3, (1999, 6, 30), 5, 10);
        assert_eq!(content_digest(&ds.pre), content_digest(&again.pre));
        assert_ne!(
            content_digest(&ds.pre),
            content_digest(&Dataset::generate_sized(4, (1999, 6, 30), 5, 10).pre)
        );
    }

    #[test]
    fn content_digest_ignores_how_a_cell_is_split() {
        let ds = Dataset::generate_sized(5, (1999, 1, 10), 0, 10);
        let rows: Vec<u32> = (0..ds.pre.len() as u32).collect();
        let (left, right) = rows.split_at(rows.len() / 2);
        let mut rejoined = ds.pre.gather(right);
        rejoined.absorb(&ds.pre.gather(left)).unwrap();
        assert_eq!(content_digest(&rejoined), content_digest(&ds.pre));
        assert_ne!(
            content_digest(&ds.pre.gather(left)),
            content_digest(&ds.pre)
        );
    }
}
