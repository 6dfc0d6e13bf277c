//! The daily write loop shared by `ingest_age` and `read_churn`: for each
//! simulated day `bulk_load(day batch)` then `age(day)`, and a
//! `checkpoint()` after every [`CHECKPOINT_EVERY`]th day.

use std::time::Instant;

use sdr_mdm::{DayNum, Mo};
use sdr_subcube::{AgeStats, ShardRouter, SubcubeError};

use crate::data::{Warehouse, CHECKPOINT_EVERY};
use crate::metered_fs::FsCounts;
use crate::stats::{median, percentile_of};
use crate::trace::Recorder;
use crate::Outcome;

/// What one simulated day cost.
#[derive(Debug, Clone, Copy)]
pub struct DaySample {
    pub load_ns: u64,
    pub age_ns: u64,
    /// `(wall, filesystem busy)` of the checkpoint, on checkpoint days.
    pub checkpoint_ns: Option<(u64, u64)>,
    pub facts: u64,
    pub age: AgeStats,
}

impl DaySample {
    /// The day's whole write latency: load + age (+ checkpoint).
    pub fn total_ns(&self) -> u64 {
        self.load_ns + self.age_ns + self.checkpoint_ns.map_or(0, |(wall, _)| wall)
    }
}

/// Applies simulated day number `idx` (0-based within the window).
pub fn write_day(
    rec: &Recorder,
    wh: &Warehouse,
    router: &ShardRouter,
    idx: usize,
    (day, batch): &(DayNum, Mo),
) -> Result<DaySample, SubcubeError> {
    let _day = rec.span("loadgen.day", idx as u64 + 1);
    let t0 = Instant::now();
    {
        let _s = rec.op_span("subcube.bulk_load", 0);
        router.bulk_load(batch)?;
    }
    let load_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let age = {
        let _s = rec.op_span("subcube.age", 0);
        router.age(*day)?
    };
    let age_ns = t1.elapsed().as_nanos() as u64;
    let t2 = Instant::now();
    let checkpoint_ns = if (idx + 1).is_multiple_of(CHECKPOINT_EVERY) {
        let busy0 = wh.fs_counts().busy_ns;
        {
            let _s = rec.op_span("storage.checkpoint", 0);
            router.checkpoint()?;
        }
        let busy = wh.fs_counts().busy_ns - busy0;
        Some((t2.elapsed().as_nanos() as u64, busy))
    } else {
        None
    };
    Ok(DaySample {
        load_ns,
        age_ns,
        checkpoint_ns,
        facts: batch.len() as u64,
        age,
    })
}

/// Every day a writer applied, with the filesystem counters at the start
/// of the window and after the first checkpoint period.
#[derive(Default)]
pub struct WriteLog {
    pub days: Vec<DaySample>,
    pub fs_start: FsCounts,
    /// Counters after day [`CHECKPOINT_EVERY`] of the window — a fixed
    /// amount of work, so the differences repeat exactly for a seed.
    pub fs_after_period: Option<FsCounts>,
}

impl WriteLog {
    pub fn start(wh: &Warehouse) -> WriteLog {
        WriteLog {
            fs_start: wh.fs_counts(),
            ..Default::default()
        }
    }

    pub fn push(&mut self, wh: &Warehouse, sample: DaySample) {
        self.days.push(sample);
        if self.days.len() == CHECKPOINT_EVERY {
            self.fs_after_period = wh.metered.as_ref().map(|m| m.counts());
        }
    }

    pub fn facts(&self) -> u64 {
        self.days.iter().map(|d| d.facts).sum()
    }

    /// Per-layer metrics of the write path (`subcube.*` write side and
    /// `storage.*`), from a traced run's log.
    pub fn report(&self, out: &mut Outcome, raw_fact_bytes: u64) {
        if self.days.is_empty() {
            return;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let p = |mut v: Vec<u64>, q: f64| ms(percentile_of(&mut v, q));
        let col = |f: fn(&DaySample) -> u64| self.days.iter().map(f).collect::<Vec<u64>>();
        out.layer("subcube.write_day_p50_ms", p(col(DaySample::total_ns), 0.5));
        out.layer("subcube.bulk_load_p50_ms", p(col(|d| d.load_ns), 0.5));
        out.layer("subcube.age_p50_ms", p(col(|d| d.age_ns), 0.5));
        out.layer("subcube.age_p99_ms", p(col(|d| d.age_ns), 0.99));
        let sum = |f: fn(&AgeStats) -> usize| self.days.iter().map(|d| f(&d.age)).sum::<usize>();
        out.layer("subcube.age_ticks", sum(|a| a.ticks) as f64);
        out.layer("subcube.age_cells_delta", sum(|a| a.cells_delta) as f64);
        let (skipped, rebuilt) = (sum(|a| a.cubes_skipped), sum(|a| a.cubes_rebuilt));
        if skipped + rebuilt > 0 {
            out.layer(
                "subcube.age_cubes_skipped_ratio",
                skipped as f64 / (skipped + rebuilt) as f64,
            );
        }
        let ckpts: Vec<(u64, u64)> = self.days.iter().filter_map(|d| d.checkpoint_ns).collect();
        if !ckpts.is_empty() {
            let walls: Vec<f64> = ckpts.iter().map(|c| ms(c.0)).collect();
            let encodes: Vec<f64> = ckpts.iter().map(|c| ms(c.0.saturating_sub(c.1))).collect();
            out.layer("storage.checkpoint_p50_ms", median(&walls));
            out.layer("storage.encode_ms", median(&encodes));
        }
        if let Some(after) = self.fs_after_period {
            let d = after.since(&self.fs_start);
            let facts: u64 = self.days[..CHECKPOINT_EVERY].iter().map(|d| d.facts).sum();
            out.layer("storage.fs_appends", d.appends as f64);
            out.layer("storage.fs_writes", d.writes as f64);
            out.layer("storage.fs_renames", d.renames as f64);
            out.layer("storage.fs_bytes_written", d.bytes_written as f64);
            out.layer("storage.fs_bytes_read", d.bytes_read as f64);
            out.layer("storage.fs_busy_ms", ms(d.busy_ns));
            out.layer(
                "storage.write_amp",
                d.bytes_written as f64 / (facts * raw_fact_bytes) as f64,
            );
            out.layer(
                "storage.wal_bytes_per_fact",
                d.bytes_appended as f64 / facts as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::sync::Arc;

    use super::*;
    use crate::data::Dataset;

    /// With one writer and no timers the filesystem traffic of the daily
    /// loop is a pure function of the seed: two runs must count exactly
    /// the same calls and bytes (busy time, of course, differs).
    #[test]
    fn metered_fs_counts_repeat_exactly_for_a_seed() {
        let run = |tag: &str| {
            let rec = Arc::new(Recorder::default());
            rec.set_enabled(true);
            let ds = Dataset::generate_sized(11, (1999, 9, 30), 40, 25);
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-metered-{}-{tag}", std::process::id()));
            let (wh, router) = Warehouse::build(&ds, &dir, Some(&rec));
            let mut log = WriteLog::start(&wh);
            for (i, day) in ds.days.iter().enumerate() {
                log.push(&wh, write_day(&rec, &wh, &router, i, day).unwrap());
            }
            let mut counts = wh.fs_counts().since(&log.fs_start);
            counts.busy_ns = 0;
            let mut period = log.fs_after_period.unwrap().since(&log.fs_start);
            period.busy_ns = 0;
            let fs_spans = rec
                .spans()
                .iter()
                .filter(|s| s.name.starts_with("storage.fs."))
                .count();
            (counts, period, fs_spans)
        };
        let (a, b) = (run("a"), run("b"));
        assert_eq!(a, b);
        // 40 days x (load + age) x 2 shards, one WAL record each.
        assert_eq!(a.0.appends, 160);
        assert_eq!(a.1.appends, 120, "the first checkpoint period is 30 days");
        assert!(
            a.0.writes > 0 && a.0.renames > 0,
            "day 30 checkpointed: {:?}",
            a.0
        );
        assert!(a.0.bytes_appended > 0 && a.0.bytes_written > a.0.bytes_appended);
        assert!(a.2 as u64 >= a.0.appends + a.0.writes + a.0.renames);
    }
}
