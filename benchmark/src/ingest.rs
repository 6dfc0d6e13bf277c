//! `ingest_age`: one writer, no readers.
//!
//! From a warehouse pre-loaded through 2001/12/31 (raw and month tiers
//! populated, so every later day costs about the same), the writer
//! applies simulated days back to back for the length of the window:
//! `bulk_load(day batch)`, `age(day)`, and a `checkpoint()` every 30th
//! day. storage (WAL, encode), reduce (schedule, kernel scan) and the
//! subcube manager / shard scatter do all the work; serve, plan and query
//! are idle.
//!
//! The foreground operation is one simulated day's writes:
//! `op_p50_ms` is an ordinary day, `op_tail_ms` (p98) a month-transition
//! or checkpoint day, `throughput_per_s` the facts accepted per second
//! of the whole loop.

use std::time::{Duration, Instant};

use crate::data::{content_digest, peak_rss_mb, prepare, reference_manager, set_digest, Dataset};
use crate::probes;
use crate::stats::percentile_of;
use crate::writer::{write_day, DaySample, WriteLog};
use crate::{Ctx, Outcome};

/// The tail percentile: with ~600 days in a 10 s window p98 still has a
/// dozen samples beyond it, and it lands among the transition and
/// checkpoint days (about one day in 15).
pub const TAIL: f64 = 0.98;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let prep = prepare(
        &ctx.scratch,
        ctx.rec_if_traced(),
        // Every day up to the end of the data: the window stops the loop.
        || Dataset::generate(ctx.seed, (2001, 12, 31), usize::MAX),
        |_, _, _| {},
    );
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut log = WriteLog::start(&prep.wh);
    let mut rejected = 0u64;
    // Traced runs switch tracing on half way: (day index, instant).
    let mut traced_from: Option<(usize, Instant)> = None;
    let start = Instant::now();
    for (i, day) in prep.ds.days.iter().enumerate() {
        let elapsed = start.elapsed();
        if elapsed >= window {
            break;
        }
        if ctx.traced && traced_from.is_none() && elapsed >= window / 2 {
            sdr_obs::reset();
            sdr_obs::set_enabled(true);
            ctx.rec.set_enabled(true);
            traced_from = Some((i, Instant::now()));
        }
        match write_day(&ctx.rec, &prep.wh, &prep.router, i, day) {
            Ok(sample) => log.push(&prep.wh, sample),
            Err(_) => {
                rejected += 1;
                break; // a failed scatter wedges the router
            }
        }
    }
    let wall = start.elapsed();
    sdr_obs::set_enabled(false);
    ctx.rec.set_enabled(false);
    let peak_rss = peak_rss_mb();
    out.tally.ops(log.days.len() as u64 + rejected, rejected);

    // Incremental == from scratch: the day-by-day aged warehouse must hold
    // exactly what one bulk load of the same facts and a single sync hold.
    let written = log.days.len();
    let last = written
        .checked_sub(1)
        .map_or(prep.ds.cut, |i| prep.ds.days[i].0);
    let reference = reference_manager(&prep.ds, written, last);
    out.tally.gate(
        "day-by-day aging == one from-scratch sync",
        set_digest(&prep.router.view_set())
            == content_digest(&reference.to_mo().expect("reference renders")),
    );
    drop(reference);

    let mut totals: Vec<u64> = log.days.iter().map(DaySample::total_ns).collect();
    out.end_to_end(
        prep.costs,
        percentile_of(&mut totals, 0.5) as f64 / 1e6,
        percentile_of(&mut totals, TAIL) as f64 / 1e6,
        log.facts() as f64 / wall.as_secs_f64(),
        peak_rss,
    );
    out.notes.push(format!(
        "op = one simulated day (bulk_load + age, checkpoint every 30th); tail = p{:.0}; \
         {} days ({} facts) in {:.2} s",
        TAIL * 100.0,
        log.days.len(),
        log.facts(),
        wall.as_secs_f64()
    ));
    out.notes.push(format!(
        "pre-load {} facts -> {} stored rows after the window",
        prep.wh.facts_loaded,
        prep.router.len()
    ));

    if ctx.traced {
        let raw = 8 * (prep.ds.schema.n_dims() + prep.ds.schema.n_measures()) as u64;
        log.report(&mut out, raw);
        out.layer("loadgen.samples", log.days.len() as f64);
        out.layer("subcube.epochs_published", 2.0 * log.days.len() as f64);
        if let Some((from, at)) = traced_from {
            let facts = |days: &[DaySample]| days.iter().map(|d| d.facts).sum::<u64>() as f64;
            let untraced = facts(&log.days[..from]) / (at - start).as_secs_f64();
            let traced_wall = (start + wall) - at;
            let traced = facts(&log.days[from..]) / traced_wall.as_secs_f64();
            if traced > 0.0 {
                out.layer("obs.trace_overhead_ratio", untraced / traced);
            }
            probes::obs_counters((log.days.len() - from) as u64, &mut out);
            // Self time by layer over the traced part of the loop; the
            // gaps between spans are the loop's own glue and whatever else
            // the spans do not cover.
            out.shares(&ctx.rec.spans(), traced_wall.as_nanos() as f64);
        }
        ctx.rec.set_enabled(true);
        probes::reduce_probe(&ctx.rec, &prep.ds, &mut out);
        ctx.rec.set_enabled(false);
        probes::storage_probe(&prep.wh, &prep.router, &mut out);
    }
    out
}
