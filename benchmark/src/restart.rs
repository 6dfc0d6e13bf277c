//! `restart_scan`: recovery and the first queries after it.
//!
//! The set-up pre-loads through 2002/11/28, synchronizes, checkpoints,
//! and then applies 30 more simulated days (load + age, no checkpoint) —
//! the longest WAL tail the daily loop ever leaves. Each cycle of the
//! window drops the router, runs `ShardRouter::recover` (checkpoint decode
//! plus replay of the 30-day tail) and makes one first-touch pass over
//! every `mix-v1` query class in-process. storage decode, WAL replay and
//! persist dominate; serve and plan are idle — a compression or mmap
//! change that helps `read_static` but slows cold start shows here.
//!
//! The foreground operation is one cycle, restart to first answers:
//! `op_p50_ms` its median, `op_tail_ms` its slow quartile (p75 — a 10 s
//! window holds only a few dozen cycles), `throughput_per_s` cycles per
//! second.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdr_subcube::ShardRouter;
use specdr::driver::result_digest;

use crate::data::{peak_rss_mb, prepare, set_digest, Dataset};
use crate::metered_fs::FsCounts;
use crate::mix::{Mix, CLASSES};
use crate::probes;
use crate::stats::{median, percentile_of};
use crate::{Ctx, Outcome};

/// Simulated days left un-checkpointed in the WAL.
pub const WAL_TAIL_DAYS: usize = 30;
/// The tail percentile (see the module docs).
pub const TAIL: f64 = 0.75;

struct Cycle {
    recover_ns: u64,
    first_pass_ns: u64,
    replayed: usize,
    fs: FsCounts,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let prep = prepare(
        &ctx.scratch,
        ctx.rec_if_traced(),
        || Dataset::generate(ctx.seed, (2002, 11, 28), WAL_TAIL_DAYS),
        |ds, wh, router| {
            for (day, batch) in &ds.days {
                router.bulk_load(batch).expect("tail load");
                router.age(*day).expect("tail age");
                wh.facts_loaded += batch.len() as u64;
            }
        },
    );
    let now = prep.ds.days.last().map_or(prep.ds.cut, |d| d.0);
    let mix = Mix::new(now, now + 45);
    let before = prep.router.view_set();
    let content_before = set_digest(&before);
    let expected = probes::class_digests(&before, &mix);
    let stored_rows = before.len();
    drop(before);

    let window = Duration::from_secs_f64(ctx.seconds);
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut mismatches = 0u64;
    let mut recover_failures = 0u64;
    let mut traced_from: Option<(usize, Instant)> = None;
    let mut router = Some(prep.router);
    let start = Instant::now();
    while start.elapsed() < window || cycles.len() < 3 {
        if ctx.traced && traced_from.is_none() && start.elapsed() >= window / 2 {
            ctx.rec.set_enabled(true);
            traced_from = Some((cycles.len(), Instant::now()));
        }
        drop(router.take());
        let fs0 = prep.wh.fs_counts();
        let _cycle = ctx.rec.span("loadgen.cycle", cycles.len() as u64 + 1);
        let t0 = Instant::now();
        let recovered = {
            let _s = ctx.rec.op_span("subcube.recover", 0);
            ShardRouter::recover_with_fs(
                prep.ds.spec.clone(),
                &prep.wh.dir,
                Arc::clone(&prep.wh.fs),
            )
        };
        let recover_ns = t0.elapsed().as_nanos() as u64;
        let Ok((recovered, report)) = recovered else {
            recover_failures += 1;
            break;
        };
        let fs = prep.wh.fs_counts().since(&fs0);
        let set = recovered.view_set();
        let t1 = Instant::now();
        let digests: Vec<Option<u64>> = mix
            .queries()
            .map(|(_, spec)| {
                let _s = ctx.rec.span("subcube.first_query", 0);
                probes::eval(&set, spec).ok().map(|mo| result_digest(&mo))
            })
            .collect();
        let first_pass_ns = t1.elapsed().as_nanos() as u64;
        mismatches += digests
            .iter()
            .zip(&expected)
            .filter(|(got, (_, want))| **got != Some(*want))
            .count() as u64;
        cycles.push(Cycle {
            recover_ns,
            first_pass_ns,
            replayed: report.replayed,
            fs,
        });
        router = Some(Arc::new(recovered));
    }
    let wall = start.elapsed();
    ctx.rec.set_enabled(false);
    let peak_rss = peak_rss_mb();
    let n = cycles.len() as u64;
    out.tally.ops(n + recover_failures, recover_failures);
    out.tally.ops(n * expected.len() as u64, mismatches);
    if let Some(router) = &router {
        out.tally.gate(
            "recovered content digest == pre-drop digest",
            set_digest(&router.view_set()) == content_before,
        );
    }

    let mut totals: Vec<u64> = cycles
        .iter()
        .map(|c| c.recover_ns + c.first_pass_ns)
        .collect();
    out.end_to_end(
        prep.costs,
        percentile_of(&mut totals, 0.5) as f64 / 1e6,
        percentile_of(&mut totals, TAIL) as f64 / 1e6,
        n as f64 / wall.as_secs_f64(),
        peak_rss,
    );
    out.notes.push(format!(
        "op = one restart cycle (drop, recover checkpoint + {WAL_TAIL_DAYS}-day WAL tail, first pass \
         over {} query classes); tail = p{:.0}; {n} cycles in {:.2} s",
        expected.len(),
        TAIL * 100.0,
        wall.as_secs_f64()
    ));
    out.notes.push(format!(
        "{} facts loaded -> {stored_rows} stored rows; classes: {}",
        prep.wh.facts_loaded,
        expected
            .iter()
            .map(|(c, _)| CLASSES[*c].name)
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if let (true, Some(router)) = (ctx.traced, &router) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let col = |f: fn(&Cycle) -> u64| cycles.iter().map(f).collect::<Vec<u64>>();
        let recover_p50 = ms(percentile_of(&mut col(|c| c.recover_ns), 0.5));
        out.layer("subcube.recover_p50_ms", recover_p50);
        out.layer(
            "subcube.first_query_p50_ms",
            ms(percentile_of(&mut col(|c| c.first_pass_ns), 0.5)),
        );
        out.layer(
            "subcube.recover_replayed_records",
            cycles[0].replayed as f64,
        );
        out.layer("loadgen.samples", n as f64);
        // One cycle's filesystem traffic: a fixed amount of work.
        let fs = cycles[0].fs;
        out.layer("storage.fs_appends", fs.appends as f64);
        out.layer("storage.fs_writes", fs.writes as f64);
        out.layer("storage.fs_renames", fs.renames as f64);
        out.layer("storage.fs_bytes_written", fs.bytes_written as f64);
        out.layer("storage.fs_bytes_read", fs.bytes_read as f64);
        out.layer(
            "storage.fs_busy_ms",
            ms(percentile_of(&mut col(|c| c.fs.busy_ns), 0.5)),
        );
        if let Some((from, at)) = traced_from {
            let rate = |cycles: usize, over: Duration| cycles as f64 / over.as_secs_f64();
            let traced = rate(cycles.len() - from, (start + wall) - at);
            if traced > 0.0 {
                out.layer("obs.trace_overhead_ratio", rate(from, at - start) / traced);
            }
            out.shares(&ctx.rec.spans(), ((start + wall) - at).as_nanos() as f64);
        }

        // Fold the tail into a checkpoint and time checkpoint-only
        // recoveries: the difference to the cycles above is the replay,
        // and what is left after the filesystem is the decode.
        let t = Instant::now();
        router.checkpoint().expect("fold the WAL tail");
        out.layer(
            "storage.checkpoint_p50_ms",
            ms(t.elapsed().as_nanos() as u64),
        );
        let (mut base, mut decode) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let fs0 = prep.wh.fs_counts();
            let t = Instant::now();
            let r = ShardRouter::recover_with_fs(
                prep.ds.spec.clone(),
                &prep.wh.dir,
                Arc::clone(&prep.wh.fs),
            );
            let ns = t.elapsed().as_nanos() as u64;
            if r.is_ok() {
                base.push(ms(ns));
                decode.push(ms(
                    ns.saturating_sub(prep.wh.fs_counts().since(&fs0).busy_ns)
                ));
            }
        }
        out.layer(
            "subcube.recover_replay_ms",
            (recover_p50 - median(&base)).max(0.0),
        );
        out.layer("storage.decode_ms", median(&decode));
        probes::storage_probe(&prep.wh, router, &mut out);
    }
    out
}
