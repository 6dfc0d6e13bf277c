//! `read_static` and `read_churn`: the query mix over the wire.
//!
//! Both serve a pre-loaded, synchronized, checkpointed warehouse with the
//! in-process `serve::serve` daemon and drive it with **closed-loop** TCP
//! clients (an analyst or a dashboard waits for each reply before asking
//! again) drawing requests from `mix-v1`.
//!
//! * `read_static` — 2 client connections, no writer. serve, plan, query
//!   and the subcube read path do all the work; storage and reduce are
//!   idle, so a write-path change must not move this workload.
//! * `read_churn` — 1 client connection and 1 writer thread replaying the
//!   daily load+age(+checkpoint) loop on a **fixed schedule of one
//!   simulated day per 100 ms** (open loop, so two commits see the same
//!   write load; its lateness is reported). A read gain bought with
//!   slower publishes, or a write gain that stalls readers, shows only
//!   here. Every response's `(epoch, digest)` is audited after the window
//!   against an unsharded, in-memory replay of the writer's schedule
//!   stopped at that epoch (nothing is retained during the window, so
//!   the process's memory is the program's).
//!
//! The foreground operation is one non-ping request: `op_p50_ms` /
//! `op_tail_ms` (p99) are client-observed wire latencies over every
//! non-ping request of the window and `throughput_per_s` is OK responses
//! (pings included) per second of window.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdr_subcube::SubcubeManager;
use specdr::serve::{self, ServeConfig};

use crate::data::{
    content_digest, peak_rss_mb, prepare, reference_manager, set_digest, Dataset, Prepared,
};
use crate::mix::{Draw, Mix, CLASSES, PING};
use crate::probes::{self, ClassCost};
use crate::stats::percentile_of;
use crate::writer::{write_day, WriteLog};
use crate::{Ctx, Outcome};

/// The writer's schedule in `read_churn`: one simulated day per this.
pub const DAY_PERIOD: Duration = Duration::from_millis(100);
/// Client-side per-request timeout.
const TIMEOUT: Duration = Duration::from_secs(10);

/// One request as its client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: usize,
    /// Completion time, ns since the run's origin.
    end_ns: u64,
    latency_ns: u64,
    /// `Some((epoch, digest))` for an OK query response, `Some((0, 0))`
    /// for an OK pong, `None` for an error frame or a malformed reply.
    reply: Option<(u64, u64)>,
}

/// `epoch=` and `digest=` from the head of a query response body.
fn parse_head(body: &[u8]) -> Option<(u64, u64)> {
    let mut lines = body.split(|&b| b == b'\n');
    let epoch = std::str::from_utf8(lines.next()?.strip_prefix(b"epoch=")?).ok()?;
    let digest = std::str::from_utf8(lines.next()?.strip_prefix(b"digest=0x")?).ok()?;
    Some((epoch.parse().ok()?, u64::from_str_radix(digest, 16).ok()?))
}

struct ClientLog {
    samples: Vec<Sample>,
    transport_errors: u64,
    connect_ns: u64,
}

/// One closed-loop connection: draw a class, send, wait, record.
fn client(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    mix: &Mix,
    connection: u64,
    origin: Instant,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::new(),
        transport_errors: 0,
        connect_ns: 0,
    };
    let t0 = Instant::now();
    let Ok(stream) = TcpStream::connect_timeout(&addr, TIMEOUT) else {
        log.transport_errors += 1;
        return log;
    };
    let _ = stream.set_nodelay(true);
    log.connect_ns = t0.elapsed().as_nanos() as u64;
    let mut draw = Draw::new(ctx.seed, connection);
    let mut request = connection << 32;
    // Acquire: pairs with the orchestrator's Release store.
    while !stop.load(Ordering::Acquire) {
        let class = draw.next_class();
        request += 1;
        let t0 = Instant::now();
        let reply = {
            let _s = ctx.rec.span("serve.request", request);
            serve::request_on(&stream, &mix.payloads[class], TIMEOUT)
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let reply = match reply {
            Ok(frame) => match serve::split_response(&frame) {
                Ok((serve::RESP_OK, body)) if class == PING => {
                    (body == b"pong\n").then_some((0, 0))
                }
                Ok((serve::RESP_OK, body)) => parse_head(body),
                _ => None,
            },
            Err(_) => {
                // The stream can no longer be trusted.
                log.transport_errors += 1;
                break;
            }
        };
        log.samples.push(Sample {
            class,
            end_ns: origin.elapsed().as_nanos() as u64,
            latency_ns,
            reply,
        });
    }
    log
}

/// The writer of `read_churn`: one simulated day per [`DAY_PERIOD`] from
/// `start`, for `days` days. Returns its log, its lateness per day (ns)
/// and the number of rejected mutations.
fn churn_writer(
    ctx: &Ctx,
    prep: &Prepared,
    start: Instant,
    days: usize,
) -> (WriteLog, Vec<u64>, u64) {
    let mut log = WriteLog::start(&prep.wh);
    let mut late = Vec::with_capacity(days);
    let mut rejected = 0;
    for (i, day) in prep.ds.days.iter().take(days).enumerate() {
        let due = start + DAY_PERIOD * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late.push(due.elapsed().as_nanos() as u64);
        match write_day(&ctx.rec, &prep.wh, &prep.router, i, day) {
            Ok(sample) => log.push(&prep.wh, sample),
            Err(_) => {
                rejected += 1;
                break; // a failed scatter wedges the router
            }
        }
    }
    (log, late, rejected)
}

/// Audits the query responses of a `read_churn` window: replays the
/// `written` days the writer applied on `reference` (the unsharded
/// manager at the pre-load state) and, at every epoch some response
/// names, evaluates the classes asked at that epoch. The router publishes
/// once per load and once per aging, so day `i` is epochs `first + 2i + 1`
/// and `first + 2i + 2`. Returns the number of responses whose digest is
/// not the replay's (torn reads), leaving `reference` at the final state.
fn audit_churn(
    prep: &Prepared,
    mix: &Mix,
    reference: &SubcubeManager,
    first: u64,
    written: usize,
    replies: &[(usize, (u64, u64))],
) -> usize {
    let mut asked: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for &(class, (epoch, _)) in replies {
        asked.entry(epoch).or_default().insert(class);
    }
    let mut want: HashMap<(u64, usize), u64> = HashMap::new();
    let mut note = |epoch: u64| {
        for &class in asked.get(&epoch).into_iter().flatten() {
            let spec = mix.specs[class].as_ref().expect("query class");
            if let Some(digest) = probes::reference_digest(reference, spec) {
                want.insert((epoch, class), digest);
            }
        }
    };
    note(first);
    for (i, (day, batch)) in prep.ds.days[..written].iter().enumerate() {
        reference.bulk_load(batch).expect("replay load");
        note(first + 2 * i as u64 + 1);
        reference.age(*day).expect("replay age");
        note(first + 2 * i as u64 + 2);
    }
    replies
        .iter()
        .filter(|&&(class, (epoch, digest))| want.get(&(epoch, class)) != Some(&digest))
        .count()
}

pub fn run(ctx: &Ctx, churn: bool) -> Outcome {
    let mut out = Outcome::default();
    let clients: u64 = if churn { 1 } else { 2 };
    let churn_days = if churn {
        (ctx.seconds / DAY_PERIOD.as_secs_f64()).ceil() as usize
    } else {
        0
    };
    let cut = if churn {
        (2001, 12, 31)
    } else {
        (2002, 12, 28)
    };
    let prep = prepare(
        &ctx.scratch,
        ctx.rec_if_traced(),
        || Dataset::generate(ctx.seed, cut, churn_days),
        |_, _, _| {},
    );
    let now = prep.ds.cut;
    // The un-synchronized class looks 45 days past anything the writer
    // will synchronize to.
    let mix = Mix::new(now, now + churn_days as i32 + 45);
    let initial = prep.router.view_set();
    let expected: HashMap<usize, u64> = probes::class_digests(&initial, &mix).into_iter().collect();

    let handle =
        serve::serve(Arc::clone(&prep.router), &ServeConfig::default()).expect("daemon binds");
    let addr = handle.addr();
    let origin = Instant::now();
    let warmup = Duration::from_secs_f64((ctx.seconds / 5.0).min(1.0));
    let window = Duration::from_secs_f64(ctx.seconds);
    let stop = AtomicBool::new(false);
    let churn_log = Mutex::new(None);
    let mut half_ns = u64::MAX;

    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (mix, stop) = (&mix, &stop);
                s.spawn(move || client(ctx, addr, mix, c, origin, stop))
            })
            .collect();
        std::thread::sleep(warmup);
        let start = Instant::now();
        if churn {
            let (prep, churn_log) = (&prep, &churn_log);
            s.spawn(move || {
                *churn_log.lock().expect("writer log lock") =
                    Some(churn_writer(ctx, prep, start, churn_days));
            });
        }
        if ctx.traced {
            // First half untraced, second half traced: their throughput
            // ratio is the tracing overhead.
            std::thread::sleep(window / 2);
            sdr_obs::reset();
            sdr_obs::set_enabled(true);
            ctx.rec.set_enabled(true);
            half_ns = origin.elapsed().as_nanos() as u64;
        }
        if let Some(rest) = (start + window).checked_duration_since(Instant::now()) {
            std::thread::sleep(rest);
        }
        // Release: clients that see the flag see everything before it.
        stop.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    sdr_obs::set_enabled(false);
    let start_ns = warmup.as_nanos() as u64;
    let end_ns = start_ns + window.as_nanos() as u64;
    let in_window = |s: &&Sample| s.end_ns >= start_ns && s.end_ns < end_ns;
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().filter(in_window).copied())
        .collect();
    let churned = churn_log.into_inner().expect("writer log lock");
    let peak_rss = peak_rss_mb();

    // ---- failures -------------------------------------------------------
    let transport: u64 = logs.iter().map(|l| l.transport_errors).sum();
    let refused = samples.iter().filter(|s| s.reply.is_none()).count() as u64;
    out.tally
        .ops(samples.len() as u64 + transport, transport + refused);

    // ---- correctness ----------------------------------------------------
    // In-process digest == 1-shard from-scratch reference, per class.
    let reference = reference_manager(&prep.ds, 0, now);
    for (c, spec) in mix.queries() {
        out.tally.gate(
            format!("{}: sharded digest == 1-shard reference", CLASSES[c].name),
            probes::reference_digest(&reference, spec) == Some(expected[&c]),
        );
    }
    // Wire digest == in-process digest: on the static state every query
    // response must carry the digest computed in-process before the
    // window; under churn each response is audited against the replayed
    // state of the epoch it names (anything else is a torn read).
    let replies: Vec<(usize, (u64, u64))> = samples
        .iter()
        .filter(|s| s.class != PING)
        .filter_map(|s| s.reply.map(|r| (s.class, r)))
        .collect();
    let torn = match &churned {
        None => replies
            .iter()
            .filter(|(class, (_, digest))| *digest != expected[class])
            .count(),
        Some((log, late, rejected)) => {
            out.tally.ops(late.len() as u64, *rejected);
            let written = log.days.len();
            let torn = audit_churn(&prep, &mix, &reference, initial.epoch(), written, &replies);
            out.tally.gate(
                "sharded warehouse after the window == unsharded replay of the schedule",
                set_digest(&prep.router.view_set())
                    == content_digest(&reference.to_mo().expect("reference renders")),
            );
            torn
        }
    };
    out.tally.gate(
        format!("wire digests match in-process evaluation ({torn} torn)"),
        torn == 0,
    );
    out.tally.failed += torn.saturating_sub(1) as u64;
    drop(reference);

    // ---- end to end -----------------------------------------------------
    // Pooled over the whole window: with a few thousand samples the
    // pooled percentiles are steadier than a median of per-slice ones.
    let mut latencies: Vec<u64> = samples
        .iter()
        .filter(|s| s.class != PING && s.reply.is_some())
        .map(|s| s.latency_ns)
        .collect();
    let answered = samples.iter().filter(|s| s.reply.is_some()).count();
    out.end_to_end(
        prep.costs,
        percentile_of(&mut latencies, 0.5) as f64 / 1e6,
        percentile_of(&mut latencies, 0.99) as f64 / 1e6,
        answered as f64 / window.as_secs_f64(),
        peak_rss,
    );
    out.notes.push(format!(
        "op = one non-ping request over the wire; tail = p99; {} latency samples, \
         {clients} closed-loop connection(s){}",
        latencies.len(),
        if churn {
            ", 1 writer at 1 day / 100 ms"
        } else {
            ""
        },
    ));
    out.notes.push(format!(
        "pre-load {} facts -> {} stored rows in {} shards",
        prep.wh.facts_loaded,
        initial.len(),
        initial.shards()
    ));

    if ctx.traced {
        layers(
            ctx,
            &mut out,
            &prep,
            &mix,
            &logs,
            &samples,
            (start_ns, half_ns, end_ns),
        );
        if let Some((log, late, _)) = &churned {
            let raw = 8 * (prep.ds.schema.n_dims() + prep.ds.schema.n_measures()) as u64;
            log.report(&mut out, raw);
            probes::storage_probe(&prep.wh, &prep.router, &mut out);
            out.layer("subcube.epochs_published", 2.0 * log.days.len() as f64);
            out.layer(
                "loadgen.writer_late_p99_ms",
                percentile_of(&mut late.clone(), 0.99) as f64 / 1e6,
            );
        }
    }
    handle.shutdown();
    out
}

/// The per-layer metrics of a traced read run whose window ran
/// `start_ns..end_ns` with tracing on from `half_ns`.
fn layers(
    ctx: &Ctx,
    out: &mut Outcome,
    prep: &Prepared,
    mix: &Mix,
    logs: &[ClientLog],
    samples: &[Sample],
    (start_ns, half_ns, end_ns): (u64, u64, u64),
) {
    let ok = |s: &&Sample| s.reply.is_some();
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.end_ns >= half_ns).collect();
    let untraced = samples
        .iter()
        .filter(|s| s.end_ns < half_ns)
        .filter(ok)
        .count();
    let rate = |n: usize, from: u64, to: u64| n as f64 / ((to - from) as f64 / 1e9);
    let traced_ok = traced.iter().filter(|s| s.reply.is_some()).count();
    out.layer(
        "obs.trace_overhead_ratio",
        rate(untraced, start_ns, half_ns) / rate(traced_ok, half_ns, end_ns).max(f64::MIN_POSITIVE),
    );
    probes::obs_counters(traced.len() as u64, out);

    let class_lat = |class: usize| -> Vec<u64> {
        traced
            .iter()
            .filter(|s| s.class == class && s.reply.is_some())
            .map(|s| s.latency_ns)
            .collect()
    };
    let mut all: Vec<u64> = traced
        .iter()
        .filter(|s| s.class != PING && s.reply.is_some())
        .map(|s| s.latency_ns)
        .collect();
    out.layer(
        "serve.query_p50_ms",
        percentile_of(&mut all, 0.5) as f64 / 1e6,
    );
    out.layer(
        "serve.query_p99_ms",
        percentile_of(&mut all, 0.99) as f64 / 1e6,
    );
    out.layer(
        "serve.ping_p50_us",
        percentile_of(&mut class_lat(PING), 0.5) as f64 / 1e3,
    );
    out.layer(
        "serve.errors",
        (logs.iter().map(|l| l.transport_errors).sum::<u64>()
            + samples.iter().filter(|s| s.reply.is_none()).count() as u64) as f64,
    );
    out.layer("loadgen.samples", samples.len() as f64);
    out.layer(
        "loadgen.client_busy_ratio",
        samples.iter().map(|s| s.latency_ns).sum::<u64>() as f64
            / (logs.len() as u64 * (end_ns - start_ns)) as f64,
    );
    let mut connects: Vec<u64> = logs.iter().map(|l| l.connect_ns).collect();
    out.layer(
        "serve.connect_us",
        percentile_of(&mut connects, 0.5) as f64 / 1e3,
    );

    // In-process decomposition of every class, on the state the window
    // left behind (quiescent: clients and writer have stopped).
    let costs: Vec<ClassCost> = probes::read_probe(&ctx.rec, &prep.router, mix, out);
    ctx.rec.set_enabled(false);

    // Attribute the traced part's wire time: per class, requests × mean
    // in-process piece; the rest of the wire latency (sockets, framing,
    // CRC, thread hand-off — and every ping) cannot be reached from
    // outside and stays unattributed.
    let mut total = 0.0;
    let mut share = [0.0f64; 5]; // serve, spec, plan, query, subcube
    for (c, class) in CLASSES.iter().enumerate() {
        let lat = class_lat(c);
        let wire: f64 = lat.iter().sum::<u64>() as f64;
        total += wire;
        if c == PING || lat.is_empty() {
            continue;
        }
        let (n, k) = (lat.len() as f64, costs[c]);
        share[0] += n * (k.decode_build - k.parse + k.render).max(0.0);
        share[1] += n * k.parse;
        share[2] += n * k.plan;
        share[3] += n * k.kernels;
        share[4] += n * (k.query - k.plan - k.kernels).max(0.0);
        out.layer(
            &format!("serve.wire_overhead_p50_us.{}", class.name),
            (percentile_of(&mut lat.clone(), 0.5) as f64 - k.inproc_p50) / 1e3,
        );
    }
    if total > 0.0 {
        let names = [
            "share.serve",
            "share.spec",
            "share.plan",
            "share.query",
            "share.subcube",
        ];
        for (name, v) in names.iter().zip(share) {
            out.layer(name, v / total);
        }
        out.layer(
            "share.unattributed",
            (1.0 - share.iter().sum::<f64>() / total).max(0.0),
        );
    }
}
