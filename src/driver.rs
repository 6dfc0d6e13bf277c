//! Closed-loop concurrent warehouse driver.
//!
//! One seeded writer thread applies a [`churn_script`] of bulk loads,
//! syncs, and specification insert/delete to a shared
//! [`SubcubeManager`], while `readers` threads continuously issue the
//! Figure 5–9 query mix against whatever snapshot [`view()`] hands them.
//! The writer retains the version each mutation leaves, every reader
//! observation `(query, result digest)` the view it pinned (a
//! reduction publishes once per transition day, so a reader can pin a
//! version between two mutations); after the threads join, every
//! observation is re-evaluated against its view, and a view of an epoch
//! the writer retained must be that version — a mismatch is a *torn
//! read*, a result that matches no published version of the warehouse.
//! Under snapshot isolation the count must be zero.
//!
//! The driver is deliberately deterministic on the writer side: the
//! churn schedule and therefore the sequence of published epochs and
//! their content digests are a pure function of the seed, which is what
//! `scripts/ci.sh` compares across two runs (`SPECDR_CRASH_SEED`). Only
//! the reader interleaving varies between runs, and the torn-read check
//! makes any interleaving-visible inconsistency a test failure.
//!
//! [`churn_script`]: sdr_workload::churn_script
//! [`view()`]: sdr_subcube::SubcubeManager::view

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdr_mdm::{calendar::days_from_civil, DayNum, Mo};
use sdr_reduce::DataReductionSpec;
use sdr_subcube::{
    CubeQuery, OpOutcome, ShardRouter, ShardViewSet, SubcubeError, SubcubeManager, WarehouseOp,
    WarehouseView,
};
use sdr_workload::{churn_script, ChurnOp, SplitMix64};

use crate::serve;

/// Configuration of one driver run.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Seed for the churn schedule and the reader query draws.
    pub seed: u64,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Number of churn mutations the writer applies.
    pub steps: usize,
    /// Minimum queries each reader issues (readers keep querying while
    /// the writer is active, then drain down to this floor).
    pub min_queries_per_reader: usize,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            seed: 42,
            readers: 4,
            steps: 30,
            min_queries_per_reader: 40,
        }
    }
}

/// One reader observation: which query ran against which published
/// version and what the result's content digest was.
#[derive(Clone)]
struct Observation {
    view: WarehouseView,
    query: usize,
    unsync: bool,
    now: DayNum,
    digest: u64,
}

/// The outcome of a driver run.
#[derive(Debug)]
pub struct DriveReport {
    /// `(epoch, content digest)` of every version the writer published,
    /// in publication order — a pure function of the seed.
    pub published: Vec<(u64, u64)>,
    /// Total queries issued by all readers.
    pub observations: usize,
    /// Observations whose result digest matched no published version of
    /// the epoch they read. Must be zero under snapshot isolation.
    pub torn_reads: usize,
    /// Mutations the writer applied successfully.
    pub mutations_ok: usize,
    /// Mutations the warehouse rejected (e.g. a spec delete failing
    /// Definition 4's responsibility check) — legal, non-publishing.
    pub mutations_rejected: usize,
    /// FNV-1a fold of `published` — the digest `scripts/ci.sh` compares
    /// across two runs with the same seed.
    pub schedule_digest: u64,
}

/// The rendered rows of `parts` read as one MO, sorted — what a query
/// response lists and what [`result_digest`] folds.
pub(crate) fn sorted_rows<'a>(parts: impl IntoIterator<Item = &'a Mo>) -> Vec<String> {
    let mut rows: Vec<String> = parts
        .into_iter()
        .flat_map(|mo| mo.facts().map(|f| mo.render_fact(f)))
        .collect();
    rows.sort();
    rows
}

/// FNV-1a64 over an MO's *sorted* rendered rows: an order-insensitive
/// content digest, so parallel and sequential evaluation of the same
/// query against the same version agree.
pub fn result_digest(mo: &Mo) -> u64 {
    rows_digest(&sorted_rows([mo]))
}

/// The fold of [`result_digest`] over rows already rendered and sorted.
pub(crate) fn rows_digest(rows: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for &b in row.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x0A;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a whole published version (every cube, in cube order): each
/// cube's [`result_digest`], read off its chunks.
fn view_digest(v: &WarehouseView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in v.cubes() {
        h ^= rows_digest(&sorted_rows(c.chunks().iter().map(|k| k.mo())));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The Figure 5–9 mix ([`serve::mix_specs`]) built against `schema`; a
/// built query depends on neither `now` nor the sync state.
fn built_mix(schema: &Arc<sdr_mdm::Schema>) -> Vec<CubeQuery> {
    let build = |s: &serve::QuerySpec| s.build(schema).expect("the mix builds on the paper schema");
    serve::mix_specs(0, false).iter().map(build).collect()
}

/// The fixed evaluation days readers draw `NOW` from (results differ per
/// day, so each observation records which one it used).
fn query_days() -> [DayNum; 3] {
    [(2000, 9, 15), (2001, 6, 15), (2002, 3, 1)].map(|(y, m, d)| days_from_civil(y, m, d))
}

fn run_query(
    view: &WarehouseView,
    q: &CubeQuery,
    now: DayNum,
    unsync: bool,
    parallel: bool,
) -> Result<Mo, SubcubeError> {
    if unsync {
        view.query_unsync(q, now, parallel)
    } else {
        view.query(q, now, parallel)
    }
}

/// Applies one churn op through `apply` — [`SubcubeManager::apply`] for
/// the in-process loop, [`ShardRouter::apply`] for the socket one.
/// `Ok(true)` when the op published a new version, `Ok(false)` when the
/// warehouse rejected it (legal, nothing published).
fn apply_churn(
    apply: impl FnOnce(&WarehouseOp) -> Result<OpOutcome, SubcubeError>,
    op: &ChurnOp,
) -> Result<bool, SubcubeError> {
    let op = match op {
        ChurnOp::Load(mo) => WarehouseOp::BulkLoad(mo.clone()),
        ChurnOp::Sync(t) => WarehouseOp::Sync(*t),
        ChurnOp::SpecInsert(a) => WarehouseOp::SpecInsert(vec![a.clone()]),
        ChurnOp::SpecDelete(id, t) => WarehouseOp::SpecDelete(vec![*id], *t),
    };
    match apply(&op) {
        Ok(_) => Ok(true),
        // Spec-evolution rejections are part of a legal schedule; any
        // other error is a real failure the driver must surface.
        Err(SubcubeError::Reduce(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// What one run of the [`closed_loop`] leaves for its audit.
struct LoopRun<V, R> {
    /// The version before the first op, then the version each op that
    /// published left, in publication order.
    published: Vec<V>,
    /// What each reader returned, in reader order.
    readers: Vec<R>,
    mutations_ok: usize,
    mutations_rejected: usize,
}

/// The closed loop both drivers run. `readers` threads each run
/// `reader(r, go)`, querying while `go(n)` holds for the `n` queries
/// issued so far: until the writer is done, then down to `min_queries`.
/// The calling thread is the writer: it applies `script` through
/// `apply` and keeps `version()` after every op that published.
fn closed_loop<V, R: Send>(
    readers: usize,
    min_queries: usize,
    script: &[ChurnOp],
    apply: impl Fn(&WarehouseOp) -> Result<OpOutcome, SubcubeError>,
    version: impl Fn() -> V,
    reader: impl Fn(usize, &dyn Fn(usize) -> bool) -> R + Sync,
) -> Result<LoopRun<V, R>, SubcubeError> {
    let done = AtomicBool::new(false);
    // Acquire: pairs with the writer's Release store so a reader that
    // sees `done` also sees the final publish.
    let go = |n: usize| !done.load(Ordering::Acquire) || n < min_queries;
    // The writer is the only mutator, so the version read right after a
    // successful op is exactly the one that op published.
    let mut published = vec![version()];
    let (mut mutations_ok, mut mutations_rejected) = (0, 0);
    let mut writer_err = None;
    let outputs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (reader, go) = (&reader, &go);
                s.spawn(move || reader(r, go))
            })
            .collect();
        for op in script {
            match apply_churn(&apply, op) {
                Ok(true) => {
                    mutations_ok += 1;
                    published.push(version());
                }
                Ok(false) => mutations_rejected += 1,
                Err(e) => {
                    writer_err = Some(e);
                    break;
                }
            }
        }
        // Release: readers' Acquire loads of `done` must also observe
        // every version published before the writer finished.
        done.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop reader panicked"))
            .collect()
    });
    match writer_err {
        Some(e) => Err(e),
        None => Ok(LoopRun {
            published,
            readers: outputs,
            mutations_ok,
            mutations_rejected,
        }),
    }
}

/// Runs the closed loop against a fresh warehouse seeded with the paper
/// spec: writer churn + `cfg.readers` reader threads, then the torn-read
/// audit. See the module docs for the guarantees checked.
pub fn drive(spec: DataReductionSpec, cfg: &DriveConfig) -> Result<DriveReport, SubcubeError> {
    let schema = Arc::clone(spec.schema());
    let m = SubcubeManager::new(spec);
    let script = churn_script(&schema, cfg.seed, cfg.steps);
    let query_days = query_days();
    let run = closed_loop(
        cfg.readers,
        cfg.min_queries_per_reader,
        &script,
        |op| m.apply(op),
        || m.view(),
        |r, go| {
            let mut rng = SplitMix64(cfg.seed ^ 0x5EAD ^ (r as u64).wrapping_mul(0x9E37_79B9));
            let mix = built_mix(m.schema());
            let mut local = Vec::new();
            let mut n = 0usize;
            while go(n) {
                let qi = rng.below(mix.len() as u64) as usize;
                let now = query_days[rng.below(query_days.len() as u64) as usize];
                let unsync = rng.below(2) == 0;
                let parallel = rng.below(2) == 0;
                let view = m.view();
                if let Ok(res) = run_query(&view, &mix[qi], now, unsync, parallel) {
                    local.push(Observation {
                        view,
                        query: qi,
                        unsync,
                        now,
                        digest: result_digest(&res),
                    });
                }
                n += 1;
            }
            local
        },
    )?;

    // Audit: re-evaluate every observation against the view it pinned.
    // Sequential evaluation (parallel=false) is the reference; the
    // digest is order-insensitive so it matches both.
    let observations: Vec<Observation> = run.readers.into_iter().flatten().collect();
    let mix0 = built_mix(&schema);
    let published: Vec<(u64, u64)> = run
        .published
        .iter()
        .map(|v| (v.epoch(), view_digest(v)))
        .collect();
    let by_epoch: std::collections::HashMap<u64, u64> = published.iter().copied().collect();
    let last_epoch = published.last().map_or(0, |&(e, _)| e);
    let mut torn = 0usize;
    for ob in &observations {
        let epoch = ob.view.epoch();
        // An epoch past the last mutation's was never published; one the
        // writer retained must be the version the writer saw.
        let retained = by_epoch.get(&epoch);
        let was_published =
            epoch <= last_epoch && retained.is_none_or(|d| *d == view_digest(&ob.view));
        match run_query(&ob.view, &mix0[ob.query], ob.now, ob.unsync, false) {
            Ok(expect) if was_published && result_digest(&expect) == ob.digest => {}
            _ => torn += 1,
        }
    }

    let mut schedule_digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &(e, d) in &published {
        schedule_digest ^= e.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ d;
        schedule_digest = schedule_digest.wrapping_mul(0x0000_0100_0000_01b3);
    }

    Ok(DriveReport {
        published,
        observations: observations.len(),
        torn_reads: torn,
        mutations_ok: run.mutations_ok,
        mutations_rejected: run.mutations_rejected,
        schedule_digest,
    })
}

/// Configuration of one socket load-generator run.
#[derive(Debug, Clone)]
pub struct SocketDriveConfig {
    /// Seed for the churn schedule and the client query draws.
    pub seed: u64,
    /// Number of concurrent OS client threads, each with its own
    /// connection to the daemon.
    pub clients: usize,
    /// Number of churn mutations the writer applies through the router.
    pub steps: usize,
    /// Minimum requests each client issues.
    pub min_queries_per_client: usize,
    /// Per-request client-side timeout.
    pub timeout: Duration,
}

impl Default for SocketDriveConfig {
    fn default() -> Self {
        SocketDriveConfig {
            seed: 42,
            clients: 4,
            steps: 30,
            min_queries_per_client: 40,
            timeout: Duration::from_secs(10),
        }
    }
}

/// The outcome of a socket load-generator run.
#[derive(Debug)]
pub struct SocketDriveReport {
    /// `(epoch, content digest)` of every version the writer published
    /// through the router, in publication order.
    pub published: Vec<(u64, u64)>,
    /// Successful query responses received by all clients.
    pub observations: usize,
    /// Responses whose `(epoch, digest)` matched no retained published
    /// version — a torn read *through the wire*. Must be zero.
    pub torn_reads: usize,
    /// Mutations the writer applied successfully.
    pub mutations_ok: usize,
    /// Mutations the warehouse rejected (legal, non-publishing).
    pub mutations_rejected: usize,
    /// Typed protocol error frames received (busy, bad request, …).
    pub proto_errors: usize,
    /// Transport-level failures (connect/timeout/frame corruption).
    pub transport_errors: usize,
    /// Client-observed per-request latency in nanoseconds, sorted
    /// ascending — index with [`percentile`].
    pub latency_ns: Vec<u64>,
}

/// Picks the `p`-th percentile (0.0..=1.0) out of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Content digest of a whole published shard set (every shard's cubes,
/// in shard/cube order).
fn set_digest(set: &ShardViewSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in set.views() {
        h ^= view_digest(v);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One wire observation, as parsed out of a query response frame.
#[derive(Debug, Clone, Copy)]
struct WireObservation {
    epoch: u64,
    query: usize,
    unsync: bool,
    now: DayNum,
    digest: u64,
}

/// What one socket client saw.
#[derive(Default)]
struct ClientRun {
    observations: Vec<WireObservation>,
    latency_ns: Vec<u64>,
    proto_errors: usize,
    transport_errors: usize,
}

/// Runs the multi-client load generator against a live `specdr serve`
/// daemon at `addr`, while a local writer thread churns the same
/// [`ShardRouter`] the daemon serves from.
///
/// Each client owns one TCP connection and pipelines requests drawn from
/// [`serve::mix_specs`]; the writer retains every [`ShardViewSet`] it
/// publishes. After the threads join, every response's `(epoch, digest)`
/// pair is re-derived by evaluating the same query against the retained
/// set of that epoch — a mismatch is a torn read that leaked through the
/// wire. Under the router's atomic cross-shard publish the count must be
/// zero.
pub fn drive_socket(
    router: Arc<ShardRouter>,
    addr: SocketAddr,
    cfg: &SocketDriveConfig,
) -> Result<SocketDriveReport, SubcubeError> {
    let schema = Arc::clone(router.schema());
    let script = churn_script(&schema, cfg.seed, cfg.steps);
    let query_days = query_days();
    let run = closed_loop(
        cfg.clients,
        cfg.min_queries_per_client,
        &script,
        |op| router.apply(op),
        || router.view_set(),
        |c, go| {
            let mut rng = SplitMix64(cfg.seed ^ 0x50C4E7 ^ (c as u64).wrapping_mul(0x9E37_79B9));
            let mut out = ClientRun::default();
            let Ok(stream) = TcpStream::connect_timeout(&addr, cfg.timeout) else {
                out.transport_errors += 1;
                return out;
            };
            let mut n = 0usize;
            while go(n) {
                let now = query_days[rng.below(query_days.len() as u64) as usize];
                let unsync = rng.below(2) == 0;
                let mix = serve::mix_specs(now, unsync);
                let qi = rng.below(mix.len() as u64) as usize;
                let payload = serve::query_payload(&mix[qi]);
                let t0 = Instant::now();
                let Ok(resp) = serve::request_on(&stream, &payload, cfg.timeout) else {
                    out.transport_errors += 1;
                    break; // the stream is no longer trustworthy
                };
                out.latency_ns.push(t0.elapsed().as_nanos() as u64);
                match parse_query_response(&resp) {
                    Some((epoch, digest)) => out.observations.push(WireObservation {
                        epoch,
                        query: qi,
                        unsync,
                        now,
                        digest,
                    }),
                    None => out.proto_errors += 1,
                }
                n += 1;
            }
            out
        },
    )?;

    // Audit: rebuild each query from the same textual spec the client
    // sent and evaluate it against the retained set of the epoch the
    // response claimed — the daemon and the audit share one compiler
    // ([`serve::QuerySpec::build`]), so digests are directly comparable.
    let by_epoch: std::collections::HashMap<u64, &Arc<ShardViewSet>> =
        run.published.iter().map(|v| (v.epoch(), v)).collect();
    let mut report = SocketDriveReport {
        published: run
            .published
            .iter()
            .map(|v| (v.epoch(), set_digest(v)))
            .collect(),
        observations: 0,
        torn_reads: 0,
        mutations_ok: run.mutations_ok,
        mutations_rejected: run.mutations_rejected,
        proto_errors: 0,
        transport_errors: 0,
        latency_ns: Vec::new(),
    };
    for client in run.readers {
        for ob in &client.observations {
            let expect = by_epoch.get(&ob.epoch).and_then(|set| {
                let spec = serve::mix_specs(ob.now, ob.unsync).swap_remove(ob.query);
                let q = spec.build(&schema).ok()?;
                spec.eval(&q, set, false).ok()
            });
            if expect.is_none_or(|mo| result_digest(&mo) != ob.digest) {
                report.torn_reads += 1;
            }
        }
        report.observations += client.observations.len();
        report.proto_errors += client.proto_errors;
        report.transport_errors += client.transport_errors;
        report.latency_ns.extend(client.latency_ns);
    }
    report.latency_ns.sort_unstable();
    Ok(report)
}

/// The `(epoch, digest)` an OK query response carries; `None` for an
/// error frame or a body without both fields.
fn parse_query_response(resp: &[u8]) -> Option<(u64, u64)> {
    let (serve::RESP_OK, body) = serve::split_response(resp).ok()? else {
        return None;
    };
    let body = String::from_utf8_lossy(body);
    let epoch = serve::response_field(&body, "epoch")?.parse().ok()?;
    let digest = serve::response_field(&body, "digest")?.strip_prefix("0x")?;
    Some((epoch, u64::from_str_radix(digest, 16).ok()?))
}
