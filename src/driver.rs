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
use std::sync::{Arc, Mutex};
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

/// An MO's rendered rows, sorted — what a query response lists and what
/// [`result_digest`] folds.
pub(crate) fn sorted_rows(mo: &Mo) -> Vec<String> {
    let mut rows: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    rows.sort();
    rows
}

/// FNV-1a64 over an MO's *sorted* rendered rows: an order-insensitive
/// content digest, so parallel and sequential evaluation of the same
/// query against the same version agree.
pub fn result_digest(mo: &Mo) -> u64 {
    rows_digest(&sorted_rows(mo))
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

/// Digest of a whole published version (every cube, in cube order).
fn view_digest(v: &WarehouseView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in v.cubes() {
        h ^= result_digest(c.data());
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
const QUERY_DAYS: [(i32, u32, u32); 3] = [(2000, 9, 15), (2001, 6, 15), (2002, 3, 1)];

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

/// Runs the closed loop against a fresh warehouse seeded with the paper
/// spec: writer churn + `cfg.readers` reader threads, then the torn-read
/// audit. See the module docs for the guarantees checked.
pub fn drive(spec: DataReductionSpec, cfg: &DriveConfig) -> Result<DriveReport, SubcubeError> {
    let schema = Arc::clone(spec.schema());
    let m = Arc::new(SubcubeManager::new(spec));
    let script = churn_script(&schema, cfg.seed, cfg.steps);

    // Every published version, retained for the post-join audit. The
    // writer is the only mutator, so capturing `view()` right after a
    // successful mutation observes exactly the version it published.
    let published: Mutex<Vec<WarehouseView>> = Mutex::new(vec![m.view()]);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let mut mutations_ok = 0usize;
    let mut mutations_rejected = 0usize;
    let query_days: Vec<DayNum> = QUERY_DAYS
        .iter()
        .map(|&(y, mo_, d)| days_from_civil(y, mo_, d))
        .collect();

    let writer_err: Mutex<Option<SubcubeError>> = Mutex::new(None);
    std::thread::scope(|s| {
        for r in 0..cfg.readers {
            let m = Arc::clone(&m);
            let done = &done;
            let observations = &observations;
            let query_days = &query_days;
            let seed = cfg.seed;
            let min_queries = cfg.min_queries_per_reader;
            s.spawn(move || {
                let mut rng = SplitMix64(seed ^ 0x5EAD ^ (r as u64).wrapping_mul(0x9E37_79B9));
                let mix = built_mix(m.schema());
                let mut local = Vec::new();
                let mut n = 0usize;
                loop {
                    // Acquire: pairs with the writer's Release store so a
                    // reader that sees `done` also sees the final publish.
                    let writer_active = !done.load(Ordering::Acquire);
                    if !writer_active && n >= min_queries {
                        break;
                    }
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
                observations.lock().unwrap().extend(local);
            });
        }
        // Writer: apply the schedule, snapshotting after each publication.
        for op in &script {
            match apply_churn(|o| m.apply(o), op) {
                Ok(true) => {
                    mutations_ok += 1;
                    published.lock().unwrap().push(m.view());
                }
                Ok(false) => mutations_rejected += 1,
                Err(e) => {
                    *writer_err.lock().unwrap() = Some(e);
                    break;
                }
            }
        }
        // Release: readers' Acquire loads of `done` must also observe
        // every version published before the writer finished.
        done.store(true, Ordering::Release);
    });
    if let Some(e) = writer_err.into_inner().unwrap() {
        return Err(e);
    }

    // Audit: re-evaluate every observation against the view it pinned.
    // Sequential evaluation (parallel=false) is the reference; the
    // digest is order-insensitive so it matches both.
    let published = published.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    let mix0 = built_mix(&schema);
    let published: Vec<(u64, u64)> = published
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
        mutations_ok,
        mutations_rejected,
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

    let published: Mutex<Vec<Arc<ShardViewSet>>> = Mutex::new(vec![router.view_set()]);
    let observations: Mutex<Vec<WireObservation>> = Mutex::new(Vec::new());
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let proto_errors = std::sync::atomic::AtomicUsize::new(0);
    let transport_errors = std::sync::atomic::AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut mutations_ok = 0usize;
    let mut mutations_rejected = 0usize;
    let query_days: Vec<DayNum> = QUERY_DAYS
        .iter()
        .map(|&(y, mo_, d)| days_from_civil(y, mo_, d))
        .collect();

    let writer_err: Mutex<Option<SubcubeError>> = Mutex::new(None);
    std::thread::scope(|s| {
        for c in 0..cfg.clients {
            let done = &done;
            let observations = &observations;
            let latencies = &latencies;
            let proto_errors = &proto_errors;
            let transport_errors = &transport_errors;
            let query_days = &query_days;
            let seed = cfg.seed;
            let min_queries = cfg.min_queries_per_client;
            let timeout = cfg.timeout;
            s.spawn(move || {
                let mut rng = SplitMix64(seed ^ 0x50C4E7 ^ (c as u64).wrapping_mul(0x9E37_79B9));
                let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
                    // relaxed-ok: monotonic error counter, read only after join.
                    transport_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let mut local = Vec::new();
                let mut local_lat = Vec::new();
                let mut n = 0usize;
                loop {
                    // Acquire: pairs with the writer's Release store so a
                    // reader that sees `done` also sees the final publish.
                    let writer_active = !done.load(Ordering::Acquire);
                    if !writer_active && n >= min_queries {
                        break;
                    }
                    let now = query_days[rng.below(query_days.len() as u64) as usize];
                    let unsync = rng.below(2) == 0;
                    let mix = serve::mix_specs(now, unsync);
                    let qi = rng.below(mix.len() as u64) as usize;
                    let payload = serve::query_payload(&mix[qi]);
                    let t0 = Instant::now();
                    match serve::request_on(&stream, &payload, timeout) {
                        Ok(resp) => {
                            local_lat.push(t0.elapsed().as_nanos() as u64);
                            match serve::split_response(&resp) {
                                Ok((serve::RESP_OK, body)) => {
                                    let body = String::from_utf8_lossy(body);
                                    let parsed = (|| {
                                        let epoch: u64 =
                                            serve::response_field(&body, "epoch")?.parse().ok()?;
                                        let digest = serve::response_field(&body, "digest")?;
                                        let digest =
                                            u64::from_str_radix(digest.strip_prefix("0x")?, 16)
                                                .ok()?;
                                        Some((epoch, digest))
                                    })();
                                    match parsed {
                                        Some((epoch, digest)) => local.push(WireObservation {
                                            epoch,
                                            query: qi,
                                            unsync,
                                            now,
                                            digest,
                                        }),
                                        None => {
                                            // relaxed-ok: monotonic error counter, read only after join.
                                            proto_errors.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                                _ => {
                                    // relaxed-ok: monotonic error counter, read only after join.
                                    proto_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            // relaxed-ok: monotonic error counter, read only after join.
                            transport_errors.fetch_add(1, Ordering::Relaxed);
                            break; // the stream is no longer trustworthy
                        }
                    }
                    n += 1;
                }
                observations.lock().unwrap().extend(local);
                latencies.lock().unwrap().extend(local_lat);
            });
        }
        for op in &script {
            match apply_churn(|o| router.apply(o), op) {
                Ok(true) => {
                    mutations_ok += 1;
                    published.lock().unwrap().push(router.view_set());
                }
                Ok(false) => mutations_rejected += 1,
                Err(e) => {
                    *writer_err.lock().unwrap() = Some(e);
                    break;
                }
            }
        }
        // Release: readers' Acquire loads of `done` must also observe
        // every version published before the writer finished.
        done.store(true, Ordering::Release);
    });
    if let Some(e) = writer_err.into_inner().unwrap() {
        return Err(e);
    }

    // Audit: rebuild each query from the same textual spec the client
    // sent and evaluate it against the retained set of the epoch the
    // response claimed — the daemon and the audit share one compiler
    // ([`serve::QuerySpec::build`]), so digests are directly comparable.
    let published = published.into_inner().unwrap();
    let by_epoch: std::collections::HashMap<u64, &Arc<ShardViewSet>> =
        published.iter().map(|v| (v.epoch(), v)).collect();
    let observations = observations.into_inner().unwrap();
    let mut torn = 0usize;
    for ob in &observations {
        let Some(set) = by_epoch.get(&ob.epoch) else {
            torn += 1;
            continue;
        };
        let spec = serve::mix_specs(ob.now, ob.unsync).swap_remove(ob.query);
        let built = spec.build(&schema).ok();
        let expect = built.and_then(|q| spec.eval(&q, set, false).ok());
        match expect {
            Some(mo) if result_digest(&mo) == ob.digest => {}
            _ => torn += 1,
        }
    }

    let published: Vec<(u64, u64)> = published
        .iter()
        .map(|v| (v.epoch(), set_digest(v)))
        .collect();
    let mut latency_ns = latencies.into_inner().unwrap();
    latency_ns.sort_unstable();

    Ok(SocketDriveReport {
        published,
        observations: observations.len(),
        torn_reads: torn,
        mutations_ok,
        mutations_rejected,
        proto_errors: proto_errors.into_inner(),
        transport_errors: transport_errors.into_inner(),
        latency_ns,
    })
}
