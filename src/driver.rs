//! Closed-loop concurrent warehouse driver.
//!
//! One seeded writer thread applies a [`churn_script`] of bulk loads,
//! syncs, and specification insert/delete to a shared one-shard
//! [`ShardRouter`] held [in memory](ShardRouter::in_memory), while
//! `readers` threads continuously issue the Figure 5–9 query mix
//! ([`serve::mix_specs`]) against whatever set [`view_set()`] hands
//! them. The writer retains the set each mutation publishes; each reader
//! records `(epoch, query, result digest)` exactly as a wire client of
//! [`drive_socket`] does. After the threads join, every observation is
//! re-evaluated against the retained set of its epoch — a missing epoch
//! or another digest is a *torn read*, a result that matches no
//! published version of the warehouse. Under snapshot isolation the
//! count must be zero.
//!
//! The driver is deliberately deterministic on the writer side: the
//! churn schedule and therefore the sequence of published epochs and
//! their content digests are a pure function of the seed, which is what
//! `scripts/ci.sh` compares across two runs (`SPECDR_CRASH_SEED`). Only
//! the reader interleaving varies between runs, and the torn-read check
//! makes any interleaving-visible inconsistency a test failure.
//!
//! [`churn_script`]: sdr_workload::churn_script
//! [`view_set()`]: sdr_subcube::ShardRouter::view_set

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdr_mdm::{calendar::days_from_civil, DayNum, Mo};
use sdr_reduce::DataReductionSpec;
use sdr_subcube::{ShardRouter, ShardViewSet, SubcubeError, WarehouseOp, WarehouseView};
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

/// The fixed evaluation days readers draw `NOW` from (results differ per
/// day, so each observation records which one it used).
fn query_days() -> [DayNum; 3] {
    [(2000, 9, 15), (2001, 6, 15), (2002, 3, 1)].map(|(y, m, d)| days_from_civil(y, m, d))
}

/// One reader observation, in-process or parsed out of a query response
/// frame: which mix query ran at which `NOW` and sync state against the
/// set of which epoch, and the result's content digest.
#[derive(Debug, Clone, Copy)]
struct Observation {
    epoch: u64,
    query: usize,
    unsync: bool,
    now: DayNum,
    digest: u64,
}

impl Observation {
    /// A reader's next request, drawn from `rng`: the query's `NOW`, its
    /// sync state and its index in the mix; `epoch` and `digest` are
    /// filled in from the answer.
    fn draw(rng: &mut SplitMix64) -> Observation {
        let days = query_days();
        let now = days[rng.below(days.len() as u64) as usize];
        let unsync = rng.below(2) == 0;
        let query = rng.below(serve::mix_specs(now, unsync).len() as u64) as usize;
        Observation {
            epoch: 0,
            query,
            unsync,
            now,
            digest: 0,
        }
    }

    /// The request's query spec.
    fn spec(&self) -> serve::QuerySpec {
        serve::mix_specs(self.now, self.unsync).swap_remove(self.query)
    }
}

/// The torn-read audit both drivers share: each observation's query is
/// rebuilt from the same textual spec the reader sent (one compiler,
/// [`serve::QuerySpec::build`], so digests compare directly) and
/// evaluated sequentially on the retained set of the epoch it claims. An
/// epoch the writer never published, or another digest, is a torn read.
fn torn_reads<'a>(
    schema: &Arc<sdr_mdm::Schema>,
    published: &[Arc<ShardViewSet>],
    observations: impl IntoIterator<Item = &'a Observation>,
) -> usize {
    let by_epoch: std::collections::HashMap<u64, &Arc<ShardViewSet>> =
        published.iter().map(|v| (v.epoch(), v)).collect();
    let torn = |ob: &&Observation| {
        let expect = by_epoch.get(&ob.epoch).and_then(|set| {
            let spec = ob.spec();
            let q = spec.build(schema).ok()?;
            spec.eval(&q, set, false).ok()
        });
        expect.is_none_or(|mo| result_digest(&mo) != ob.digest)
    };
    observations.into_iter().filter(torn).count()
}

/// Applies one churn op to `router`. `Ok(true)` when the op published a
/// new version, `Ok(false)` when the warehouse rejected it (legal,
/// nothing published).
fn apply_churn(router: &ShardRouter, op: &ChurnOp) -> Result<bool, SubcubeError> {
    let op = match op {
        ChurnOp::Load(mo) => WarehouseOp::BulkLoad(mo.clone()),
        ChurnOp::Sync(t) => WarehouseOp::Sync(*t),
        ChurnOp::SpecInsert(a) => WarehouseOp::SpecInsert(vec![a.clone()]),
        ChurnOp::SpecDelete(id, t) => WarehouseOp::SpecDelete(vec![*id], *t),
    };
    match router.apply(&op) {
        Ok(_) => Ok(true),
        // Spec-evolution rejections are part of a legal schedule; any
        // other error is a real failure the driver must surface.
        Err(SubcubeError::Reduce(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// What one run of the [`closed_loop`] leaves for its audit.
struct LoopRun<R> {
    /// The set before the first op, then the set each op that published,
    /// in publication order.
    published: Vec<Arc<ShardViewSet>>,
    /// What each reader returned, in reader order.
    readers: Vec<R>,
    mutations_ok: usize,
    mutations_rejected: usize,
}

/// The closed loop both drivers run. `readers` threads each run
/// `reader(r, go)`, querying while `go(n)` holds for the `n` queries
/// issued so far: until the writer is done, then down to `min_queries`.
/// The calling thread is the writer: it applies `script` to `router`
/// and keeps the published set after every op that published.
fn closed_loop<R: Send>(
    router: &ShardRouter,
    readers: usize,
    min_queries: usize,
    script: &[ChurnOp],
    reader: impl Fn(usize, &dyn Fn(usize) -> bool) -> R + Sync,
) -> Result<LoopRun<R>, SubcubeError> {
    let done = AtomicBool::new(false);
    // Acquire: pairs with the writer's Release store so a reader that
    // sees `done` also sees the final publish.
    let go = |n: usize| !done.load(Ordering::Acquire) || n < min_queries;
    // The writer is the only mutator, so the set read right after a
    // successful op is exactly the one that op published.
    let mut published = vec![router.view_set()];
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
            match apply_churn(router, op) {
                Ok(true) => {
                    mutations_ok += 1;
                    published.push(router.view_set());
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

/// Runs the closed loop against a fresh one-shard in-memory warehouse
/// under `spec`: writer churn + `cfg.readers` reader threads, then the
/// torn-read audit. See the module docs for the guarantees checked.
pub fn drive(spec: DataReductionSpec, cfg: &DriveConfig) -> Result<DriveReport, SubcubeError> {
    let router = ShardRouter::in_memory(spec)?;
    let schema = Arc::clone(router.schema());
    let script = churn_script(&schema, cfg.seed, cfg.steps);
    let run = closed_loop(
        &router,
        cfg.readers,
        cfg.min_queries_per_reader,
        &script,
        |r, go| {
            let mut rng = SplitMix64(cfg.seed ^ 0x5EAD ^ (r as u64).wrapping_mul(0x9E37_79B9));
            let mut local = Vec::new();
            let mut n = 0usize;
            while go(n) {
                let mut ob = Observation::draw(&mut rng);
                let spec = ob.spec();
                let set = router.view_set();
                let res = spec.build(&schema).ok().map(|q| spec.eval(&q, &set, true));
                if let Some(Ok(res)) = res {
                    (ob.epoch, ob.digest) = (set.epoch(), result_digest(&res));
                    local.push(ob);
                }
                n += 1;
            }
            local
        },
    )?;

    let observations: Vec<Observation> = run.readers.into_iter().flatten().collect();
    let torn = torn_reads(&schema, &run.published, &observations);
    let published: Vec<(u64, u64)> = run
        .published
        .iter()
        .map(|v| (v.epoch(), set_digest(v)))
        .collect();
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

/// What one socket client saw.
#[derive(Default)]
struct ClientRun {
    observations: Vec<Observation>,
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
    let run = closed_loop(
        &router,
        cfg.clients,
        cfg.min_queries_per_client,
        &script,
        |c, go| {
            let mut rng = SplitMix64(cfg.seed ^ 0x50C4E7 ^ (c as u64).wrapping_mul(0x9E37_79B9));
            let mut out = ClientRun::default();
            let Ok(stream) = TcpStream::connect_timeout(&addr, cfg.timeout) else {
                out.transport_errors += 1;
                return out;
            };
            let mut n = 0usize;
            while go(n) {
                let mut ob = Observation::draw(&mut rng);
                let payload = serve::query_payload(&ob.spec());
                let t0 = Instant::now();
                let Ok(resp) = serve::request_on(&stream, &payload, cfg.timeout) else {
                    out.transport_errors += 1;
                    break; // the stream is no longer trustworthy
                };
                out.latency_ns.push(t0.elapsed().as_nanos() as u64);
                match parse_query_response(&resp) {
                    Some((epoch, digest)) => {
                        (ob.epoch, ob.digest) = (epoch, digest);
                        out.observations.push(ob);
                    }
                    None => out.proto_errors += 1,
                }
                n += 1;
            }
            out
        },
    )?;

    let observations = run.readers.iter().flat_map(|c| &c.observations);
    let mut report = SocketDriveReport {
        published: run
            .published
            .iter()
            .map(|v| (v.epoch(), set_digest(v)))
            .collect(),
        observations: 0,
        torn_reads: torn_reads(&schema, &run.published, observations),
        mutations_ok: run.mutations_ok,
        mutations_rejected: run.mutations_rejected,
        proto_errors: 0,
        transport_errors: 0,
        latency_ns: Vec::new(),
    };
    for client in run.readers {
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
