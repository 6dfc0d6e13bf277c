//! # `specdr serve` — the network daemon over the sharded warehouse
//!
//! A deliberately small, std-only, length-prefixed wire protocol with
//! the same CRC framing discipline as the WAL, served by a
//! thread-per-connection accept loop over a [`ShardRouter`].
//!
//! ## Wire format
//!
//! Every frame, in both directions:
//!
//! ```text
//! len:  u32 le     payload length (0 < len <= MAX_FRAME)
//! crc:  u32 le     CRC-32 (IEEE) of the payload — sdr-storage's crc32
//! payload          len bytes
//! ```
//!
//! The payload's first byte is a tag; the rest is UTF-8 `key=value`
//! lines (requests) or a small line-oriented report (responses):
//!
//! | tag    | direction | meaning                                    |
//! |--------|-----------|--------------------------------------------|
//! | `0x01` | request   | query (body: [`QuerySpec`] lines)          |
//! | `0x02` | request   | stats                                      |
//! | `0x03` | request   | explain (body: [`QuerySpec`] lines)        |
//! | `0x04` | request   | ping                                       |
//! | `0x80` | response  | ok (body depends on the request)           |
//! | `0xFF` | response  | error: 1 code byte, then a UTF-8 message   |
//!
//! Error codes: `1` busy (admission control), `2` oversized frame, `3`
//! corrupt frame, `4` bad request, `5` internal. A corrupt or oversized
//! frame gets a typed error frame and then the connection is closed —
//! after a framing error the byte stream can no longer be trusted.
//! Reads are bounded by a per-connection deadline, so a stalled or
//! malicious peer cannot hold a connection slot forever.
//!
//! Every request is wrapped in an `sdr-obs` span and counted
//! (`serve.requests`, `serve.rejected`, `serve.errors`); latency feeds
//! the `serve.latency_ns` histogram (p50/p90/p99 in `specdr serve
//! --metrics` output).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use sdr_sync::atomic::{AtomicBool, Ordering};
use sdr_sync::Gate;
use std::time::{Duration, Instant};

use sdr_mdm::{DayNum, Mo, Schema};
use sdr_query::{AggApproach, SelectMode};
use sdr_spec::parse_pexp;
use sdr_storage::wal::crc32;
use sdr_subcube::{CubeQuery, ShardRouter, ShardViewSet, SubcubeError};

/// Largest accepted frame payload (1 MiB).
pub const MAX_FRAME: u32 = 1 << 20;

/// Request tag: query.
pub const REQ_QUERY: u8 = 0x01;
/// Request tag: stats.
pub const REQ_STATS: u8 = 0x02;
/// Request tag: explain.
pub const REQ_EXPLAIN: u8 = 0x03;
/// Request tag: ping.
pub const REQ_PING: u8 = 0x04;
/// Response tag: success.
pub const RESP_OK: u8 = 0x80;
/// Response tag: typed error.
pub const RESP_ERR: u8 = 0xFF;

/// Error code: connection cap reached (admission control).
pub const ERR_BUSY: u8 = 1;
/// Error code: frame length exceeds [`MAX_FRAME`].
pub const ERR_OVERSIZED: u8 = 2;
/// Error code: frame checksum mismatch.
pub const ERR_CORRUPT: u8 = 3;
/// Error code: malformed request payload.
pub const ERR_BAD_REQUEST: u8 = 4;
/// Error code: server-side evaluation failure.
pub const ERR_INTERNAL: u8 = 5;

/// Why reading one frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O error (including a read deadline expiring).
    Io(io::Error),
    /// The declared length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The payload failed its CRC.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::Oversized(n) => write!(f, "oversized frame ({n} bytes)"),
            FrameError::Corrupt => write!(f, "corrupt frame (checksum mismatch)"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one CRC-framed payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one CRC-framed payload, bounded by [`MAX_FRAME`]. The caller
/// sets the read deadline on the underlying stream; a timeout surfaces
/// as [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut head = [0u8; 8];
    if let Err(e) = r.read_exact(&mut head) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Closed
        } else {
            FrameError::Io(e)
        });
    }
    let len = u32::from_le_bytes(head[..4].try_into().unwrap());
    let want = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if len == 0 || len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Corrupt),
        Err(e) => return Err(FrameError::Io(e)),
    }
    if crc32(&payload) != want {
        return Err(FrameError::Corrupt);
    }
    Ok(payload)
}

/// A textual query specification — the body of query/explain request
/// frames, and the single source the in-process evaluation builds its
/// [`CubeQuery`] from, so a wire digest and a local digest are always
/// comparing the same query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Optional predicate source (`--where` syntax).
    pub pred: Option<String>,
    /// `conservative` | `liberal` | `weighted:<threshold>`.
    pub mode: String,
    /// Comma-separated `Dim.cat` roll-up levels (unlisted dimensions
    /// stay at bottom granularity); empty = all bottom.
    pub levels: String,
    /// `availability` | `lub`.
    pub approach: String,
    /// Evaluation day (`NOW`).
    pub now: DayNum,
    /// Evaluate the unsynchronized state (lazy virtual sync).
    pub unsync: bool,
}

impl QuerySpec {
    /// Serializes the spec as request-body lines.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("now={}\n", self.now));
        s.push_str(&format!("unsync={}\n", u8::from(self.unsync)));
        s.push_str(&format!("mode={}\n", self.mode));
        s.push_str(&format!("approach={}\n", self.approach));
        s.push_str(&format!("levels={}\n", self.levels));
        if let Some(p) = &self.pred {
            s.push_str(&format!("where={p}\n"));
        }
        s
    }

    /// Parses request-body lines.
    pub fn decode(body: &str) -> Result<QuerySpec, String> {
        let mut spec = QuerySpec {
            pred: None,
            mode: "conservative".into(),
            levels: String::new(),
            approach: "availability".into(),
            now: 0,
            unsync: false,
        };
        let mut saw_now = false;
        for line in body.lines() {
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("bad request line `{line}`"))?;
            match k {
                "now" => {
                    spec.now = v.parse().map_err(|_| format!("bad now `{v}`"))?;
                    saw_now = true;
                }
                "unsync" => spec.unsync = v == "1",
                "mode" => spec.mode = v.into(),
                "approach" => spec.approach = v.into(),
                "levels" => spec.levels = v.into(),
                "where" => spec.pred = Some(v.into()),
                other => return Err(format!("unknown request key `{other}`")),
            }
        }
        if !saw_now {
            return Err("missing now=".into());
        }
        Ok(spec)
    }

    /// Compiles the spec into a [`CubeQuery`] against `schema` — the one
    /// text → query builder, for the wire and for every CLI command.
    pub fn build(&self, schema: &Arc<Schema>) -> Result<CubeQuery, String> {
        let pred = match &self.pred {
            Some(p) => Some(parse_pexp(schema, p).map_err(|e| e.to_string())?),
            None => None,
        };
        let mode: SelectMode = self.mode.parse()?;
        let approach: AggApproach = self.approach.parse()?;
        let mut levels = schema.bottom_granularity().0;
        for name in self.levels.split(',').map(str::trim) {
            if name.is_empty() {
                continue;
            }
            let (dim, cat) = schema.resolve_cat(name).map_err(|e| e.to_string())?;
            levels[dim.index()] = cat;
        }
        Ok(CubeQuery {
            pred,
            mode,
            levels,
            approach,
        })
    }

    /// Evaluates `q` — this spec, [built](QuerySpec::build) — on a pinned
    /// shard set at `now`, in the sync state the spec names: the one
    /// place `unsync` picks the entry point.
    pub fn eval(
        &self,
        q: &CubeQuery,
        set: &ShardViewSet,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        if self.unsync {
            set.query_unsync(q, self.now, parallel)
        } else {
            set.query(q, self.now, parallel)
        }
    }
}

/// The Figure 5–9 query mix (`now`/`unsync` filled in per request):
/// roll-ups with and without predicates, in conservative, liberal and
/// weighted imprecision modes — the request pool of both load drivers
/// and of the differential tests.
pub fn mix_specs(now: DayNum, unsync: bool) -> Vec<QuerySpec> {
    use {AggApproach::*, SelectMode::*};
    let q = |pred: Option<&str>, mode: SelectMode, levels: &str, approach: AggApproach| QuerySpec {
        pred: pred.map(Into::into),
        mode: mode.to_string(),
        levels: levels.into(),
        approach: approach.to_string(),
        now,
        unsync,
    };
    vec![
        q(None, Conservative, "Time.month,URL.domain", Availability),
        q(
            Some("URL.domain_grp = .com"),
            Conservative,
            "Time.quarter,URL.domain_grp",
            Availability,
        ),
        q(
            Some("Time.year <= 2001"),
            Liberal,
            "Time.year,URL.domain_grp",
            Lub,
        ),
        q(
            Some("URL.domain_grp = .com AND Time.quarter <= 2001Q4"),
            Weighted { threshold: 0.5 },
            "Time.quarter,URL.domain",
            Availability,
        ),
    ]
}

/// The smoke-test baseline query (mix entry 0: conservative monthly
/// domain roll-up). `specdr serve` prints its digest at startup and
/// `specdr client` issues it by default, so `scripts/ci.sh` can compare
/// in-process and over-the-wire answers.
pub fn baseline_spec(now: DayNum) -> QuerySpec {
    mix_specs(now, false).swap_remove(0)
}

/// Builds the error response payload for `code`/`msg`.
pub fn error_payload(code: u8, msg: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(2 + msg.len());
    p.push(RESP_ERR);
    p.push(code);
    p.extend_from_slice(msg.as_bytes());
    p
}

/// Splits a response payload into `(tag, body)`.
pub fn split_response(payload: &[u8]) -> Result<(u8, &[u8]), String> {
    match payload.first() {
        Some(&t) => Ok((t, &payload[1..])),
        None => Err("empty response".into()),
    }
}

/// Extracts `key=` from a line-oriented response body.
pub fn response_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Admission-control cap on concurrent connections; the cap+1'th
    /// connection receives a typed `busy` error frame and is closed.
    pub max_conns: usize,
    /// Per-frame read deadline — a peer that stops sending mid-frame is
    /// disconnected after this long instead of holding a slot.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: 64,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server: its bound address and a shutdown switch.
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop, and joins it. Live
    /// connection handlers notice on their next bounded read and exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Release: handlers that observe the flag (Acquire) must also see
        // every write made before shutdown was requested.
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            // Poke the listener so a blocking accept returns.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
            let _ = h.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the daemon on `cfg.addr` over `router` and returns
/// immediately; the accept loop runs on a background thread,
/// thread-per-connection beneath it.
pub fn serve(router: Arc<ShardRouter>, cfg: &ServeConfig) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Gate::new(cfg.max_conns));
    let cfg = cfg.clone();
    let stop = Arc::clone(&shutdown);
    let accept = std::thread::spawn(move || {
        for conn in listener.incoming() {
            // Acquire: pairs with the Release store in `stop` so the
            // loop sees a consistent shutdown request.
            if stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Admission control: over the cap, answer with a typed
            // `busy` frame instead of queueing invisibly. The permit is
            // an RAII slot: moved into the handler thread, released on
            // every exit path (including panics) by its Drop —
            // `specdr check serve` proves the cap is never exceeded and
            // no slot leaks.
            let Some(permit) = gate.try_acquire() else {
                sdr_obs::inc("serve.rejected");
                let mut stream = stream;
                let _ = write_frame(
                    &mut stream,
                    &error_payload(ERR_BUSY, "connection cap reached"),
                );
                continue;
            };
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let timeout = cfg.read_timeout;
            std::thread::spawn(move || {
                let _permit = permit;
                let _ = handle_conn(stream, &router, &stop, timeout);
            });
        }
    });
    Ok(ServeHandle {
        addr,
        shutdown,
        accept: Some(accept),
    })
}

/// One connection: bounded-read request frames until the peer closes,
/// the deadline expires, a framing error poisons the stream, or the
/// server shuts down.
fn handle_conn(
    mut stream: TcpStream,
    router: &ShardRouter,
    stop: &AtomicBool,
    timeout: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    loop {
        // Acquire: pairs with the Release store in `ServeHandle::stop`.
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => return Ok(()),
            Err(FrameError::Oversized(n)) => {
                sdr_obs::inc("serve.errors");
                let msg = format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap");
                let _ = write_frame(&mut stream, &error_payload(ERR_OVERSIZED, &msg));
                return Ok(()); // framing lost: close
            }
            Err(FrameError::Corrupt) => {
                sdr_obs::inc("serve.errors");
                let _ = write_frame(
                    &mut stream,
                    &error_payload(ERR_CORRUPT, "frame checksum mismatch"),
                );
                return Ok(()); // framing lost: close
            }
            Err(FrameError::Io(_)) => return Ok(()), // deadline or reset: close
        };
        let t0 = Instant::now();
        let _span = sdr_obs::span("serve.request");
        sdr_obs::inc("serve.requests");
        let response = handle_request(router, &payload);
        sdr_obs::record("serve.latency_ns", t0.elapsed().as_nanos() as u64);
        write_frame(&mut stream, &response)?;
    }
}

/// Dispatches one request payload to its handler; never panics — every
/// failure becomes a typed error frame.
fn handle_request(router: &ShardRouter, payload: &[u8]) -> Vec<u8> {
    let Some((&tag, body)) = payload.split_first() else {
        sdr_obs::inc("serve.errors");
        return error_payload(ERR_BAD_REQUEST, "empty request");
    };
    let result = match tag {
        REQ_PING => Ok("pong\n".to_string()),
        REQ_STATS => Ok(render_stats(router)),
        REQ_QUERY | REQ_EXPLAIN => std::str::from_utf8(body)
            .map_err(|_| "request body is not UTF-8".to_string())
            .and_then(QuerySpec::decode)
            .and_then(|spec| Ok((spec.build(router.schema())?, spec)))
            .map_err(|e| (ERR_BAD_REQUEST, e))
            .and_then(|(q, spec)| match tag {
                REQ_QUERY => run_query(router, &router.view_set(), &spec, &q),
                _ => run_explain(router, &spec, &q),
            }),
        other => Err((
            ERR_BAD_REQUEST,
            format!("unknown request tag 0x{other:02x}"),
        )),
    };
    match result {
        Ok(body) => {
            let mut p = Vec::with_capacity(1 + body.len());
            p.push(RESP_OK);
            p.extend_from_slice(body.as_bytes());
            p
        }
        Err((code, msg)) => {
            sdr_obs::inc("serve.errors");
            error_payload(code, &msg)
        }
    }
}

/// Rows included verbatim in a query response; the digest always covers
/// the full result.
const ROWS_CAP: usize = 500;

/// Answers `q` from `set`, the set the request pinned. The answer is
/// consistent whatever the writer does meanwhile (it saw one whole
/// set), but when a newer set was published while it ran the read was
/// stale: a traced run counts it as `subcube.query.stale_reads`.
fn run_query(
    router: &ShardRouter,
    set: &ShardViewSet,
    spec: &QuerySpec,
    q: &CubeQuery,
) -> Result<String, (u8, String)> {
    let res = spec
        .eval(q, set, true)
        .map_err(|e| (ERR_INTERNAL, e.to_string()))?;
    if sdr_obs::enabled() && router.view_set().epoch() > set.epoch() {
        sdr_obs::inc("subcube.query.stale_reads");
    }
    // Rendered and sorted once: the digest folds the rows the body lists.
    let rows = crate::driver::sorted_rows([&res]);
    let mut body = format!(
        "epoch={}\ndigest=0x{:016x}\nrows={}\n",
        set.epoch(),
        crate::driver::rows_digest(&rows),
        rows.len()
    );
    for row in rows.iter().take(ROWS_CAP) {
        body.push_str("row=");
        body.push_str(row);
        body.push('\n');
    }
    if rows.len() > ROWS_CAP {
        body.push_str("truncated=1\n");
    }
    Ok(body)
}

fn run_explain(
    router: &ShardRouter,
    spec: &QuerySpec,
    q: &CubeQuery,
) -> Result<String, (u8, String)> {
    let pinned = router.view_set();
    // An un-synchronized query is planned on the virtually aged views:
    // explain those, and say whether each came from its version's memo.
    let (set, memo) = if spec.unsync {
        let (aged, hits) = pinned
            .virtual_age(spec.now)
            .map_err(|e| (ERR_INTERNAL, e.to_string()))?;
        (Arc::new(aged), hits)
    } else {
        (pinned, Vec::new())
    };
    let plans = set.plans(q, spec.now);
    let mut body = format!("epoch={}\nshards={}\n", set.epoch(), set.shards());
    for (s, hit) in memo.iter().enumerate() {
        let verdict = if *hit { "hit" } else { "miss" };
        body.push_str(&format!("memo=shard {s} virtual age: {verdict}\n"));
    }
    for (s, (plan, view)) in plans.iter().zip(set.views()).enumerate() {
        for (i, cube) in view.cubes().iter().enumerate() {
            let verdict = match plan.skip_reason(i) {
                Some(r) => format!("skip:{}", r.label()),
                None => "scan".to_string(),
            };
            body.push_str(&format!(
                "plan=shard {s} cube {i} [{}] {} facts: {verdict}\n",
                view.schema().render_granularity(&cube.grain),
                cube.rows(),
            ));
        }
    }
    Ok(body)
}

fn render_stats(router: &ShardRouter) -> String {
    let set = router.view_set();
    let mut body = format!(
        "shards={}\nepoch={}\nfacts={}\nactions={}\n",
        set.shards(),
        set.epoch(),
        set.len(),
        router.spec().actions().len(),
    );
    match set.last_sync() {
        Some(d) => body.push_str(&format!("last_sync={d}\n")),
        None => body.push_str("last_sync=never\n"),
    }
    for (i, v) in set.views().iter().enumerate() {
        body.push_str(&format!(
            "shard={i} facts={} cubes={}\n",
            v.len(),
            v.cubes().len()
        ));
    }
    body
}

/// One round-trip: connect, send `payload`, read one response frame.
pub fn request(
    addr: &SocketAddr,
    payload: &[u8],
    timeout: Duration,
) -> Result<Vec<u8>, FrameError> {
    let stream = TcpStream::connect_timeout(addr, timeout).map_err(FrameError::Io)?;
    request_on(&stream, payload, timeout)
}

/// Sends `payload` on an existing connection and reads one response —
/// for clients that pipeline many requests over one stream.
pub fn request_on(
    mut stream: &TcpStream,
    payload: &[u8],
    timeout: Duration,
) -> Result<Vec<u8>, FrameError> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(FrameError::Io)?;
    write_frame(&mut stream, payload).map_err(FrameError::Io)?;
    read_frame(&mut stream)
}

/// Builds a query request payload from a [`QuerySpec`].
pub fn query_payload(spec: &QuerySpec) -> Vec<u8> {
    let mut p = vec![REQ_QUERY];
    p.extend_from_slice(spec.encode().as_bytes());
    p
}

/// Builds an explain request payload from a [`QuerySpec`].
pub fn explain_payload(spec: &QuerySpec) -> Vec<u8> {
    let mut p = vec![REQ_EXPLAIN];
    p.extend_from_slice(spec.encode().as_bytes());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::calendar::days_from_civil;
    use sdr_reduce::DataReductionSpec;
    use sdr_spec::parse_action;
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};

    #[test]
    fn a_query_on_a_superseded_set_counts_one_stale_read() {
        let _g = crate::OBS_REGISTRY.lock().unwrap();
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let actions = [ACTION_A1, ACTION_A2].map(|a| parse_action(&schema, a).unwrap());
        let spec = DataReductionSpec::new(Arc::clone(&schema), actions.to_vec()).unwrap();
        let router = ShardRouter::in_memory(spec).unwrap();
        router.bulk_load(&mo.gather(&[0, 1, 2])).unwrap();
        let spec = baseline_spec(days_from_civil(2000, 11, 5));
        let q = spec.build(&schema).unwrap();
        let was_enabled = sdr_obs::enabled();
        sdr_obs::set_enabled(true);
        sdr_obs::reset();
        let stale = || sdr_obs::snapshot().counter("subcube.query.stale_reads");
        let pinned = router.view_set();
        router.bulk_load(&mo.gather(&[3])).unwrap();
        run_query(&router, &pinned, &spec, &q).unwrap();
        let after_old = stale();
        run_query(&router, &router.view_set(), &spec, &q).unwrap();
        let after_fresh = stale();
        sdr_obs::set_enabled(was_enabled);
        assert_eq!(after_old, Some(1), "the superseded set's read is stale");
        assert_eq!(after_fresh, Some(1), "the fresh set's read is not");
    }
}
