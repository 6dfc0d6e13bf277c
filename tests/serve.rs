//! Wire-protocol conformance and corruption suite (ISSUE 9,
//! satellite 4 + tentpole acceptance).
//!
//! A `specdr serve` daemon must (a) answer well-formed query/stats/
//! explain/ping frames with digests identical to in-process evaluation,
//! (b) reject the cap+1'th connection with a typed `busy` frame, and
//! (c) turn *every* malformed byte stream — truncated frames, bit
//! flips, oversized lengths, garbage, a stalled sender — into a typed
//! error frame or a bounded disconnect, never a panic and never a hung
//! connection slot. After each abuse round the same server must still
//! answer a clean request correctly: protocol errors are per-connection,
//! not contagious.
//!
//! The multi-client load generator (`driver::drive_socket`) closes the
//! loop: concurrent TCP clients against a daemon whose warehouse a
//! writer churns through the [`ShardRouter`], with every wire response
//! audited against the retained published set of its epoch.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use specdr::driver::{drive_socket, result_digest, SocketDriveConfig};
use specdr::mdm::calendar::days_from_civil;
use specdr::reduce::DataReductionSpec;
use specdr::serve::{
    self, baseline_spec, mix_specs, query_payload, read_frame, request, response_field,
    split_response, write_frame, FrameError, ServeConfig, ERR_BAD_REQUEST, ERR_BUSY, ERR_CORRUPT,
    ERR_OVERSIZED, MAX_FRAME, REQ_PING, REQ_QUERY, REQ_STATS, RESP_ERR, RESP_OK,
};
use specdr::spec::parse_action;
use specdr::subcube::ShardRouter;
use specdr::workload::{
    churn_script, generate, paper_schema, retention_policy, ChurnOp, ClickstreamConfig, SplitMix64,
    ACTION_A1, ACTION_A2,
};

fn paper_spec() -> DataReductionSpec {
    let (schema, _) = paper_schema();
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap()
}

fn tdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sdr-serve-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// A served warehouse with some churn applied: the fixture for every
/// protocol test.
fn served(
    name: &str,
    cfg: &ServeConfig,
) -> (Arc<ShardRouter>, serve::ServeHandle, std::path::PathBuf) {
    let dir = tdir(name);
    let schema = Arc::clone(paper_spec().schema());
    let router = Arc::new(ShardRouter::create(paper_spec(), &dir, 2).unwrap());
    for op in churn_script(&schema, 21, 10) {
        let _ = match &op {
            ChurnOp::Load(mo) => router.bulk_load(mo).map(|_| ()),
            ChurnOp::Sync(t) => router.sync(*t).map(|_| ()),
            ChurnOp::SpecInsert(a) => router.spec_insert(vec![a.clone()]).map(|_| ()),
            ChurnOp::SpecDelete(id, t) => router.spec_delete(&[*id], *t),
        };
    }
    let handle = serve::serve(Arc::clone(&router), cfg).unwrap();
    (router, handle, dir)
}

const TIMEOUT: Duration = Duration::from_secs(5);

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One query round-trip checked against in-process evaluation of the
/// same spec: the wire `digest=` is [`result_digest`] of the whole
/// answer, `rows=` its length, and the `row=` lines are its rendered
/// rows, sorted, capped at 500 with `truncated=1` exactly when the cap
/// cut some off. Returns the body's FNV-1a (pinned against the parent
/// commit's by the callers) and the answer's row count.
fn checked_query(
    router: &ShardRouter,
    addr: &std::net::SocketAddr,
    spec: &serve::QuerySpec,
) -> (u64, usize) {
    let resp = request(addr, &query_payload(spec), TIMEOUT).unwrap();
    let (tag, body) = split_response(&resp).unwrap();
    assert_eq!(tag, RESP_OK, "{}", String::from_utf8_lossy(body));
    let digest = fnv(body);
    let body = String::from_utf8_lossy(body);
    let q = spec.build(router.schema()).unwrap();
    let local = spec.eval(&q, &router.view_set(), false).unwrap();
    let wire = response_field(&body, "digest").unwrap();
    let wire = u64::from_str_radix(wire.strip_prefix("0x").unwrap(), 16).unwrap();
    assert_eq!(wire, result_digest(&local), "{spec:?}");
    let rows: usize = response_field(&body, "rows").unwrap().parse().unwrap();
    assert_eq!(rows, local.len());
    let mut want: Vec<String> = local.facts().map(|f| local.render_fact(f)).collect();
    want.sort();
    want.truncate(500);
    let sent: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("row="))
        .collect();
    assert_eq!(sent, want, "{spec:?}");
    assert_eq!(body.ends_with("truncated=1\n"), rows > 500, "{spec:?}");
    (digest, rows)
}

/// Asserts the daemon still answers a clean baseline query with the
/// in-process digest — used after every abuse round.
fn assert_still_serving(router: &ShardRouter, addr: &std::net::SocketAddr) {
    let now = days_from_civil(2001, 6, 15);
    let spec = baseline_spec(now);
    let resp = request(addr, &query_payload(&spec), TIMEOUT).expect("clean request must succeed");
    let (tag, body) = split_response(&resp).unwrap();
    assert_eq!(tag, RESP_OK);
    let body = String::from_utf8_lossy(body);
    let wire: u64 = u64::from_str_radix(
        response_field(&body, "digest")
            .unwrap()
            .strip_prefix("0x")
            .unwrap(),
        16,
    )
    .unwrap();
    let q = spec.build(router.schema()).unwrap();
    let local = result_digest(&spec.eval(&q, &router.view_set(), false).unwrap());
    assert_eq!(
        wire, local,
        "wire digest diverged from in-process evaluation"
    );
}

/// Every request type round-trips and the query digest equals
/// in-process evaluation for the whole mix, both sync states.
#[test]
fn wire_digests_match_in_process() {
    let (router, handle, dir) = served("digests", &ServeConfig::default());
    let addr = handle.addr();
    // Response bodies as a051888 sent them (FNV-1a, in loop order).
    const PARENT: [u64; 16] = [
        0xe156_e35e_d914_89cf,
        0xda5a_3b18_72a6_f6b3,
        0xb2f3_f67f_88de_1f2c,
        0x1327_5b27_38a3_28ad,
        0xe156_e35e_d914_89cf,
        0xda5a_3b18_72a6_f6b3,
        0xb2f3_f67f_88de_1f2c,
        0x1327_5b27_38a3_28ad,
        0xe156_e35e_d914_89cf,
        0xda5a_3b18_72a6_f6b3,
        0xb2f3_f67f_88de_1f2c,
        0x1327_5b27_38a3_28ad,
        0x1327_5b27_38a3_28ad,
        0xda5a_3b18_72a6_f6b3,
        0xb2f3_f67f_88de_1f2c,
        0x1327_5b27_38a3_28ad,
    ];
    let mut bodies = Vec::new();
    for &now in &[days_from_civil(2000, 9, 15), days_from_civil(2001, 6, 15)] {
        for unsync in [false, true] {
            for spec in mix_specs(now, unsync) {
                bodies.push(checked_query(&router, &addr, &spec).0);
            }
        }
    }
    assert_eq!(bodies, PARENT, "got {bodies:#x?}");
    // stats
    let resp = request(&addr, &[REQ_STATS], TIMEOUT).unwrap();
    let (tag, body) = split_response(&resp).unwrap();
    assert_eq!(tag, RESP_OK);
    let body = String::from_utf8_lossy(body);
    assert_eq!(response_field(&body, "shards"), Some("2"));
    assert_eq!(
        response_field(&body, "facts")
            .unwrap()
            .parse::<usize>()
            .unwrap(),
        router.len()
    );
    // explain
    let spec = baseline_spec(days_from_civil(2001, 6, 15));
    let resp = request(&addr, &serve::explain_payload(&spec), TIMEOUT).unwrap();
    let (tag, body) = split_response(&resp).unwrap();
    assert_eq!(tag, RESP_OK);
    let body = String::from_utf8_lossy(body);
    assert!(body.lines().any(|l| l.starts_with("plan=shard 0")));
    assert!(body.lines().any(|l| l.starts_with("plan=shard 1")));
    assert!(body.contains("scan") || body.contains("skip:"));
    assert!(
        !body.contains("memo="),
        "a synchronized plan has no memo line"
    );
    // explain, un-synchronized: the aged views' verdicts plus, per shard,
    // whether the pinned version's memo already held them.
    let unsync = serve::QuerySpec {
        unsync: true,
        ..baseline_spec(days_from_civil(2004, 2, 29))
    };
    for verdict in ["miss", "hit"] {
        let resp = request(&addr, &serve::explain_payload(&unsync), TIMEOUT).unwrap();
        let (tag, body) = split_response(&resp).unwrap();
        assert_eq!(tag, RESP_OK);
        let body = String::from_utf8_lossy(body);
        for shard in 0..2 {
            let line = format!("memo=shard {shard} virtual age: {verdict}");
            assert!(body.lines().any(|l| l == line), "{line}: {body}");
            let plan = format!("plan=shard {shard}");
            assert!(body.lines().any(|l| l.starts_with(&plan)));
        }
    }
    // ping
    let resp = request(&addr, &[REQ_PING], TIMEOUT).unwrap();
    let (tag, body) = split_response(&resp).unwrap();
    assert_eq!(tag, RESP_OK);
    assert_eq!(body, b"pong\n");
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The mix over a two-shard click-stream warehouse (18 months × 20
/// clicks a day under the 6/36 retention policy, synchronized the day
/// after its last click), and one bottom-granularity answer over the
/// 500-row cap: bodies byte-identical to the parent commit's.
#[test]
fn wire_rows_are_sorted_capped_and_digested_whole() {
    // Response bodies as a051888 sent them (FNV-1a, in loop order).
    const PARENT: [u64; 9] = [
        0xf2c2_113b_07bc_4266,
        0x40e2_0964_10ae_3a9b,
        0xe431_f4e3_2972_02a5,
        0x0a6a_ebd0_3c86_6efc,
        0xf2c2_113b_07bc_4266,
        0x40e2_0964_10ae_3a9b,
        0xe431_f4e3_2972_02a5,
        0x0a6a_ebd0_3c86_6efc,
        0x142d_77a8_0cf2_079b,
    ];
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 20,
        start: (1999, 1, 1),
        end: (2000, 6, 28),
        ..Default::default()
    });
    let actions = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let dir = tdir("rows");
    let router = Arc::new(ShardRouter::create(spec, &dir, 2).unwrap());
    router.bulk_load(&cs.mo).unwrap();
    router.sync(days_from_civil(2000, 6, 29)).unwrap();
    let handle = serve::serve(Arc::clone(&router), &ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let mut bodies = Vec::new();
    for unsync in [false, true] {
        for spec in mix_specs(days_from_civil(2000, 10, 1), unsync) {
            bodies.push(checked_query(&router, &addr, &spec).0);
        }
    }
    let bottom = serve::QuerySpec {
        levels: String::new(),
        ..baseline_spec(days_from_civil(2000, 6, 29))
    };
    let (body, rows) = checked_query(&router, &addr, &bottom);
    assert!(
        rows > 500,
        "the bottom-granularity answer must exceed the cap: {rows}"
    );
    bodies.push(body);
    assert_eq!(bodies, PARENT, "got {bodies:#x?}");
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// One connection can pipeline many requests; epochs are monotone under
/// concurrent writer churn and every digest matches its own epoch.
#[test]
fn admission_control_rejects_over_cap_with_busy_frame() {
    let cfg = ServeConfig {
        max_conns: 2,
        ..Default::default()
    };
    let (router, handle, dir) = served("cap", &cfg);
    let addr = handle.addr();
    // Two held connections fill the cap (a request each proves they are
    // live slots, not idle accepts).
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            let resp = serve::request_on(&s, &[REQ_PING], TIMEOUT).unwrap();
            assert_eq!(split_response(&resp).unwrap().0, RESP_OK);
            s
        })
        .collect();
    // The third gets a typed busy frame.
    let mut third = TcpStream::connect(addr).unwrap();
    third.set_read_timeout(Some(TIMEOUT)).unwrap();
    let resp = read_frame(&mut third).expect("busy frame expected");
    let (tag, body) = split_response(&resp).unwrap();
    assert_eq!(tag, RESP_ERR);
    assert_eq!(body[0], ERR_BUSY);
    drop(third);
    // Releasing a slot readmits new connections.
    drop(held);
    std::thread::sleep(Duration::from_millis(100));
    assert_still_serving(&router, &addr);
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption matrix: truncated frames, flipped bits, oversized and
/// zero lengths, raw garbage — each yields a typed error frame (or a
/// clean disconnect for incomplete headers), never a panic, and the
/// server keeps serving afterwards.
#[test]
fn corrupt_frames_yield_typed_errors_never_panics() {
    let (router, handle, dir) = served(
        "fuzz",
        &ServeConfig {
            read_timeout: Duration::from_millis(500),
            ..Default::default()
        },
    );
    let addr = handle.addr();

    // (a) Bit-flipped payload: CRC catches it → ERR_CORRUPT.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        let payload = query_payload(&baseline_spec(days_from_civil(2001, 6, 15)));
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&specdr::storage::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let n = frame.len();
        frame[n - 3] ^= 0x10; // flip a payload bit
        s.write_all(&frame).unwrap();
        let resp = read_frame(&mut s).expect("typed corrupt frame");
        let (tag, body) = split_response(&resp).unwrap();
        assert_eq!((tag, body[0]), (RESP_ERR, ERR_CORRUPT));
    }
    assert_still_serving(&router, &addr);

    // (b) Oversized declared length → ERR_OVERSIZED before any payload
    // is read (no unbounded allocation).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&frame).unwrap();
        let resp = read_frame(&mut s).expect("typed oversized frame");
        let (tag, body) = split_response(&resp).unwrap();
        assert_eq!((tag, body[0]), (RESP_ERR, ERR_OVERSIZED));
    }
    // (c) Zero-length frame is equally refused.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        s.write_all(&[0u8; 8]).unwrap();
        let resp = read_frame(&mut s).expect("typed zero-length frame");
        let (tag, body) = split_response(&resp).unwrap();
        assert_eq!((tag, body[0]), (RESP_ERR, ERR_OVERSIZED));
    }
    assert_still_serving(&router, &addr);

    // (d) Truncated frame (header promises more than is sent, then the
    // sender stalls): the bounded read disconnects within the deadline —
    // the slot is not held forever. Detected by EOF on our side.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        let payload = b"\x01now=800000\n";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32 + 64).to_le_bytes());
        frame.extend_from_slice(&specdr::storage::crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        s.write_all(&frame).unwrap();
        // Server's read deadline (500ms) fires; it closes. A blocking
        // read on our side then sees EOF (possibly after an error
        // frame); either way the connection dies bounded.
        let mut buf = [0u8; 64];
        let t0 = std::time::Instant::now();
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "stalled sender held its slot past the read deadline"
        );
    }
    assert_still_serving(&router, &addr);

    // (e) Seeded garbage streams: random bytes, random lengths. Every
    // connection ends in a typed error frame or a disconnect; the
    // server answers a clean query after each.
    let mut rng = SplitMix64(0xF422);
    for round in 0..16 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        let n = 1 + (rng.next_u64() % 64) as usize;
        let junk: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let _ = s.write_all(&junk);
        match read_frame(&mut s) {
            Ok(resp) => {
                let (tag, _) = split_response(&resp).unwrap();
                // Random 8 bytes parsing as a valid in-range header is
                // astronomically unlikely; anything but an error frame
                // would mean the server invented an answer.
                assert_eq!(
                    tag, RESP_ERR,
                    "round {round}: garbage got a non-error reply"
                );
            }
            Err(FrameError::Closed | FrameError::Io(_)) => {} // bounded disconnect
            Err(e) => panic!("round {round}: client-side frame error {e}"),
        }
        if round % 5 == 0 {
            assert_still_serving(&router, &addr);
        }
    }

    // (f) Well-framed but semantically bad requests: unknown tag,
    // non-UTF-8 body, unknown keys, bad values — all ERR_BAD_REQUEST.
    for bad in [
        vec![0x7Fu8],
        vec![REQ_QUERY, 0xFF, 0xFE, 0x80],
        b"\x01nonsense\n".to_vec(),
        b"\x01now=notaday\n".to_vec(),
        b"\x01now=1000\nmode=cubist\n".to_vec(),
        // A weighted threshold outside [0, 1], or not a number.
        b"\x01now=1000\nmode=weighted:NaN\n".to_vec(),
        b"\x01now=1000\nmode=weighted:-1\n".to_vec(),
        b"\x01now=1000\nmode=weighted:inf\n".to_vec(),
        b"\x01now=1000\nwhere=URL.bogus_cat = 3\n".to_vec(),
        b"\x01unsync=1\n".to_vec(), // missing now=
        vec![],
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        if bad.is_empty() {
            // An empty payload cannot even be framed (len 0 is refused);
            // send the refused framing directly.
            s.write_all(&[0u8; 8]).unwrap();
        } else {
            write_frame(&mut s, &bad).unwrap();
        }
        let resp = read_frame(&mut s).expect("typed error for bad request");
        let (tag, body) = split_response(&resp).unwrap();
        assert_eq!(tag, RESP_ERR);
        assert!(
            body[0] == ERR_BAD_REQUEST || body[0] == ERR_OVERSIZED,
            "unexpected error code {}",
            body[0]
        );
    }
    assert_still_serving(&router, &addr);

    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole acceptance loop: a multi-client load generator against
/// the socket while a writer churns the sharded warehouse — zero torn
/// reads through the wire, zero protocol errors, across seeds.
#[test]
fn socket_loadgen_no_torn_reads_across_seeds() {
    for seed in [1u64, 7, 23] {
        let dir = tdir(&format!("loadgen-{seed}"));
        let router = Arc::new(ShardRouter::create(paper_spec(), &dir, 2).unwrap());
        let handle = serve::serve(Arc::clone(&router), &ServeConfig::default()).unwrap();
        let cfg = SocketDriveConfig {
            seed,
            clients: 3,
            steps: 12,
            min_queries_per_client: 10,
            ..Default::default()
        };
        let report = drive_socket(Arc::clone(&router), handle.addr(), &cfg)
            .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
        assert_eq!(
            report.torn_reads, 0,
            "seed={seed}: {} torn reads out of {} wire observations",
            report.torn_reads, report.observations
        );
        assert_eq!(report.proto_errors, 0, "seed={seed}");
        assert_eq!(report.transport_errors, 0, "seed={seed}");
        assert!(
            report.observations >= 3 * 10,
            "seed={seed}: clients under-delivered ({})",
            report.observations
        );
        assert!(report.mutations_ok >= 8, "seed={seed}");
        assert_eq!(
            report.published.len(),
            report.mutations_ok + 1,
            "seed={seed}: every successful mutation publishes exactly one version"
        );
        drop(handle);
        std::fs::remove_dir_all(&dir).ok();
    }
}
