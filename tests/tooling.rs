//! Integration tests for the tooling layer: persistence, the fluent query
//! builder, explanations, table rendering, and workload soundness.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{render_table, MeasureId, TableOptions};
use specdr::query::{AggApproach, Query, SelectMode};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::spec::{explain_action, explain_origin, parse_action, parse_pexp};
use specdr::subcube::{ShardRouter, SubcubeError};
use specdr::workload::{
    generate, paper_mo, prover_heavy_policy, retention_policy, ClickstreamConfig, ACTION_A1,
    ACTION_A2,
};

/// Every file under `dirs`, recursively.
fn files_under(dirs: impl IntoIterator<Item = PathBuf>) -> Vec<PathBuf> {
    let mut stack: Vec<_> = dirs.into_iter().collect();
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files
}

/// The `*.rs` files under `dirs`, recursively.
fn rust_files(dirs: impl IntoIterator<Item = PathBuf>) -> Vec<PathBuf> {
    let mut files = files_under(dirs);
    files.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    files
}

/// The `src` directory of every crate under `crates/`.
fn crate_sources(root: &Path) -> impl Iterator<Item = PathBuf> {
    let crates = std::fs::read_dir(root.join("crates")).unwrap();
    crates.map(|e| e.unwrap().path().join("src"))
}

fn paper_spec() -> (specdr::mdm::Mo, DataReductionSpec) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    (mo, DataReductionSpec::new(schema, vec![a1, a2]).unwrap())
}

#[test]
fn subcube_persistence_roundtrip() {
    let (mo, spec) = paper_spec();
    let dir = std::env::temp_dir().join(format!("specdr-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let m = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    m.bulk_load(&mo).unwrap();
    m.sync(days_from_civil(2000, 11, 5)).unwrap();
    m.checkpoint().unwrap();
    let (loaded, report) = ShardRouter::recover(spec, &dir).unwrap();
    assert_eq!(report.replayed, 0, "everything is in the checkpoint");
    assert_eq!(loaded.len(), m.len());
    let rows = |w: &ShardRouter| {
        let mo = w.view_set().to_mo().unwrap();
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    assert_eq!(rows(&loaded), rows(&m));
    // Opening it over a schema its specification does not parse against
    // must fail.
    let retail = specdr::workload::generate_retail(&specdr::workload::RetailConfig {
        sales_per_day: 0,
        ..Default::default()
    })
    .schema;
    assert!(ShardRouter::recover(DataReductionSpec::empty(retail), &dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistence_missing_dir_fails() {
    let (_, spec) = paper_spec();
    assert!(ShardRouter::recover(spec, "/nonexistent/specdr-dir").is_err());
}

#[test]
fn query_builder_composes_operators() {
    let (mo, spec) = paper_spec();
    let now = days_from_civil(2000, 11, 5);
    let red = reduce(&mo, &spec, now).unwrap();
    let result = Query::new()
        .filter(parse_pexp(red.schema(), "URL.domain_grp = .com").unwrap())
        .mode(SelectMode::Conservative)
        .project(&["Time", "URL"], &["Number_of", "Dwell_time"])
        .roll_up(&["Time.year", "URL.domain_grp"])
        .approach(AggApproach::Availability)
        .run(&red, now)
        .unwrap();
    let mut rows: Vec<String> = result.facts().map(|f| result.render_fact(f)).collect();
    rows.sort();
    assert_eq!(
        rows,
        vec!["fact(1999, .com | 4, 3178)", "fact(2000, .com | 2, 955)"]
    );
    // An empty query is the identity.
    let id = Query::new().run(&red, now).unwrap();
    assert_eq!(id.len(), red.len());
    // Builder surfaces resolution errors.
    assert!(Query::new().roll_up(&["Nope.x"]).run(&red, now).is_err());
}

#[test]
fn explanations_are_english() {
    let (mo, spec) = paper_spec();
    let schema = mo.schema();
    let a1 = spec.actions()[0].1.clone();
    let text = explain_action(&a1, schema);
    assert!(
        text.contains("aggregates facts to (Time.month, URL.domain)"),
        "{text}"
    );
    assert!(text.contains(".com"), "{text}");
    assert!(text.contains("shrinking by itself"), "{text}");
    let a2 = spec.actions()[1].1.clone();
    let t2 = explain_action(&a2, schema);
    assert!(t2.contains("growing by itself"), "{t2}");
    // Origin explanations.
    let now = days_from_civil(2000, 11, 5);
    let red = reduce(&mo, &spec, now).unwrap();
    let mut seen_user = false;
    let mut seen_action = false;
    for f in red.facts() {
        let o = red.store().origin[f.index()];
        let e = explain_origin(o, spec.actions(), schema);
        if e.contains("inserted by a user") {
            seen_user = true;
        }
        if e.contains("aggregated by action") {
            seen_action = true;
        }
    }
    assert!(seen_user && seen_action);
    assert!(explain_origin(999, spec.actions(), schema).contains("since-deleted"));
}

#[test]
fn table_rendering_shows_paper_data() {
    let (mo, _) = paper_mo();
    let t = render_table(&mo, TableOptions::default());
    assert!(t.contains("Time"), "{t}");
    assert!(t.contains("Dwell_time"));
    assert!(t.contains("1999/12/4"));
    assert!(t.contains("2335"));
    assert_eq!(t.lines().count(), 2 + 7);
}

#[test]
fn prover_heavy_policy_is_sound() {
    // Cross-pairs have unordered granularities; the prover must verify
    // their predicates never overlap — and accept the set.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        n_domain_grps: 4,
        ..Default::default()
    });
    let actions: Vec<_> = prover_heavy_policy(4)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    // Making two groups share a predicate breaks it: same .com group with
    // both grains overlaps and is unordered → rejected.
    let a = parse_action(
        &cs.schema,
        "p(a[Time.quarter, URL.domain] o[URL.domain_grp = .com AND Time.quarter <= NOW - 8 quarters](O))",
    )
    .unwrap();
    let b = parse_action(
        &cs.schema,
        "p(a[Time.month, URL.domain_grp] o[URL.domain_grp = .com AND Time.month <= NOW - 24 months](O))",
    )
    .unwrap();
    assert!(DataReductionSpec::new(Arc::clone(&cs.schema), vec![a, b]).is_err());
}

#[test]
fn retention_policy_end_to_end_totals() {
    // A medium synthetic warehouse: the reduced MO answers the same
    // top-level totals as the raw one at every sweep point.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 60,
        start: (1999, 1, 1),
        end: (2000, 6, 28),
        ..Default::default()
    });
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let raw_total: i64 = cs.mo.facts().map(|f| cs.mo.measure(f, MeasureId(3))).sum();
    for k in 0..6 {
        let now = specdr::mdm::time::shift_day(
            days_from_civil(1999, 9, 1),
            specdr::mdm::Span::new(6 * k, specdr::mdm::TimeUnit::Month),
            1,
        );
        let red = reduce(&cs.mo, &spec, now).unwrap();
        let total: i64 = red.facts().map(|f| red.measure(f, MeasureId(3))).sum();
        assert_eq!(total, raw_total);
    }
}

// --- checkpoint error paths: every failure names the file and cause ---

/// Writes a small one-shard warehouse under a unique temp dir, folded
/// into the epoch-1 checkpoint, and returns the spec that wrote it and
/// its checkpoint directory. With `sync: false` all facts stay at day
/// level in the bottom cube.
fn saved_dir(tag: &str, sync: bool) -> (DataReductionSpec, std::path::PathBuf) {
    let (mo, spec) = paper_spec();
    let dir = std::env::temp_dir().join(format!("specdr-errs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let m = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    m.bulk_load(&mo).unwrap();
    if sync {
        m.sync(days_from_civil(2000, 11, 5)).unwrap();
    }
    m.checkpoint().unwrap();
    (spec, dir)
}

/// The message `recover` fails `dir` with.
fn storage_msg(spec: DataReductionSpec, dir: &std::path::Path) -> String {
    match ShardRouter::recover(spec, dir)
        .err()
        .expect("recover should fail")
    {
        SubcubeError::Storage(msg) => msg,
        other => panic!("expected SubcubeError::Storage, got: {other}"),
    }
}

#[test]
fn load_from_dir_reports_missing_cube_file() {
    let (spec, dir) = saved_dir("missing", true);
    let victim = dir.join("ckpt-000001").join("cube-1.sdr");
    std::fs::remove_file(&victim).unwrap();
    let msg = storage_msg(spec, &dir);
    assert!(msg.contains(&victim.display().to_string()), "{msg}");
    assert!(msg.contains("No such file or directory"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_reports_corrupt_cube_header() {
    let (spec, dir) = saved_dir("corrupt", true);
    let victim = dir.join("ckpt-000001").join("cube-0.sdr");
    let mut bytes = std::fs::read(&victim).unwrap();
    for b in bytes.iter_mut().take(8) {
        *b ^= 0xFF;
    }
    std::fs::write(&victim, &bytes).unwrap();
    let msg = storage_msg(spec, &dir);
    assert!(msg.contains(&victim.display().to_string()), "{msg}");
    assert!(msg.contains("corrupt table: bad magic"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_rejects_foreign_granularity_cube() {
    // Day-level facts smuggled into a non-bottom cube slot must be
    // rejected: the file parses, but its contents belong to a different
    // layout.
    let (spec, dir) = saved_dir("foreign", false);
    let ckpt = dir.join("ckpt-000001");
    std::fs::copy(ckpt.join("cube-0.sdr"), ckpt.join("cube-1.sdr")).unwrap();
    let msg = storage_msg(spec, &dir);
    assert!(
        msg.contains(
            "fact at foreign granularity — was the directory written \
             with a different specification?"
        ),
        "{msg}"
    );
    assert!(msg.contains("cube-1.sdr"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest whose specification is not the one its cubes and hash
/// were written under — here the a2-only spec's text, CRC-valid.
#[test]
fn load_from_dir_rejects_foreign_spec_with_hash_message() {
    let (spec, dir) = saved_dir("spechash", true);
    let (schema2, _) = specdr::workload::paper_schema();
    let only_a2 = parse_action(&schema2, ACTION_A2).unwrap();
    let small = DataReductionSpec::new(schema2, vec![only_a2]).unwrap();
    let man_path = dir.join("ckpt-000001").join("MANIFEST");
    let mut man =
        specdr::subcube::Manifest::decode(&man_path, &std::fs::read(&man_path).unwrap()).unwrap();
    man.spec_text = small.render();
    std::fs::write(&man_path, man.encode()).unwrap();
    let msg = storage_msg(spec, &dir);
    assert!(
        msg.contains(
            "specification hash mismatch — was the directory written \
             with a different specification?"
        ),
        "{msg}"
    );
    assert!(msg.contains("MANIFEST"), "{msg}");
    // The message shows what spec the directory was written with.
    assert!(msg.contains("on disk:"), "{msg}");
    assert!(msg.contains("a0 = p("), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_rejects_extra_cubes_on_disk() {
    let (spec, dir) = saved_dir("extra", true);
    // Forge a manifest announcing one more cube than the layout defines
    // (re-encoded, so the CRC is valid and the count check is what fires).
    let man_path = dir.join("ckpt-000001").join("MANIFEST");
    let mut man =
        specdr::subcube::Manifest::decode(&man_path, &std::fs::read(&man_path).unwrap()).unwrap();
    man.cube_count += 1;
    std::fs::write(&man_path, man.encode()).unwrap();
    let msg = storage_msg(spec, &dir);
    assert!(
        msg.contains("more cubes on disk than the specification defines"),
        "{msg}"
    );
    assert!(msg.contains("cube-3.sdr"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

// --- CLI behavior, driven through the real binary ---

fn specdr_bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_specdr"))
}

#[test]
fn cli_rejects_unknown_flags() {
    // Unknown flag: non-zero exit, error names the flag and hints at help.
    let out = specdr_bin()
        .args(["query", "--bogus-flag"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bogus-flag"), "{err}");
    assert!(err.contains("specdr help"), "{err}");
    // Stray positional arguments are rejected too.
    let out = specdr_bin()
        .args(["query", "--months", "6", "unexpected"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected"));
    // A boolean switch given a value is rejected.
    let out = specdr_bin()
        .args(["stats", "--bytes=yes"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes no value"));
    // Unknown subcommands still fail.
    let out = specdr_bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_metrics_json_is_parseable_and_complete() {
    let out = specdr_bin()
        .args([
            "query",
            "--months",
            "12",
            "--clicks",
            "20",
            "--metrics=json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let metric_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with('{') && l.contains("\"kind\":\""))
        .collect();
    assert!(!metric_lines.is_empty(), "no metric lines in:\n{stdout}");
    let has = |kind: &str, name_part: &str| {
        metric_lines
            .iter()
            .any(|l| l.contains(&format!("\"kind\":\"{kind}\"")) && l.contains(name_part))
    };
    // ≥1 counter, span timings with percentiles from each of sdr-reduce
    // (the spec's analysis), sdr-subcube, and sdr-query. The in-memory
    // warehouse records no histogram; `stats` covers that kind.
    assert!(has("counter", "age.rows_homed"), "{stdout}");
    assert!(
        has("span", "\"name\":\"subcube.sync\"")
            && metric_lines
                .iter()
                .any(|l| l.contains("\"kind\":\"span\"") && l.contains("\"p99\":")),
        "{stdout}"
    );
    assert!(has("span", "\"name\":\"reduce."), "{stdout}");
    assert!(has("span", "\"name\":\"subcube."), "{stdout}");
    assert!(has("span", "\"name\":\"query."), "{stdout}");
    // Every metric line is balanced-brace JSON with a name or seq.
    for l in &metric_lines {
        assert!(l.ends_with('}'), "{l}");
        assert!(l.contains("\"name\":") || l.contains("\"seq\":"), "{l}");
    }
}

#[test]
fn cli_stats_prints_snapshot_table() {
    let out = specdr_bin()
        .args(["stats", "--months", "6", "--clicks", "10"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("age.rows_homed"), "{stdout}");
    assert!(stdout.contains("wal.records_appended"), "{stdout}");
    assert!(stdout.contains("spans:"), "{stdout}");
    assert!(stdout.contains("subcube.sync"), "{stdout}");
    // The pipeline summary (stderr) lists every cube with its chunk count.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let cubes: Vec<&str> = stderr.lines().filter(|l| l.starts_with("  K")).collect();
    assert_eq!(cubes.len(), 3, "{stderr}");
    assert!(
        cubes
            .iter()
            .all(|l| l.contains(" rows=") && l.contains(" chunks=")),
        "{stderr}"
    );
}

#[test]
fn stats_json_golden_schema_is_stable() {
    // Golden test for the JSONL metric schema (documented on
    // `Snapshot::to_jsonl` and in DESIGN.md § Introspection): fixed kind
    // order, names sorted within a kind, fixed key order per line, and
    // the exact metric-name sets emitted by the deterministic
    // 6-month × 10-click durable warehouse (load → sync → checkpoint →
    // query) — so the schema cannot silently
    // drift. Counts and durations vary with the machine; the names ARE
    // the schema.
    let out = specdr_bin()
        .args([
            "stats", "--months", "6", "--clicks", "10", "--format", "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!lines.is_empty(), "no metric lines in:\n{stdout}");

    // 1. Kinds appear in the fixed order.
    let rank = |l: &str| {
        ["counter", "gauge", "histogram", "span", "event", "trace"]
            .iter()
            .position(|k| l.starts_with(&format!("{{\"kind\":\"{k}\"")))
            .unwrap_or_else(|| panic!("line with unknown kind: {l}"))
    };
    let ranks: Vec<usize> = lines.iter().map(|l| rank(l)).collect();
    let mut sorted_ranks = ranks.clone();
    sorted_ranks.sort_unstable();
    assert_eq!(ranks, sorted_ranks, "kind order drifted:\n{stdout}");
    // All six kinds are exercised by this pipeline.
    for k in 0..6 {
        assert!(ranks.contains(&k), "kind #{k} missing:\n{stdout}");
    }

    // 2. Keys within a line appear in the documented order.
    for l in &lines {
        let keys: &[&str] = match rank(l) {
            0 | 1 => &["\"kind\":", "\"name\":", "\"value\":"],
            2 | 3 => &[
                "\"kind\":",
                "\"name\":",
                "\"count\":",
                "\"sum\":",
                "\"min\":",
                "\"max\":",
                "\"p50\":",
                "\"p90\":",
                "\"p99\":",
            ],
            4 => &[
                "\"kind\":",
                "\"seq\":",
                "\"at_ns\":",
                "\"name\":",
                "\"detail\":",
            ],
            _ => &[
                "\"kind\":",
                "\"id\":",
                "\"parent\":",
                "\"name\":",
                "\"tid\":",
                "\"start_ns\":",
                "\"dur_ns\":",
                "\"attrs\":",
            ],
        };
        let mut at = 0usize;
        for k in keys {
            match l[at..].find(k) {
                Some(i) => at += i + k.len(),
                None => panic!("key {k} missing or out of order in {l}"),
            }
        }
    }

    // 3. Named metrics are sorted by name within each kind.
    let name_of = |l: &str| {
        l.split("\"name\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no name in {l}"))
    };
    let names_of_kind = |kind: &str| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.starts_with(&format!("{{\"kind\":\"{kind}\"")))
            .map(|l| name_of(l))
            .collect()
    };
    for kind in ["counter", "gauge", "histogram", "span"] {
        let names = names_of_kind(kind);
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "{kind} names not sorted:\n{stdout}");
    }

    // 4. The golden name sets, including the PR 6 trace counters.
    assert_eq!(
        names_of_kind("counter"),
        [
            "age.cells_delta",
            "age.cubes_skipped",
            "age.rows_homed",
            "age.ticks",
            "durable.checkpoint.bytes",
            "durable.checkpoint.count",
            "durable.checkpoint.cubes",
            "obs.trace.spans_closed",
            "plan.chunks_scanned",
            "plan.chunks_skipped",
            "plan.cubes_scanned",
            "plan.cubes_skipped",
            "plan.skip.empty",
            "query.aggregate.availability.cells_visited",
            "query.aggregate.cells_produced",
            "query.aggregate.kernel.distinct_cells",
            "query.aggregate.kernel.distinct_dim_values",
            "query.select.cells_kept",
            "query.select.cells_visited",
            "storage.columns.bitpacked",
            "storage.columns.delta",
            "storage.columns.dict",
            "storage.columns.plain",
            "storage.columns.rle",
            "storage.encoded_bytes",
            "storage.rows_sealed",
            "storage.serialized_bytes",
            "subcube.bulk_load.facts",
            "subcube.chunks.carried",
            "subcube.chunks.rewritten",
            "subcube.publish.count",
            "subcube.query.fanout",
            "wal.bytes_appended",
            "wal.records_appended",
        ],
        "counter name set drifted:\n{stdout}"
    );
    assert_eq!(names_of_kind("gauge"), ["subcube.epoch"], "{stdout}");
    assert_eq!(
        names_of_kind("histogram"),
        ["storage.segment_bytes", "wal.record_bytes"],
        "{stdout}"
    );
    assert_eq!(
        names_of_kind("span"),
        [
            "durable.checkpoint",
            "plan.query",
            "query.aggregate",
            "reduce.analyze",
            "shard.bulk_load",
            "shard.checkpoint",
            "shard.query",
            "shard.sync",
            "storage.encode",
            "storage.serialize",
            "subcube.age",
            "subcube.age.rebuild",
            "subcube.age.scan",
            "subcube.age.tick",
            "subcube.bulk_load",
            "subcube.query",
            "subcube.query.subquery",
            "subcube.sync",
            "wal.append",
        ],
        "span name set drifted:\n{stdout}"
    );
}

#[test]
fn cli_checkpoint_then_recover_roundtrips() {
    let dir = std::env::temp_dir().join(format!("specdr-cli-dur-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().unwrap();
    let out = specdr_bin()
        .args([
            "checkpoint",
            "--dir",
            dir_s,
            "--months",
            "6",
            "--clicks",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checkpoint published"), "{stdout}");
    assert!(stdout.contains("shards     = 1"), "{stdout}");
    assert!(stdout.contains("epoch      = 1"), "{stdout}");
    assert!(stdout.contains("wal hwm    = 2 ops"), "{stdout}");
    // One shard is the single-directory layout.
    assert!(dir.join("CURRENT").exists() && !dir.join("SHARDS").exists());
    assert!(dir.join("ckpt-000001").join("MANIFEST").exists());

    let out = specdr_bin()
        .args(["recover", "--dir", dir_s])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovered"), "{stdout}");
    assert!(stdout.contains("shards          = 1"), "{stdout}");
    assert!(stdout.contains("epoch           = 1"), "{stdout}");
    assert!(
        stdout.contains("replayed        = 0 WAL records"),
        "{stdout}"
    );
    assert!(stdout.contains("dropped (unacked) = 0 records"), "{stdout}");
    assert!(stdout.contains("ops durable     = 2"), "{stdout}");
    assert!(stdout.contains("last sync       = "), "{stdout}");
    assert!(stdout.contains("warehouse       = "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `specdr serve --dir D --shards 2` leaves a sharded layout (`D/SHARDS`
/// and `D/shard-00N/`); `recover` and `checkpoint` open it with the
/// shard count it holds, through the same path as a one-shard one, and
/// `recover --metrics=json` shows where the cold start went.
#[test]
fn cli_recover_and_checkpoint_read_a_serve_created_directory() {
    use std::io::{BufRead, BufReader};
    let dir = std::env::temp_dir().join(format!("specdr-cli-serve-dir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().unwrap();
    let size = ["--months", "6", "--clicks", "10"];
    let mut serve = specdr_bin()
        .args(["serve", "--dir", dir_s, "--shards", "2"])
        .args(size)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The banner's last line is `serve: baseline …`; by then the
    // warehouse is loaded, synced and its facts/epoch line printed.
    let mut out = BufReader::new(serve.stdout.take().unwrap());
    let mut banner = String::new();
    while !banner.contains("serve: baseline") {
        assert!(
            out.read_line(&mut banner).unwrap() > 0,
            "serve died: {banner}"
        );
    }
    let term = std::process::Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    // Drain to EOF so the daemon's shutdown line has somewhere to go.
    while out.read_line(&mut banner).unwrap() > 0 {}
    assert!(serve.wait().unwrap().success(), "serve output:\n{banner}");
    let field = |name: &str| -> String {
        let at = banner
            .find(name)
            .unwrap_or_else(|| panic!("no {name} in {banner}"));
        let rest = &banner[at + name.len()..];
        rest.split_whitespace().next().unwrap().to_string()
    };
    let (facts, epoch) = (field("facts="), field("epoch="));
    assert!(dir.join("SHARDS").exists() && !dir.join("CURRENT").exists());

    let run = |args: &[&str]| {
        let out = specdr_bin().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout = run(&["recover", "--dir", dir_s, "--metrics=json"]);
    assert!(stdout.contains("shards          = 2"), "{stdout}");
    // The metrics split the cold start: the router's recovery, then each
    // shard's checkpoint load and WAL replay. The spec is analyzed once,
    // for the command's own spec build: every shard's checkpoint holds
    // that same spec, and recovery reuses it.
    let span_count = |name: &str| -> Option<u64> {
        let line = stdout.lines().find(|l| {
            l.contains("\"kind\":\"span\"") && l.contains(&format!("\"name\":\"{name}\""))
        })?;
        let rest = line.split("\"count\":").nth(1)?;
        rest.split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    assert_eq!(span_count("shard.recover"), Some(1), "{stdout}");
    for shard_span in [
        "durable.recover",
        "durable.recover.checkpoint",
        "durable.recover.replay",
    ] {
        assert_eq!(span_count(shard_span), Some(2), "{shard_span}: {stdout}");
    }
    assert_eq!(span_count("reduce.analyze"), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("epoch           = {epoch}\n")),
        "{stdout}"
    );
    // The bulk load and the sync serve applied, one record per shard.
    assert!(
        stdout.contains("replayed        = 4 WAL records"),
        "{stdout}"
    );
    assert!(stdout.contains("dropped (torn)  = 0 bytes"), "{stdout}");
    assert!(stdout.contains("dropped (unacked) = 0 records"), "{stdout}");
    assert!(stdout.contains("resumed ckpt    = false"), "{stdout}");
    assert!(stdout.contains("ops durable     = 2"), "{stdout}");
    assert!(
        stdout.contains(&format!("warehouse       = {facts} facts\n")),
        "{stdout}"
    );

    let mut ckpt = vec!["checkpoint", "--dir", dir_s];
    ckpt.extend(size);
    let stdout = run(&ckpt);
    assert!(stdout.contains("checkpoint published"), "{stdout}");
    assert!(stdout.contains("shards     = 2"), "{stdout}");
    let next: u64 = epoch.parse::<u64>().unwrap() + 1;
    assert!(
        stdout.contains(&format!("epoch      = {next}\n")),
        "{stdout}"
    );
    let stdout = run(&["recover", "--dir", dir_s]);
    assert!(
        stdout.contains(&format!("epoch           = {next}\n")),
        "{stdout}"
    );
    assert!(
        stdout.contains("replayed        = 0 WAL records"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_recover_fails_on_missing_directory() {
    let out = specdr_bin()
        .args(["recover", "--dir", "/nonexistent/specdr-warehouse"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("CURRENT"), "{err}");
}

#[test]
fn cli_checkpoint_requires_dir_flag() {
    let out = specdr_bin().arg("checkpoint").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dir"));
}

#[test]
fn cli_runs_without_metrics_by_default() {
    // No --metrics flag → no metric lines in the output at all.
    let out = specdr_bin()
        .args(["query", "--months", "6", "--clicks", "10"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("\"kind\":"), "{stdout}");
    assert!(!stdout.contains("metrics:"), "{stdout}");
}

/// Every `--now`/`--until` goes through one date parser: a month
/// outside 1–12 or a day past the month's end is a `bad date`, never a
/// panic or another day.
#[test]
fn cli_rejects_impossible_dates() {
    for args in [
        ["lint", "--now", "2001/13/40"],
        ["age", "--until", "2001/2/30"],
    ] {
        let out = specdr_bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad date"), "{args:?}: {err}");
    }
}

/// `specdr query` answers from the warehouse exactly what Definitions
/// 2, 5 and 6 give on the raw facts: its output equals the test-side
/// reference — `reduce_naive` → `select_naive` → `aggregate_ids_naive`,
/// rows sorted — for every flag set.
#[test]
fn cli_query_matches_the_naive_reference() {
    use specdr::query::{aggregate_ids_naive, select_naive};
    use specdr::reduce::reduce_naive;
    use specdr::serve::QuerySpec;

    // Six months × 2 clicks/day seen from 2002/3/15: 1999Q1 is reduced
    // to (quarter, domain_grp), the rest to (month, domain), and every
    // answer is short enough to print whole.
    let data = ["--months", "6", "--clicks", "2", "--now", "2002/3/15"];
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 2,
        start: (1999, 1, 1),
        end: (1999, 6, 28),
        ..Default::default()
    });
    let actions = retention_policy(6, 36)
        .iter()
        .map(|a| parse_action(&cs.schema, a).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let now = days_from_civil(2002, 3, 15);
    let reduced = reduce_naive(&cs.mo, &spec, now).unwrap();
    let flag_sets: [&[&str]; 4] = [
        &[],
        &[
            "--where",
            "URL.domain_grp = .com",
            "--roll-up",
            "Time.quarter,URL.domain",
            "--mode",
            "liberal",
        ],
        &["--mode", "weighted:0.5"],
        // Imprecise: 1999Q1 is two thirds inside the window.
        &["--where", "Time.month <= 1999/2", "--mode", "weighted:0.5"],
    ];
    for flags in flag_sets {
        let value = |f: &str| flags.iter().position(|a| *a == f).map(|i| flags[i + 1]);
        let q = QuerySpec {
            pred: value("--where").map(Into::into),
            mode: value("--mode").unwrap_or("conservative").into(),
            levels: value("--roll-up").unwrap_or("").into(),
            approach: "availability".into(),
            now,
            unsync: false,
        }
        .build(&cs.schema)
        .unwrap();
        let selected = match &q.pred {
            Some(p) => select_naive(&reduced, p, now, q.mode).unwrap(),
            None => reduced.clone(),
        };
        let want = aggregate_ids_naive(&selected, &q.levels, q.approach).unwrap();
        let table = TableOptions::default();
        assert!(want.len() <= table.max_rows, "{flags:?}: answer is cut");
        let total: i64 = want.facts().map(|f| want.measure(f, MeasureId(0))).sum();
        let expect = format!(
            "warehouse: {} facts loaded → {} facts at NOW = 2002/3/15\n\n{}\n{} rows, total Number_of = {total}\n",
            cs.mo.len(),
            reduced.len(),
            render_table(&want, table),
            want.len()
        );
        let out = specdr_bin()
            .arg("query")
            .args(data)
            .args(flags)
            .output()
            .unwrap();
        assert!(out.status.success(), "{flags:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expect, "{flags:?}");
    }
}

/// Source audit for the library and the CLI: every command answers from
/// the warehouse, so nothing under `src/` evaluates Definition 2 or the
/// query operators on a bare MO, or sizes one with `table_stats`.
#[test]
fn cli_answers_from_the_warehouse() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let banned = ["reduce(", "select_view", "aggregate_ids", "table_stats"];
    let mut hits = Vec::new();
    for p in files_under([root.join("src")]) {
        let src = std::fs::read_to_string(&p).unwrap();
        for (i, line) in src.lines().enumerate() {
            for b in banned {
                // A whole identifier: `age_reduce(` is another name.
                let called = line.match_indices(b).any(|(at, _)| {
                    !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                });
                if called {
                    hits.push(format!("{}:{}: {b}", p.display(), i + 1));
                }
            }
        }
    }
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}

/// `specdr help`'s text and the commands it names — the `<a|b|…>` list
/// of its first line, `help` included.
fn specdr_help() -> (String, Vec<String>) {
    let out = specdr_bin().arg("help").output().unwrap();
    let help = String::from_utf8(out.stdout).unwrap();
    let list = help
        .lines()
        .next()
        .and_then(|l| l.split_once('<'))
        .and_then(|(_, r)| r.split_once('>'))
        .unwrap_or_else(|| panic!("no command list in:\n{help}"))
        .0;
    let commands = list.split('|').map(str::to_string).collect();
    (help, commands)
}

/// The command table and `specdr help` agree: the help lists exactly the
/// twelve commands of the table, in its order, and its entries describe
/// exactly those. The commands the warehouse made redundant are unknown.
#[test]
fn cli_help_lists_exactly_the_commands() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("src/bin/specdr.rs")).unwrap();
    let table: Vec<&str> = src
        .split("Command { name: \"")
        .skip(1)
        .map(|r| r.split('"').next().unwrap())
        .collect();
    let (help, listed) = specdr_help();
    assert_eq!(listed.last().map(String::as_str), Some("help"));
    assert_eq!(&listed[..listed.len() - 1], &table[..]);
    assert_eq!(table.len(), 12, "{table:?}");

    let entries: std::collections::BTreeSet<&str> = help
        .lines()
        .skip(1)
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .filter(|w| !w.contains('/'))
        .collect();
    let table_set: std::collections::BTreeSet<&str> = table.iter().copied().collect();
    assert_eq!(entries, table_set, "help entries vs. command table");

    for gone in ["demo", "simulate", "profile"] {
        let out = specdr_bin().arg(gone).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{gone}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown command"), "{gone}: {err}");
    }
}

// ---------------------------------------------------------------------
// `specdr lint`
// ---------------------------------------------------------------------

fn lint_spec_file(tag: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("specdr-lint-{tag}-{}.spec", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn cli_lint_default_policy_is_clean() {
    let out = specdr_bin().arg("lint").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn cli_lint_denied_finding_is_nonzero_exit() {
    // Incomparable grains with overlapping windows: a NonCrossing (L004)
    // violation, denied by default.
    let path = lint_spec_file(
        "crossing",
        "-- seeded defect: windows overlap at incomparable grains\n\
         a[Time.quarter, URL.domain] o[Time.quarter <= 1999Q4](O);\n\
         a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O)\n",
    );
    let out = specdr_bin()
        .args([
            "lint",
            "--spec-file",
            path.to_str().unwrap(),
            "--schema",
            "paper",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "denied finding must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[L004]"), "{stdout}");
    assert!(stdout.contains('^'), "caret rendering expected: {stdout}");
    assert!(stdout.contains("counterexample"), "{stdout}");

    // --format=json: one machine-readable object on stdout.
    let out = specdr_bin()
        .args([
            "lint",
            "--spec-file",
            path.to_str().unwrap(),
            "--schema",
            "paper",
            "--format=json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"file\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"L004\""), "{stdout}");
    assert!(stdout.contains("\"errors\":1"), "{stdout}");

    // --allow L004 suppresses the finding and the run passes.
    let out = specdr_bin()
        .args([
            "lint",
            "--spec-file",
            path.to_str().unwrap(),
            "--schema",
            "paper",
            "--allow",
            "L004",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(path).ok();
}

#[test]
fn cli_lint_deny_warnings_promotes_exit_code() {
    // An unsatisfiable predicate is a warning by default…
    let path = lint_spec_file(
        "unsat",
        "a[Time.month, URL.domain] o[Time.month <= 1999/12 AND Time.month > 2000/6](O)\n",
    );
    let base = [
        "lint",
        "--spec-file",
        path.to_str().unwrap(),
        "--schema",
        "paper",
    ];
    let out = specdr_bin().args(base).output().unwrap();
    assert!(out.status.success(), "warnings alone pass");
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[L001]"));

    // …and fails the run under --deny warnings.
    let out = specdr_bin()
        .args(base)
        .args(["--deny", "warnings"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[L001]"));

    // Unknown lint codes are rejected.
    let out = specdr_bin()
        .args(base)
        .args(["--deny", "L999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("L999"));
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------------------------
// `specdr age` (ISSUE 7: continuous aging)
// ---------------------------------------------------------------------

#[test]
fn cli_age_flag_order_is_irrelevant() {
    // The same run with --until first and last: both succeed and print
    // byte-identical output (the generator is seeded).
    let first = specdr_bin()
        .args([
            "age", "--until", "2003/3/1", "--months", "24", "--clicks", "5",
        ])
        .output()
        .unwrap();
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let last = specdr_bin()
        .args([
            "age", "--months", "24", "--clicks", "5", "--until", "2003/3/1",
        ])
        .output()
        .unwrap();
    assert!(last.status.success());
    assert_eq!(first.stdout, last.stdout);
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("synchronized to 2000/12/28"), "{stdout}");
    assert!(stdout.contains("aged to 2003/3/1:"), "{stdout}");
    assert!(stdout.contains("ticks="), "{stdout}");
    assert!(stdout.contains("cubes_skipped="), "{stdout}");
}

#[test]
fn cli_age_requires_until() {
    let out = specdr_bin().arg("age").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--until"), "{err}");
}

#[test]
fn cli_age_rejects_stale_until_with_typed_error() {
    // Aging backwards is a typed, actionable error — exact message pinned.
    let out = specdr_bin()
        .args([
            "age", "--until", "2000/1/1", "--months", "24", "--clicks", "5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(
            "specdr: cannot age to 2000/1/1: the warehouse is already \
             synchronized to 2000/12/28 (aging is monotone; reduction \
             cannot be undone)"
        ),
        "{err}"
    );
}

/// `age --follow` byte for byte: the warehouse is a one-shard router,
/// whose folded `AgeStats` are its shard's own.
#[test]
fn cli_age_follow_ticks_through_the_schedule() {
    let out = specdr_bin()
        .args([
            "age", "--until", "2003/3/1", "--follow", "--tick", "3", "--months", "24", "--clicks",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "warehouse: 1120 facts across 3 cubes, synchronized to 2000/12/28\n\
         aged to 2003/3/1: ticks=27 cells_delta=1053 merged=913 cubes_rebuilt=22 \
         cubes_skipped=59; 207 facts remain\n\
         tick 1: aged to 2003/4/1: ticks=1 cells_delta=67 merged=63 cubes_rebuilt=2 \
         cubes_skipped=1; 144 facts remain\n\
         tick 2: aged to 2003/5/1: ticks=1 cells_delta=0 merged=0 cubes_rebuilt=0 \
         cubes_skipped=3; 144 facts remain\n\
         tick 3: aged to 2003/6/1: ticks=1 cells_delta=0 merged=0 cubes_rebuilt=0 \
         cubes_skipped=3; 144 facts remain\n"
    );
}

#[test]
fn cli_explain_age_renders_and_rejects_mixed_modes() {
    let out = specdr_bin()
        .args([
            "explain", "--age", "--until", "2001/6/1", "--months", "24", "--clicks", "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aging pass"), "{stdout}");
    assert!(stdout.contains("ticks="), "{stdout}");
    // --age is exclusive with the other explain modes.
    let out = specdr_bin()
        .args(["explain", "--age", "--query"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("pass at most one of --query, --reduce, --age"),
        "{err}"
    );
}

// --- atomic-ordering audit (source scan) ---

/// Every atomic on the publish/epoch/serve paths must say *why* its
/// `Ordering` is what it is, and `Relaxed` is denied there unless the
/// site is explicitly allowlisted with a `relaxed-ok:` comment stating
/// the invariant that makes relaxation safe.
#[test]
fn atomic_orderings_carry_invariant_comments() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // The audited protocol surfaces. `crates/sync` itself is exempt: it
    // is the shim that *implements* the orderings.
    let mut files = vec![
        root.join("src/serve.rs"),
        root.join("src/driver.rs"),
        root.join("src/bin/specdr.rs"),
    ];
    for entry in std::fs::read_dir(root.join("crates/subcube/src")).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }

    let mut violations = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        let name = file.strip_prefix(root).unwrap().display().to_string();

        // The epoch-publish and serve paths must use the sdr-sync shim,
        // whose model backend is how `specdr check` sees their steps;
        // bare std atomics would be invisible to the checker.
        let audited_protocol_path = name.starts_with("crates/subcube") || name == "src/serve.rs";
        if audited_protocol_path && src.contains("std::sync::atomic") {
            violations.push(format!(
                "{name}: uses std::sync::atomic directly; route it through sdr_sync::atomic"
            ));
        }

        for (i, line) in lines.iter().enumerate() {
            if !line.contains("Ordering::") || line.trim_start().starts_with("//") {
                continue;
            }
            let nearby_comment = |needle: &str| {
                line.contains(needle)
                    || lines[i.saturating_sub(3)..i]
                        .iter()
                        .any(|l| l.trim_start().starts_with("//") && l.contains(needle))
            };
            if !nearby_comment("//") {
                violations.push(format!(
                    "{name}:{}: `Ordering::` use without an invariant comment",
                    i + 1
                ));
            }
            if line.contains("Ordering::Relaxed") && !nearby_comment("relaxed-ok") {
                violations.push(format!(
                    "{name}:{}: bare `Ordering::Relaxed` outside the `relaxed-ok:` allowlist",
                    i + 1
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "atomic-ordering audit failed:\n  {}",
        violations.join("\n  ")
    );
}

/// The mutation path has one dispatch site: the shard core's `apply` (in
/// `crates/subcube/src/op.rs`) is the only place a `WarehouseOp` variant
/// reaches a core mutator. The durable, sharded and driver layers
/// must go through `apply`, so live, batch, replay and scatter cannot
/// drift apart; and the old log-record enum must not come back. Nor may
/// the second reduction path: the full pass, its result types and the
/// per-call step-day scheduler went when `sync` became `age`, and the
/// subcube layer asks the specification's `ReductionSchedule`, never the
/// DNF.
#[test]
fn mutation_layers_only_apply_ops() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mutators = [
        ".bulk_load(",
        ".sync(",
        ".age(",
        ".evolve_insert(",
        ".evolve_delete(",
    ];
    let mut violations = Vec::new();
    for name in [
        "crates/subcube/src/durable.rs",
        "crates/subcube/src/shard.rs",
        "src/driver.rs",
    ] {
        let src = std::fs::read_to_string(root.join(name)).unwrap();
        let code = src.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (i, line) in code.enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for m in mutators {
                if line.contains(m) {
                    violations.push(format!("{name}:{}: calls `{m}` directly", i + 1));
                }
            }
        }
    }
    let retired = [
        concat!("Wal", "Op"),
        concat!("sync", "_pass"),
        concat!("Full", "Pass"),
        concat!("publish", "_pass"),
        concat!("as", "_age"),
        concat!("Sync", "Stats"),
        concat!("OpOutcome::", "Synced"),
        concat!("explain", "_sync"),
        concat!("next_step", "_day"),
    ];
    let schedulers = [concat!("step_days", "("), concat!("ground_conj", "(")];
    let subcube_src = root.join("crates/subcube/src");
    for p in rust_files(["crates", "src", "tests"].map(|d| root.join(d))) {
        let src = std::fs::read_to_string(&p).unwrap();
        let own = schedulers.iter().filter(|_| p.starts_with(&subcube_src));
        for name in retired.iter().chain(own).filter(|n| src.contains(**n)) {
            violations.push(format!("{}: mentions `{name}`", p.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "mutation-path audit failed:\n  {}",
        violations.join("\n  ")
    );
}

/// Source audit for the request path: each of its steps is written
/// once. The mode grammar's `weighted:` literal lives in one file (the
/// `FromStr`/`Display` pair in `sdr-query`); the subcube layer compiles
/// a query's scan in exactly one place and calls `aggregate_ids` in
/// exactly one — the one merge; and the second copies this path used to
/// carry (a merge per level, a mix per driver, a query builder per
/// front end) are not defined again.
#[test]
fn request_path_has_one_of_each() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let subcube_src = root.join("crates/subcube/src");
    let weighted = concat!("\"", "weighted:");
    // Definitions that must not come back: anywhere, and — names other
    // layers use for other things — in the request path's own files.
    let anywhere = [
        concat!("fn ", "query_mix"),
        concat!("fn ", "cube_query_from_opts"),
    ];
    let in_path = [concat!("fn ", "combine"), concat!("fn ", "gather")];
    let (mut weighted_files, mut aggregations, mut compiles, mut violations) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Library and binary sources only: `crates/*/src` and `src/`.
    for p in rust_files(crate_sources(root).chain([root.join("src")])) {
        let src = std::fs::read_to_string(&p).unwrap();
        if src.contains(weighted) {
            weighted_files.push(p.display().to_string());
        }
        let code = src.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (i, line) in code.enumerate() {
            let line = line.trim_start();
            if line.starts_with("//") {
                continue;
            }
            if p.starts_with(&subcube_src) && line.contains("aggregate_ids(") {
                aggregations.push(format!("{}:{}", p.display(), i + 1));
            }
            if p.starts_with(&subcube_src) && line.contains("Scan::compile(") {
                compiles.push(format!("{}:{}", p.display(), i + 1));
            }
            let own = p.starts_with(&subcube_src) || p.starts_with(root.join("src"));
            for def in anywhere.iter().chain(in_path.iter().filter(|_| own)) {
                let defined = line.split(def).nth(1).is_some_and(|rest| {
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                });
                if defined {
                    violations.push(format!("{}:{}: defines `{def}`", p.display(), i + 1));
                }
            }
        }
    }
    assert_eq!(weighted_files.len(), 1, "{weighted_files:?}");
    assert_eq!(aggregations.len(), 1, "{aggregations:?}");
    assert_eq!(compiles.len(), 1, "{compiles:?}");
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Source audit for the read path: a query scans a cube's chunks, never
/// a contiguous copy of the cube. The warehouse keeps no concatenated
/// view (`CubeData` has no `whole` field), and the query and shard
/// modules neither concatenate a cube (`Subcube::snapshot()`,
/// `Subcube::data()`) nor copy the rows they keep (`gather(`). The one
/// exemption is the write path's `fn partition`, which splits a load
/// into one batch per shard.
#[test]
fn read_path_is_chunk_native() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/subcube/src");
    // Every non-comment line of a file, numbered from 1.
    let code = |file: &str| -> Vec<(usize, String)> {
        let text = std::fs::read_to_string(src.join(file)).unwrap();
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//"))
            .map(|(i, l)| (i + 1, l.trim_start().to_string()))
            .collect()
    };
    let mut violations = Vec::new();
    for (n, line) in code("manager.rs") {
        let field = ["pub(crate) ", "pub "]
            .iter()
            .fold(line.as_str(), |l, vis| l.strip_prefix(vis).unwrap_or(l));
        if field.starts_with("whole:") {
            violations.push(format!("manager.rs:{n}: a `whole` field"));
        }
    }
    for file in ["query.rs", "shard.rs"] {
        let mut in_partition = false;
        for (n, line) in code(file) {
            if line.contains("fn ") {
                in_partition = line.contains("fn partition(");
            }
            for pat in [".snapshot()", ".data()", "gather("] {
                if line.contains(pat) && !(in_partition && pat == "gather(") {
                    violations.push(format!("{file}:{n}: `{pat}` in `{line}`"));
                }
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Source audit for Definition 2: the reduction has one implementation,
/// a sequential fold over the warehouse's `CellMemo` (the interpreted
/// reference is the same fold over `cell_for`). The chunk-parallel kernel
/// and its worker knobs are named nowhere, `sdr-reduce` spawns no thread,
/// and the `Cell` decision is written once.
#[test]
fn definition_2_has_one_implementation() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let retired = [
        concat!("reduce_with", "_workers"),
        concat!("fn ", "reduce_kernel"),
        concat!("fn ", "scan_chunk"),
        concat!("Local", "Group"),
        concat!("CHUNK", "_TARGET"),
        concat!("MAX", "_WORKERS"),
    ];
    let reduce_src = root.join("crates/reduce/src");
    let mut violations = Vec::new();
    for p in
        rust_files(crate_sources(root).chain(["src", "tests", "examples"].map(|d| root.join(d))))
    {
        let src = std::fs::read_to_string(&p).unwrap();
        // A whole identifier: `fn reduce_kernel_matches_naive` is a test.
        let mentions = |name: &str| {
            src.match_indices(name).any(|(i, _)| {
                !src[i + name.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        };
        for name in retired.iter().filter(|n| mentions(n)) {
            violations.push(format!("{}: mentions `{name}`", p.display()));
        }
        if p.starts_with(&reduce_src) && src.contains(concat!("thread", "::")) {
            violations.push(format!("{}: spawns threads", p.display()));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    let semantics = std::fs::read_to_string(reduce_src.join("semantics.rs")).unwrap();
    let decisions = semantics
        .matches(concat!("IncomparableGranularities", " {"))
        .count();
    assert_eq!(
        decisions, 1,
        "the Cell decision is written {decisions} times"
    );
}

/// Source audit for the soundness gate: NonCrossing and Growing are
/// decided once, by `sdr-reduce`'s `crossings`/`escapes` over the
/// per-action analysis. The per-call checks that re-grounded every pair
/// at every step day are defined nowhere, and step days are enumerated
/// at exactly one production site, `ActionAnalysis::build`.
#[test]
fn soundness_is_decided_once() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let retired = [
        concat!("fn ", "check_noncrossing"),
        concat!("fn ", "check_growing"),
        concat!("fn ", "noncrossing_pair"),
    ];
    let (mut violations, mut step_day_calls) = (Vec::new(), Vec::new());
    for p in rust_files(["crates", "src", "tests"].map(|d| root.join(d))) {
        let src = std::fs::read_to_string(&p).unwrap();
        for name in retired.iter().filter(|n| src.contains(**n)) {
            violations.push(format!("{}: defines `{name}`", p.display()));
        }
        let in_crate_src = p.strip_prefix(root.join("crates")).is_ok_and(|rel| {
            rel.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if !in_crate_src {
            continue;
        }
        let code = src.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (i, line) in code.enumerate() {
            let line = line.trim_start();
            let call = line.contains(concat!("step_days", "("))
                && !line.contains(concat!("fn ", "step_days"));
            if call && !line.starts_with("//") {
                step_day_calls.push(format!("{}:{}", p.display(), i + 1));
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert_eq!(step_day_calls.len(), 1, "{step_day_calls:?}");
    assert!(
        step_day_calls[0].contains("crates/reduce/src/schedule.rs"),
        "{step_day_calls:?}"
    );
}

/// Every back-ticked `*.rs` name in the three documents (fenced blocks
/// aside) names a file in the tree: a path (`tests/aging.rs`, optionally
/// `::test_name`) is a file at that path or path suffix, a bare name
/// (`manager.rs`) some file of that name. A back-ticked `specdr <word>`
/// names a command `specdr help` lists.
#[test]
fn documents_name_only_files_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let p = entry.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy();
            if p.is_dir() {
                if !name.starts_with('.') && name != "target" {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                let rel = p.strip_prefix(root).unwrap();
                files.push(format!("/{}", rel.display()));
            }
        }
    }
    let (_, commands) = specdr_help();
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "EXPERIMENTS.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        let mut fenced = false;
        let prose: Vec<&str> = text
            .lines()
            .filter(|l| {
                fenced ^= l.trim_start().starts_with("```");
                !fenced && !l.trim_start().starts_with("```")
            })
            .collect();
        let prose = prose.join("\n");
        for ticked in prose.split('`').skip(1).step_by(2) {
            let mut words = ticked.split_whitespace();
            if words.next() == Some("specdr") {
                // `specdr checkpoint/recover` names two commands.
                let named = words.next().filter(|w| !w.starts_with('-'));
                for cmd in named.into_iter().flat_map(|w| w.split('/')) {
                    if !commands.iter().any(|c| c == cmd) {
                        missing.push(format!("{doc}: `{ticked}` (no command `{cmd}`)"));
                    }
                }
            }
            for word in ticked.split_whitespace() {
                let path = word.split("::").next().unwrap();
                let suffix = format!("/{path}");
                if path.ends_with(".rs") && !files.iter().any(|f| f.ends_with(&suffix)) {
                    missing.push(format!("{doc}: `{ticked}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "dangling names:\n{}",
        missing.join("\n")
    );
}

/// Source audit for the warehouse directory: `ShardRouter` is the one
/// way in, for every shard count. The single-directory entry points, the
/// manager's own save/load/recover, the caller-side layout probe and the
/// second recovery report are named nowhere in the library and binary
/// sources, the examples, or the three documents that describe them.
#[test]
fn warehouse_directory_has_one_way_in() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let retired = [
        "DurableWarehouse::",
        "save_to_dir",
        "load_from_dir",
        concat!("Subcube", "Manager::recover"),
        "is_sharded",
        "ShardRecoveryReport",
    ];
    let mut files: Vec<_> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    files.extend(files_under(
        crate_sources(root).chain([root.join("src"), root.join("examples")]),
    ));
    let mut violations = Vec::new();
    for p in &files {
        let src = std::fs::read_to_string(p).unwrap();
        for name in retired.iter().filter(|n| src.contains(**n)) {
            violations.push(format!("{}: mentions `{name}`", p.display()));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// One warehouse type: every caller builds, changes and reads a
/// warehouse through `ShardRouter` (`ShardRouter::in_memory` when it
/// needs no directory). The per-shard core is named nowhere outside its
/// own crate, the model checker and the benchmark — not in the library
/// and binary sources, the examples, the bench crate, the root tests or
/// README.md. (This gate spells the name in two halves, so it does not
/// name it either.)
#[test]
fn the_per_shard_core_is_named_only_inside_its_crate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let core = concat!("Subcube", "Manager");
    let mut files = rust_files(["src", "examples", "crates/bench", "tests"].map(|d| root.join(d)));
    files.push(root.join("README.md"));
    let violations: Vec<String> = files
        .iter()
        .filter(|p| std::fs::read_to_string(p).unwrap().contains(core))
        .map(|p| format!("{}: names `{core}`", p.display()))
        .collect();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

// --- `specdr check` CLI ---

#[test]
fn cli_check_help_is_accepted_everywhere() {
    // `--help` short-circuits strict flag validation for every
    // subcommand and exits 0 — including `check`, whatever other flags
    // surround it.
    for args in [
        vec!["check", "--help"],
        vec!["check", "-h"],
        vec!["check", "--protocol", "serve", "--help"],
        vec!["lint", "--help"],
        vec!["serve", "--help"],
    ] {
        let out = specdr_bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{args:?} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: specdr"), "{args:?}: {stdout}");
        assert!(stdout.contains("check [--protocol"), "{args:?}: {stdout}");
    }
}

#[test]
fn cli_check_rejects_unknown_flags_and_values() {
    let out = specdr_bin()
        .args(["check", "--frobnicate"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag `--frobnicate` for `specdr check`"),
        "{err}"
    );
    assert!(err.contains("specdr help"), "{err}");

    let out = specdr_bin()
        .args(["check", "--protocol", "tcp"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown protocol `tcp`") && err.contains("group-commit"),
        "{err}"
    );

    let out = specdr_bin()
        .args(["check", "--mutate", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown mutation `nonsense`") && err.contains("gate-toctou"),
        "{err}"
    );

    // A value flag with a missing value is an error, not a hang.
    let out = specdr_bin().args(["check", "--budget"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("flag `--budget` expects a value"));
}

#[test]
fn cli_check_flag_order_is_irrelevant() {
    let a = specdr_bin()
        .args(["check", "--protocol", "serve", "--budget", "5000"])
        .output()
        .unwrap();
    let b = specdr_bin()
        .args(["check", "--budget", "5000", "--protocol", "serve"])
        .output()
        .unwrap();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    // Exploration is deterministic; only wall-clock differs. Strip the
    // trailing `in <time>` and the transcripts must be identical.
    let strip = |out: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| l.split(" in ").next().unwrap().to_string())
            .collect()
    };
    assert_eq!(strip(&a.stdout), strip(&b.stdout));
}

#[test]
fn cli_check_proves_serve_protocol() {
    let out = specdr_bin()
        .args(["check", "--protocol", "serve"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check serve:"), "{stdout}");
    assert!(stdout.contains("schedules explored"), "{stdout}");
    assert!(stdout.contains("(exhaustive)"), "{stdout}");
}

#[test]
fn cli_check_catches_seeded_mutation_with_minimal_schedule() {
    let out = specdr_bin()
        .args(["check", "--mutate", "gate-toctou"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a seeded bug must fail the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[C001]"), "{stdout}");
    assert!(stdout.contains("gate admitted past its cap"), "{stdout}");
    assert!(stdout.contains("minimal schedule:"), "{stdout}");
    assert!(stdout.contains("--> <schedule>:"), "{stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 protocol counterexample found"), "{err}");
}
