//! Integration tests for the `sdr-obs` wiring: the metrics published by
//! reduce, sync, and query must agree exactly with the authoritative
//! numbers those operations return.
//!
//! Everything runs in ONE test function: the instrumented crates publish
//! to the process-global registry, so sequential phases with a `reset()`
//! between them are the only race-free way to assert exact counts.

use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::obs;
use specdr::query::{AggApproach, SelectMode};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::spec::parse_action;
use specdr::subcube::{CubeQuery, ShardRouter};
use specdr::workload::{generate, retention_policy, ClickstreamConfig};

fn warehouse() -> (specdr::mdm::Mo, Arc<specdr::mdm::Schema>, DataReductionSpec) {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 40,
        start: (1999, 1, 1),
        end: (2000, 6, 28),
        ..Default::default()
    });
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    (cs.mo, cs.schema, spec)
}

#[test]
fn metrics_agree_with_authoritative_numbers() {
    let (mo, schema, spec) = warehouse();
    let now = days_from_civil(2001, 6, 28);
    obs::set_enabled(true);

    // --- Phase 1: reduce. collapsed + kept must equal the input count.
    obs::reset();
    let red = reduce(&mo, &spec, now).unwrap();
    let snap = obs::snapshot();
    let collapsed = snap.counter("reduce.facts_collapsed").unwrap();
    let kept = snap.counter("reduce.facts_kept").unwrap();
    assert_eq!(
        collapsed + kept,
        mo.len() as u64,
        "every scanned fact is either collapsed away or kept"
    );
    assert_eq!(kept, red.len() as u64, "kept = rows of the reduced MO");
    assert_eq!(
        snap.counter("reduce.facts_scanned").unwrap(),
        mo.len() as u64
    );
    // The group-size histogram covers every input fact exactly once.
    let members = snap.histogram("reduce.group_members").unwrap();
    assert_eq!(members.count, red.len() as u64);
    assert_eq!(members.sum, mo.len() as u64);
    assert!(members.p50 <= members.p90 && members.p90 <= members.p99);
    // The reduce span recorded exactly one timing.
    assert_eq!(snap.span("reduce.reduce").unwrap().count, 1);

    // --- Phase 2: subcube sync. Counters must equal the returned stats;
    // a reduction emits one name family whichever entry point ran, and
    // the `subcube.sync` span says which one did.
    obs::reset();
    let mgr = ShardRouter::in_memory(spec).unwrap();
    // The one shard's published view.
    let shard = || mgr.view_set().views()[0].clone();
    mgr.bulk_load(&mo).unwrap();
    let stats = mgr.sync(now).unwrap();
    let snap = obs::snapshot();
    assert_eq!(
        snap.counter("subcube.bulk_load.facts").unwrap(),
        mo.len() as u64
    );
    // Never synchronized: one homing-only step over every loaded row.
    assert_eq!((stats.ticks, stats.rows_homed), (0, mo.len()));
    assert_eq!(stats.merged, mo.len() - mgr.len());
    for (name, want) in [
        ("age.ticks", stats.ticks),
        ("age.cells_delta", stats.cells_delta),
        ("age.cubes_skipped", stats.cubes_skipped),
        ("age.rows_homed", stats.rows_homed),
        ("subcube.chunks.rewritten", stats.chunks_rewritten),
        ("subcube.chunks.carried", stats.chunks_carried),
    ] {
        assert_eq!(snap.counter(name), Some(want as u64), "{name}");
    }
    for name in [
        "subcube.sync",
        "subcube.age",
        "subcube.age.tick",
        "subcube.age.scan",
        "subcube.age.rebuild",
    ] {
        assert_eq!(snap.span(name).unwrap().count, 1, "{name}");
    }
    let tick = snap
        .traces
        .iter()
        .find(|t| t.name == "subcube.age.tick")
        .unwrap();
    // The step's two phases split its time, as children of the tick.
    for phase in ["subcube.age.scan", "subcube.age.rebuild"] {
        let t = snap.traces.iter().find(|t| t.name == phase).unwrap();
        assert_eq!(t.parent, tick.id, "{phase} floats outside its tick");
        assert_eq!(t.path, format!("{}/{phase}", tick.path));
    }
    for (key, want) in [("ticks", 0), ("rows_in", mo.len())] {
        let found = tick.attrs.iter().find(|(k, _)| k == key);
        assert_eq!(found.unwrap().1, want.to_string(), "tick attr {key}");
    }
    assert!(
        !snap
            .counters
            .iter()
            .any(|(n, _)| n.starts_with("subcube.sync.")),
        "the second metric family is gone: {:?}",
        snap.counters
    );

    // --- Phase 3: a sync with nothing to do takes no step and publishes
    // nothing.
    obs::reset();
    let epoch = shard().epoch();
    assert_eq!(mgr.sync(now).unwrap(), specdr::subcube::AgeStats::default());
    let snap = obs::snapshot();
    assert_eq!(shard().epoch(), epoch);
    assert_eq!(snap.span("subcube.sync").unwrap().count, 1);
    assert_eq!(snap.span("subcube.age.tick").map_or(0, |s| s.count), 0);

    // --- Phase 3b: load + age. The aging counters and the per-tick span
    // attributes must equal the returned `AgeStats`, chunk accounting
    // included. The load re-delivers old clicks, so homing them rewrites
    // chunks of the coarse cubes; the target day crosses a month start.
    obs::reset();
    let chunks_before: usize = shard().cubes().iter().map(|c| c.chunks().len()).sum();
    let late: Vec<u32> = (0..50).collect();
    mgr.bulk_load(&mo.gather(&late)).unwrap();
    let aged = mgr.age(now + 40).unwrap();
    let snap = obs::snapshot();
    assert!(aged.ticks >= 1 && aged.chunks_rewritten > 0, "{aged:?}");
    assert_eq!(aged.rows_homed, late.len());
    for (name, want) in [
        ("age.ticks", aged.ticks),
        ("age.cells_delta", aged.cells_delta),
        ("age.cubes_skipped", aged.cubes_skipped),
        ("age.rows_homed", aged.rows_homed),
        ("subcube.chunks.rewritten", aged.chunks_rewritten),
        ("subcube.chunks.carried", aged.chunks_carried),
    ] {
        assert_eq!(snap.counter(name), Some(want as u64), "{name}");
    }
    let attr_sum = |span: &str, key: &str| -> u64 {
        snap.traces
            .iter()
            .filter(|t| t.name == span)
            .flat_map(|t| t.attrs.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.parse::<u64>().unwrap())
            .sum()
    };
    assert_eq!(
        snap.span("subcube.age.tick").unwrap().count,
        aged.ticks as u64
    );
    for (key, want) in [
        ("rows_homed", aged.rows_homed),
        ("cells_delta", aged.cells_delta),
        ("chunks_rewritten", aged.chunks_rewritten),
        ("chunks_carried", aged.chunks_carried),
    ] {
        assert_eq!(
            attr_sum("subcube.age.tick", key),
            want as u64,
            "tick attr {key}"
        );
    }
    // The load appended one chunk and carried every other by pointer.
    assert_eq!(attr_sum("subcube.bulk_load", "chunks_rewritten"), 1);
    assert_eq!(
        attr_sum("subcube.bulk_load", "chunks_carried"),
        chunks_before as u64
    );

    // --- Phase 4: parallel query. The fan-out covers the cubes the
    // planner scans — a skipped cube gets no thread; one sub-query span
    // per cube (planner-skipped ones included — they record a `skipped`
    // attr) plus the one final merge aggregation.
    obs::reset();
    let (tdim, month) = schema.resolve_cat("Time.month").unwrap();
    let mut levels = schema.bottom_granularity().0;
    levels[tdim.index()] = month;
    let q = CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels,
        approach: AggApproach::Availability,
    };
    let answer = mgr.view_set().query(&q, now, true).unwrap();
    assert!(!answer.is_empty());
    let snap = obs::snapshot();
    let n_cubes = shard().cubes().len() as u64;
    assert_eq!(snap.span("subcube.query.subquery").unwrap().count, n_cubes);
    assert_eq!(snap.span("subcube.query").unwrap().count, 1);
    // The planner accounts for every cube: scanned + skipped = cubes.
    // With no predicate, only empty cubes can be skipped; the fan-out is
    // the cubes scanned.
    let scanned = snap.counter("plan.cubes_scanned").unwrap();
    let skipped = snap.counter("plan.cubes_skipped").unwrap();
    assert_eq!(scanned + skipped, n_cubes);
    assert_eq!(snap.counter("plan.skip.empty").unwrap_or(0), skipped);
    assert_eq!(snap.counter("subcube.query.fanout"), Some(scanned));
    // aggregate runs once per scanned sub-query + once combining (the
    // debug build's re-evaluation of skipped cubes is span-free).
    assert_eq!(snap.span("query.aggregate").unwrap().count, scanned + 1);
    assert!(snap.counter("query.aggregate.cells_produced").unwrap() >= answer.len() as u64);

    // --- Phase 4a: the re-delivered clicks sit un-homed in the bottom
    // cube, so a parallel query scans two cubes and skips the empty
    // third: the fan-out is the cubes scanned, not the cubes of the
    // view, and the skipped one still gets its sub-query span.
    mgr.bulk_load(&mo.gather(&late)).unwrap();
    obs::reset();
    mgr.view_set().query(&q, now, true).unwrap();
    let snap = obs::snapshot();
    assert_eq!(snap.counter("plan.cubes_skipped"), Some(1));
    assert_eq!(snap.counter("subcube.query.fanout"), Some(n_cubes - 1));
    assert_eq!(snap.span("subcube.query.subquery").unwrap().count, n_cubes);

    // --- Phase 4b: un-synchronized reads. Three evaluations of one
    // pinned view at one day are one virtual aging (a miss) and two memo
    // hits; the miss reports exactly what the real `age` to that day then
    // does; and nothing on the write path's books moves.
    obs::reset();
    let unsync_now = now + 85;
    let view = shard();
    let epoch = view.epoch();
    let first = view.query_unsync(&q, unsync_now, false).unwrap();
    let again = view.query_unsync(&q, unsync_now, true).unwrap();
    let third = mgr.view_set().query_unsync(&q, unsync_now, false).unwrap();
    assert!(!first.is_empty());
    assert_eq!((again.len(), third.len()), (first.len(), first.len()));
    let snap = obs::snapshot();
    assert_eq!(shard().epoch(), epoch, "a read published");
    assert_eq!(snap.counter("subcube.unsync.memo_misses"), Some(1));
    assert_eq!(snap.counter("subcube.unsync.memo_hits"), Some(2));
    assert_eq!(snap.span("subcube.query.virtual_age").unwrap().count, 3);
    assert_eq!(snap.span("subcube.query").unwrap().count, 3);
    for name in [
        "age.ticks",
        "age.cells_delta",
        "age.cubes_skipped",
        "age.rows_homed",
        "subcube.chunks.rewritten",
        "subcube.chunks.carried",
        "subcube.publish.count",
    ] {
        assert_eq!(snap.counter(name).unwrap_or(0), 0, "{name}");
    }
    for name in [
        "subcube.age",
        "subcube.age.tick",
        "subcube.age.scan",
        "subcube.age.rebuild",
        "subcube.sync",
    ] {
        assert_eq!(snap.span(name).map_or(0, |s| s.count), 0, "{name}");
    }
    let virtual_ages: Vec<_> = snap
        .traces
        .iter()
        .filter(|t| t.name == "subcube.query.virtual_age")
        .collect();
    let attr = |t: &specdr::obs::TraceSpan, key: &str| -> String {
        let found = t.attrs.iter().find(|(k, _)| k == key);
        found
            .unwrap_or_else(|| panic!("attr {key} missing on {t:?}"))
            .1
            .clone()
    };
    let memos: Vec<String> = virtual_ages.iter().map(|t| attr(t, "memo")).collect();
    assert_eq!(memos, ["miss", "hit", "hit"]);
    let real = mgr.age(unsync_now).unwrap();
    assert!(real.ticks >= 1 && real.rows_homed == late.len(), "{real:?}");
    for (key, want) in [
        ("ticks", real.ticks),
        ("rows_homed", real.rows_homed),
        ("cells_delta", real.cells_delta),
        ("chunks_rewritten", real.chunks_rewritten),
        ("chunks_carried", real.chunks_carried),
    ] {
        assert_eq!(attr(virtual_ages[0], key), want.to_string(), "miss {key}");
        assert_eq!(attr(virtual_ages[1], key), "0", "hit {key}");
    }
    // What the read computed is what the write then published.
    let published = mgr.view_set().query(&q, unsync_now, false).unwrap();
    let rows = |mo: &specdr::mdm::Mo| {
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    };
    assert_eq!(rows(&first), rows(&published));

    // --- Phase 4c: storage. Every column sealed counts once under the
    // layout it was sealed in — sized only (`table_stats`) or built
    // (`encode_facts`; four copies of the MO cross a segment boundary).
    obs::reset();
    specdr::storage::table_stats(mo.schema(), [&mo]);
    specdr::storage::encode_facts(&schema, [&mo, &mo, &mo, &mo]);
    let snap = obs::snapshot();
    let segments = snap.span("storage.encode").unwrap().count;
    assert_eq!(segments, 1 + (4 * mo.len()).div_ceil(65_536) as u64);
    assert_eq!(
        snap.counter("storage.rows_sealed"),
        Some(5 * mo.len() as u64)
    );
    let columns: u64 = ["bitpacked", "delta", "dict", "plain", "rle"]
        .iter()
        .map(|l| snap.counter(&format!("storage.columns.{l}")).unwrap())
        .sum();
    let per_segment = 2 * schema.n_dims() + schema.n_measures() + 1;
    assert_eq!(columns, segments * per_segment as u64);

    // --- Phase 5: lint. One timed pass per rule, per-code finding
    // counters, and one analysis span per action.
    obs::reset();
    let crossing = "a[Time.quarter, URL.domain] o[Time.quarter <= 1999Q4](O);\n\
                    a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O)";
    let diags = specdr::lint::lint_source(&schema, crossing, &specdr::lint::LintConfig::default());
    assert_eq!(diags.len(), 1, "the pair crosses: {diags:#?}");
    let snap = obs::snapshot();
    assert_eq!(
        snap.counter("lint.rules_run"),
        Some(7),
        "every rule runs exactly once per lint pass"
    );
    assert_eq!(snap.counter("lint.findings.L004"), Some(1));
    assert_eq!(
        snap.counter("lint.findings.L001"),
        None,
        "no spurious findings"
    );
    assert_eq!(snap.span("lint.analyze_action").unwrap().count, 2);
    for code in specdr::lint::ALL_RULES {
        assert_eq!(
            snap.span(&format!("lint.rule.{code}")).unwrap().count,
            1,
            "rule {code} records one duration per pass"
        );
    }

    // --- Phase 6: disabled registry records nothing. (Registrations
    // survive a reset, so "nothing" means every value stayed zero.)
    obs::set_enabled(false);
    obs::reset();
    let _ = reduce(&mo, &mgr.spec(), now).unwrap();
    let snap = obs::snapshot();
    assert!(
        snap.counters.iter().all(|(_, v)| *v == 0),
        "{:?}",
        snap.counters
    );
    assert!(snap.spans.iter().all(|(_, s)| s.count == 0));
    assert!(snap.histograms.iter().all(|(_, s)| s.count == 0));
    assert!(snap.events.is_empty());

    // --- Phase 7: cross-thread span handoff. A parallel query hands its
    // span context to the fan-out workers, so it must produce the same
    // span tree (modulo interleaving) as the sequential evaluation: every
    // sub-query parents under its `subcube.query`, even when it closed on
    // a worker thread, and every span closes.
    // Aged, the warehouse holds one non-empty cube; re-delivered clicks
    // wait un-homed in the bottom one, so the fan-out scans two.
    mgr.bulk_load(&mo.gather(&late)).unwrap();
    obs::set_enabled(true);
    let run = |parallel: bool| {
        obs::reset();
        mgr.view_set().query(&q, unsync_now, parallel).unwrap();
        let snap = obs::snapshot();
        assert_eq!(
            obs::open_spans(),
            0,
            "leaked open spans (parallel={parallel})"
        );
        snap
    };
    let seq = run(false);
    let par = run(true);
    // Same tree shape: identical distinct span-path sets.
    let path_set = |snap: &specdr::obs::Snapshot| -> std::collections::BTreeSet<String> {
        snap.traces.iter().map(|t| t.path.clone()).collect()
    };
    assert_eq!(path_set(&seq), path_set(&par), "span trees diverge");
    // Checks every sub-query's parentage; returns the threads they
    // closed on.
    let subquery_tids = |snap: &specdr::obs::Snapshot| -> std::collections::BTreeSet<u64> {
        let root = snap
            .traces
            .iter()
            .find(|t| t.name == "subcube.query")
            .expect("subcube.query span");
        let subs: Vec<_> = snap
            .traces
            .iter()
            .filter(|t| t.name == "subcube.query.subquery")
            .collect();
        assert_eq!(subs.len() as u64, n_cubes);
        for s in &subs {
            assert_eq!(s.parent, root.id, "sub-query floats as a root: {s:?}");
            assert_eq!(s.path, format!("{}/subcube.query.subquery", root.path));
        }
        subs.iter().map(|s| s.tid).collect()
    };
    assert_eq!(
        subquery_tids(&seq).len(),
        1,
        "a sequential query stays on one thread"
    );
    // The parallel query really crossed threads.
    assert!(
        subquery_tids(&par).len() >= 2,
        "sub-query spans all closed on one thread"
    );

    // --- Phase 8: the write scatter hands its span context over too. A
    // load, an age step and a checkpoint of two shards run each shard's
    // part on a worker of its own, and every shard's work nests under the
    // router's `shard.*` span exactly as one shard's does.
    let (mo, _, spec) = warehouse();
    let write = |shards: usize| {
        let fs = specdr::storage::fs::MemFs::shared();
        let dir = std::path::Path::new("/w");
        let router = ShardRouter::create_with_fs(spec.clone(), dir, shards, fs).unwrap();
        obs::reset();
        router.bulk_load(&mo).unwrap();
        router.age(now).unwrap();
        router.checkpoint().unwrap();
        assert_eq!(obs::open_spans(), 0, "leaked open spans ({shards} shards)");
        obs::snapshot()
    };
    let (one, two) = (write(1), write(2));
    let by_id: std::collections::BTreeMap<u64, &specdr::obs::TraceSpan> =
        two.traces.iter().map(|t| (t.id, t)).collect();
    let mut tids = std::collections::BTreeSet::new();
    let names = [
        "subcube.bulk_load",
        "subcube.age",
        "durable.checkpoint",
        "wal.append",
    ];
    for name in names {
        let spans: Vec<_> = two.traces.iter().filter(|t| t.name == name).collect();
        assert!(
            spans.len() >= 2,
            "{name}: one span per shard, got {spans:?}"
        );
        for t in spans {
            let mut up = by_id.get(&t.parent);
            while let Some(p) = up.filter(|p| !p.name.starts_with("shard.")) {
                up = by_id.get(&p.parent);
            }
            assert!(up.is_some(), "{name} has no shard.* ancestor: {t:?}");
            tids.insert(t.tid);
        }
    }
    assert!(tids.len() >= 2, "the shards' writes all ran on one thread");
    assert_eq!(path_set(&one), path_set(&two), "shard span trees diverge");

    // --- Phase 9: recovery's stats check is its own phase. Each shard's
    // `verify_stats` runs in a `durable.recover.verify` span whose
    // parent is that shard's `durable.recover`, so none of it is booked
    // to the recovery itself.
    let fs = specdr::storage::fs::MemFs::shared();
    let dir = std::path::Path::new("/r");
    let router = ShardRouter::create_with_fs(spec.clone(), dir, 2, fs.clone()).unwrap();
    router.bulk_load(&mo).unwrap();
    router.age(now).unwrap();
    router.checkpoint().unwrap();
    router.bulk_load(&mo).unwrap();
    drop(router);
    obs::reset();
    let (recovered, report) = ShardRouter::recover_with_fs(spec.clone(), dir, fs).unwrap();
    assert_eq!((recovered.shards(), report.replayed), (2, 2));
    let snap = obs::snapshot();
    let by_id: std::collections::BTreeMap<u64, &specdr::obs::TraceSpan> =
        snap.traces.iter().map(|t| (t.id, t)).collect();
    let verifies: Vec<_> = (snap.traces.iter())
        .filter(|t| t.name == "durable.recover.verify")
        .collect();
    assert_eq!(verifies.len(), 2, "one stats check per shard: {verifies:?}");
    for t in verifies {
        let parent = by_id.get(&t.parent).map(|p| p.name.as_str());
        assert_eq!(parent, Some("durable.recover"), "{t:?}");
    }
    obs::set_enabled(false);
}
