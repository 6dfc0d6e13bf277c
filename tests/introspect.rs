//! Integration tests for warehouse introspection (`specdr::introspect`):
//! the counts `explain` reports must match naive references recomputed
//! from first principles, and the exported trace must be a well-formed
//! parent/child tree.
//!
//! The in-process phases share the process-global `sdr-obs` registry, so
//! they run inside ONE test function, exactly like `observability.rs`.

use std::sync::Arc;

use specdr::introspect::{explain_age, explain_query};
use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::time_cat as tc;
use specdr::plan::Grounding;
use specdr::query::{aggregate_ids_naive, select_snapshot, AggApproach, SelectMode};
use specdr::reduce::DataReductionSpec;
use specdr::spec::{parse_action, parse_pexp};
use specdr::subcube::{CubeQuery, ShardRouter, WarehouseView};
use specdr::workload::{paper_mo, ACTION_A1, ACTION_A2};

fn warehouse_with_paper_data() -> ShardRouter {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let m = ShardRouter::in_memory(spec).unwrap();
    m.bulk_load(&mo).unwrap();
    m
}

/// The one shard's published view.
fn shard(m: &ShardRouter) -> WarehouseView {
    m.view_set().views()[0].clone()
}

/// The Figure 8 query: α[month, domain_grp](σ[1999/6 < month ≤ 2000/5]).
fn figure8_query(m: &ShardRouter) -> CubeQuery {
    let grp = m
        .schema()
        .dim(specdr::mdm::DimId(1))
        .graph()
        .by_name("domain_grp")
        .unwrap();
    CubeQuery {
        pred: Some(parse_pexp(m.schema(), "1999/6 < Time.month AND Time.month <= 2000/5").unwrap()),
        mode: SelectMode::Liberal,
        levels: vec![tc::MONTH, grp],
        approach: AggApproach::Availability,
    }
}

#[test]
fn explain_counts_match_naive_references() {
    let m = warehouse_with_paper_data();
    let now = days_from_civil(2000, 11, 5);
    m.sync(now).unwrap();
    let q = figure8_query(&m);

    // --- Phase 1: explain a Figure 8 query; every reported count must
    // equal a reference recomputed with the naive kernels.
    let (answer, report) = explain_query(&m, &q, now, true, false).unwrap();
    let direct = m.view_set().query(&q, now, false).unwrap();
    assert_eq!(
        answer.len(),
        direct.len(),
        "explain must not change the answer"
    );
    assert_eq!(report.result_rows, direct.len() as u64);
    let view = shard(&m);
    assert_eq!(report.epoch, view.epoch());
    assert_eq!(report.cubes.len(), view.cubes().len());
    for (i, cube) in view.cubes().iter().enumerate() {
        let rep = &report.cubes[i];
        let mo = cube.data();
        assert_eq!(rep.rows, mo.len() as u64, "K{i} row count");
        assert_eq!(rep.epoch, cube.epoch(), "K{i} epoch");
        // Distinct per dimension, recomputed fact by fact.
        for d in 0..m.schema().n_dims() {
            let mut seen = std::collections::BTreeSet::new();
            for f in mo.facts() {
                let v = &mo.coords(f)[d];
                seen.insert((v.cat.0, v.code));
            }
            assert_eq!(
                rep.distinct[d] as usize,
                seen.len(),
                "K{i} dim {d} distinct"
            );
        }
        // The sub-query the engine attributes to this cube, re-run with
        // the retained naive kernels: σ then the row-at-a-time α.
        assert!(rep.scanned, "a synchronized query scans every cube");
        let selected = select_snapshot(&cube.snapshot(), q.pred.as_ref(), now, q.mode).unwrap();
        let naive = aggregate_ids_naive(&selected, &q.levels, q.approach).unwrap();
        assert_eq!(rep.rows_out, naive.len() as u64, "K{i} rows_out");
        assert_eq!(rep.skippable, naive.is_empty(), "K{i} skippable");
        // Chunk verdicts, recomputed from each chunk's hulls.
        let grounding = Grounding::new(m.schema(), q.pred.as_ref(), q.mode, now);
        let alive = cube
            .chunks()
            .iter()
            .filter(|c| grounding.may_match(c.summary().hulls()))
            .count() as u64;
        assert_eq!(rep.chunks, cube.chunks().len() as u64, "K{i} chunks");
        assert_eq!(rep.chunks_scanned, alive, "K{i} chunks scanned");
        assert_eq!(
            rep.chunks_skipped,
            rep.chunks - alive,
            "K{i} chunks skipped"
        );
    }
    assert!(report.cubes.iter().any(|c| !c.skippable));

    // Loaded one fact at a time and never synchronized, the bottom cube
    // is one chunk per fact: the report's chunk verdicts are the hull
    // test's, and a window from 2000 on skips some of them.
    let (facts, _) = paper_mo();
    let chunked = ShardRouter::in_memory(m.spec().as_ref().clone()).unwrap();
    for f in 0..facts.len() as u32 {
        chunked.bulk_load(&facts.gather(&[f])).unwrap();
    }
    let recent = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "Time.quarter >= 2000Q1").unwrap()),
        ..figure8_query(&m)
    };
    let (_, chunked_report) = explain_query(&chunked, &recent, now, false, false).unwrap();
    let chunked_view = shard(&chunked);
    let k0 = &chunked_view.cubes()[0];
    let grounding = Grounding::new(m.schema(), recent.pred.as_ref(), recent.mode, now);
    let hulls = k0.chunks().iter().map(|c| c.summary().hulls());
    let alive = hulls.filter(|h| grounding.may_match(h)).count() as u64;
    let rep = &chunked_report.cubes[0];
    assert_eq!(rep.chunks, facts.len() as u64);
    assert_eq!(
        (rep.chunks_scanned, rep.chunks_skipped),
        (alive, rep.chunks - alive)
    );
    assert!(rep.chunks_skipped > 0, "{rep:?}");

    // A window before any fact exists: the planner proves every cube
    // irrelevant from its statistics — nothing is scanned, the answer is
    // empty, and each report row carries the skip verdict.
    let empty_q = CubeQuery {
        pred: Some(parse_pexp(m.schema(), "Time.month < 1999/1").unwrap()),
        mode: SelectMode::Conservative,
        ..figure8_query(&m)
    };
    let (empty_answer, empty_report) = explain_query(&m, &empty_q, now, false, false).unwrap();
    assert_eq!(empty_answer.len(), 0);
    for c in &empty_report.cubes {
        assert!(!c.scanned, "planner prunes the impossible window: {c:?}");
        assert!(
            c.planned.as_deref().is_some_and(|p| p.starts_with("skip(")),
            "{c:?}"
        );
        assert_eq!(c.rows_out, 0, "{c:?}");
    }

    // --- Phase 2: the exported chrome trace is a well-formed
    // parent/child tree.
    let spans = &report.snapshot.traces;
    assert!(!spans.is_empty());
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids unique");
    let root = spans
        .iter()
        .find(|s| s.name == "subcube.query")
        .expect("query root span");
    for s in spans {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "dangling parent in {s:?}"
        );
        if s.parent != 0 {
            let p = spans.iter().find(|c| c.id == s.parent).unwrap();
            assert_eq!(
                s.path,
                format!("{}/{}", p.path, s.name),
                "path must chain through the parent"
            );
        } else {
            assert_eq!(s.path, s.name, "root span path is its name");
        }
        if s.name == "subcube.query.subquery" {
            assert_eq!(s.parent, root.id, "fan-out spans hang off the query root");
        }
    }
    let chrome = report.to_chrome_trace();
    assert!(chrome.starts_with("{\"displayTimeUnit\""));
    assert!(chrome.contains("\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("]}"));
    assert_eq!(
        chrome.matches("\"ph\":\"X\"").count(),
        spans.len(),
        "one complete event per span"
    );
    assert_eq!(specdr::obs::open_spans(), 0, "no span leaked");

    // --- Phase 3: explain a reduction on a fresh warehouse; the
    // per-cube rows must equal a naive recount of the state it leaves.
    let m2 = warehouse_with_paper_data();
    let (stats, age_report) = explain_age(&m2, now).unwrap();
    assert!(stats.cells_delta > 0);
    let v2 = shard(&m2);
    for (i, cube) in v2.cubes().iter().enumerate() {
        assert_eq!(age_report.cubes[i].rows, cube.data().len() as u64);
        assert!(age_report.cubes[i].scanned);
    }
    assert_eq!(age_report.result_rows, v2.len() as u64);
    let paths: Vec<&str> = age_report.phases.iter().map(|p| p.path.as_str()).collect();
    assert!(paths.contains(&"shard.age/subcube.age"), "{paths:?}");
    assert!(
        paths.contains(&"shard.age/subcube.age/subcube.age.tick"),
        "{paths:?}"
    );

    // --- Phase 4: the query half on its own warehouse, synchronized
    // first: the subquery phase aggregates one span per cube with exact
    // rows, and the answer is the direct one.
    let m3 = warehouse_with_paper_data();
    m3.sync(now).unwrap();
    let q3 = figure8_query(&m3);
    let (panswer, preport) = explain_query(&m3, &q3, now, true, false).unwrap();
    assert_eq!(
        panswer.len(),
        direct.len(),
        "explain answer = direct answer"
    );
    assert_eq!(preport.result_rows, direct.len() as u64);
    let ppaths: Vec<&str> = preport.phases.iter().map(|p| p.path.as_str()).collect();
    assert!(
        ppaths.contains(&"subcube.query/subcube.query.subquery"),
        "{ppaths:?}"
    );
    let subq = preport
        .phases
        .iter()
        .find(|p| p.path == "subcube.query/subcube.query.subquery")
        .unwrap();
    assert_eq!(subq.count, shard(&m3).cubes().len() as u64);
    assert_eq!(
        subq.rows_in,
        shard(&m3)
            .cubes()
            .iter()
            .map(|c| c.data().len() as u64)
            .sum::<u64>()
    );

    // --- Phase 5: explain an un-synchronized query on a warehouse left
    // at an earlier day. The report describes the virtually aged
    // version — the same cubes, rows and verdicts a real sync to `now`
    // then shows — and carries the memo line; nothing was published.
    let m4 = warehouse_with_paper_data();
    m4.sync(days_from_civil(2000, 6, 5)).unwrap();
    let q4 = figure8_query(&m4);
    let epoch = shard(&m4).epoch();
    let (uanswer, ureport) = explain_query(&m4, &q4, now, true, true).unwrap();
    assert_eq!(
        shard(&m4).epoch(),
        epoch,
        "explaining a read published a version"
    );
    assert_eq!(
        (ureport.op.as_str(), ureport.epoch),
        ("query_unsync", epoch)
    );
    assert_eq!(uanswer.len(), direct.len());
    let memo = ureport
        .virtual_age()
        .expect("the report carries the memo line");
    let attr = |k: &str| {
        memo.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(attr("memo"), Some("miss"));
    assert!(
        attr("ticks").unwrap().parse::<u64>().unwrap() >= 1,
        "{memo:?}"
    );
    assert!(ureport.to_table().contains("virtual age: "));
    assert!(ureport.to_json().contains("\"virtual_age\":{"));
    let (_, again) = explain_query(&m4, &q4, now, true, true).unwrap();
    let memo = again.virtual_age().unwrap();
    assert!(
        memo.contains(&("memo".to_string(), "hit".to_string())),
        "{memo:?}"
    );
    for (virt, real) in ureport.cubes.iter().zip(&report.cubes) {
        let key =
            |c: &specdr::introspect::CubeReport| (c.rows, c.planned.clone(), c.scanned, c.rows_out);
        assert_eq!(key(virt), key(real), "K{}", virt.id);
    }
}

#[test]
fn explain_cli_formats_are_consistent() {
    // The CLI runs in a subprocess, so this is registry-race-free.
    let bin = env!("CARGO_BIN_EXE_specdr");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(bin).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "specdr {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let base = ["--months", "8", "--clicks", "10", "--now", "2001/6/28"];

    let table = run(&[&["explain", "--query"], &base[..]].concat());
    assert!(table.contains("subcube DAG:"), "{table}");
    assert!(table.contains("K0"), "{table}");
    assert!(table.contains("phases:"), "{table}");

    let json = run(&[&["explain", "--query", "--format", "json"], &base[..]].concat());
    assert!(json.starts_with("{\"op\":\"query\""), "{json}");
    assert!(json.contains("\"cubes\":["), "{json}");
    assert!(json.trim_end().ends_with("]}"), "{json}");
    // Deterministic inputs → identical report on a second run.
    let json2 = run(&[&["explain", "--query", "--format", "json"], &base[..]].concat());
    let strip_phases = |s: &str| s.split(",\"phases\":").next().unwrap().to_string();
    assert_eq!(
        strip_phases(&json),
        strip_phases(&json2),
        "cube annotations are deterministic (phases carry wall-clock times)"
    );

    // --unsync: the same command, explained on the virtually aged view.
    let unsync = run(&[&["explain", "--query", "--unsync"], &base[..]].concat());
    assert!(unsync.contains("explain query_unsync:"), "{unsync}");
    assert!(
        unsync.contains("virtual age: ") && unsync.contains("memo=miss"),
        "{unsync}"
    );
    assert!(unsync.contains("subcube.query.virtual_age"), "{unsync}");
    let out = std::process::Command::new(bin)
        .args(["explain", "--reduce", "--unsync"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--unsync explains queries only");

    let trace = run(&[&["explain", "--reduce", "--format", "trace"], &base[..]].concat());
    assert!(trace.contains("\"traceEvents\":["), "{trace}");
    assert!(trace.contains("subcube.age.tick"), "{trace}");

    // The query is explained on a synchronized warehouse: its trace
    // carries the query spans.
    assert!(json.contains("subcube.query"), "{json}");

    // --query and --reduce are mutually exclusive.
    let out = std::process::Command::new(bin)
        .args(["explain", "--query", "--reduce"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
