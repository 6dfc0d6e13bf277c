//! Experiment E14: cost-based subcube planning + compressed columnar
//! storage, measured end-to-end at 10M facts.
//!
//! Setup: the standard 36-month / 10k-clicks-per-day bench warehouse
//! (~10.9M raw facts) under the 6/36-month retention policy, loaded and
//! synchronized to the mid-life day — raw and month-tier data coexist,
//! with ~1.8M rows still at day grain. Three query families:
//!
//! * `old_window_conservative` / `old_window_liberal` — a selective
//!   window over months the retention policy has already aggregated
//!   (`Time.month <= 1999/3`). The planner's zone maps prove the big
//!   raw-residue cube (and the empty quarter cube) disjoint from the
//!   window, so the planned evaluation scans only the month cube; the
//!   naive fan-out pays the full residue scan. Gate: ≥2× speedup each.
//! * `enum_unselective` — `URL.domain_grp = .com`, which every cube's
//!   statistics intersect; reported un-gated to show planning overhead
//!   is negligible when nothing can be pruned.
//!
//! Planned and naive answers are digest-compared before any timing is
//! trusted. The storage half checkpoints the synced warehouse and reads
//! the format-3 manifest byte table: dictionary + bit-packed cube files
//! must be ≥1.6× smaller than their raw (format-2 layout) footprint.
//! Output: `BENCH_pr8.json` at the repo root.

use std::hint::black_box;
use std::time::Instant;

use sdr_bench::{bench_warehouse, mo_digest};
use sdr_mdm::time_cat as tc;
use sdr_query::{AggApproach, SelectMode};
use sdr_spec::parse_pexp;
use sdr_subcube::{read_manifest, CubeQuery, SubcubeManager};

fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

fn time_runs(mut f: impl FnMut(), runs: usize) -> u64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    median(samples)
}

struct QueryResult {
    label: &'static str,
    planned_ns: u64,
    naive_ns: u64,
    skipped: usize,
    gated: bool,
}

fn main() {
    sdr_obs::set_enabled(false);
    const RUNS: usize = 5;
    let w = bench_warehouse(36, 10_000);
    let facts = w.cs.mo.len() as u64;
    assert!(facts >= 10_000_000, "scale too small: {facts} facts");
    let m = SubcubeManager::new(w.spec.clone());
    m.bulk_load(&w.cs.mo).unwrap();
    m.sync(w.mid).unwrap();
    eprintln!(
        "-- E14 warehouse: {facts} facts, synced to mid-life day {}",
        w.mid
    );

    let view = m.view();
    let oracle = view.region_oracle();
    let queries: &[(&'static str, &str, SelectMode, bool)] = &[
        (
            "old_window_conservative",
            "Time.month <= 1999/3",
            SelectMode::Conservative,
            true,
        ),
        (
            "old_window_liberal",
            "Time.month <= 1999/3",
            SelectMode::Liberal,
            true,
        ),
        (
            "enum_unselective",
            "URL.domain_grp = .com",
            SelectMode::Conservative,
            false,
        ),
    ];

    let mut results = Vec::new();
    for &(label, pred, mode, gated) in queries {
        let q = CubeQuery {
            pred: Some(parse_pexp(&w.cs.schema, pred).unwrap()),
            mode,
            levels: vec![tc::MONTH, w.cs.url_cats.domain],
            approach: AggApproach::Availability,
        };
        // Same answer, or the bench aborts.
        let planned = view.query_planned(&q, w.mid, true, oracle).unwrap();
        let naive = view.query_naive(&q, w.mid, true).unwrap();
        assert_eq!(
            mo_digest(&planned),
            mo_digest(&naive),
            "{label}: planned evaluation diverged from the naive fan-out"
        );
        let skipped = view.plan(&q, w.mid, oracle).n_skipped();

        let planned_ns = time_runs(
            || {
                black_box(view.query_planned(&q, w.mid, true, oracle).unwrap());
            },
            RUNS,
        );
        let naive_ns = time_runs(
            || {
                black_box(view.query_naive(&q, w.mid, true).unwrap());
            },
            RUNS,
        );
        eprintln!(
            "   {label:<26} planned {planned_ns:>12} ns   naive {naive_ns:>12} ns   \
             {:.1}x, {skipped} cube(s) skipped",
            naive_ns as f64 / planned_ns.max(1) as f64
        );
        results.push(QueryResult {
            label,
            planned_ns,
            naive_ns,
            skipped,
            gated,
        });
    }

    for r in &results {
        let speedup = r.naive_ns as f64 / r.planned_ns.max(1) as f64;
        if r.gated {
            assert!(
                r.skipped > 0,
                "{}: the selective window pruned nothing",
                r.label
            );
            assert!(
                speedup >= 2.0,
                "{}: planner speedup {speedup:.1}x below the 2x gate",
                r.label
            );
        }
    }

    // Storage half: checkpoint and read the manifest byte table. `raw`
    // is the uncompressed (format-2 layout) footprint of each cube file,
    // `encoded` what the dictionary + bit-packed format-3 file occupies.
    let dir = std::env::temp_dir().join(format!("sdr-e14-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    m.save_to_dir(&dir).unwrap();
    let man = read_manifest(&dir).unwrap();
    assert_eq!(man.format, 3);
    let (raw, enc) = man
        .cube_bytes
        .iter()
        .fold((0u64, 0u64), |(r, e), &(cr, ce)| (r + cr, e + ce));
    std::fs::remove_dir_all(&dir).ok();
    let reduction = raw as f64 / enc.max(1) as f64;
    eprintln!("   bytes on disk: raw {raw}  encoded {enc}  ({reduction:.2}x reduction)");
    assert!(
        reduction >= 1.6,
        "compression reduction {reduction:.2}x below the 1.6x gate"
    );

    let mut json = format!(
        "{{\n  \"experiment\": \"E14\",\n  \"unit\": \"median_ns\",\n  \"facts\": {facts},\n  \"queries\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"planned_ns\": {}, \"naive_ns\": {}, \
             \"speedup\": {:.1}, \"cubes_skipped\": {}}}{}\n",
            r.label,
            r.planned_ns,
            r.naive_ns,
            r.naive_ns as f64 / r.planned_ns.max(1) as f64,
            r.skipped,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"bytes\": {{\"raw\": {raw}, \"encoded\": {enc}, \"reduction\": {reduction:.2}}}\n}}\n"
    ));
    let path = std::env::var("SDR_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8.json").into());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("wrote {path}");
}
