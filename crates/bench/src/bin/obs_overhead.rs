//! Obs-overhead probe for the CI gate: times the kernel digest path
//! (select → aggregate → reduce) with the `sdr-obs` registry disabled
//! and prints the median per-iteration wall time.
//!
//! `scripts/ci.sh` runs this binary twice — once in the default build
//! (instrumentation compiled in, registry disabled) and once with
//! `--features obs-off` (instrumentation compiled out entirely) — and
//! fails if the default build is more than branch-check noise slower.
//! That is the contract that lets tracing ship always-compiled-in.
//!
//! The digest is printed so the gate also re-confirms both builds
//! compute identical results.

use std::time::Instant;

use sdr_bench::{bench_warehouse, mo_digest};
use sdr_mdm::time_cat as tc;
use sdr_query::{aggregate_ids, select, AggApproach, SelectMode};
use sdr_reduce::reduce;
use sdr_spec::parse_pexp;

fn main() {
    sdr_obs::set_enabled(false);
    let w = bench_warehouse(6, 40);
    let raw = &w.cs.mo;
    let schema = raw.schema();
    let grp = w.cs.url_cats.domain_grp;
    let pred = parse_pexp(schema, "Time.quarter <= 1999Q2 AND URL.domain_grp = .com").unwrap();

    // 2 warm-up iterations, 7 timed; the median absorbs scheduler noise.
    let mut digest = 0u64;
    let mut samples: Vec<u128> = Vec::new();
    for i in 0..9 {
        let t = Instant::now();
        let s = select(raw, &pred, w.mid, SelectMode::Conservative).unwrap();
        let a = aggregate_ids(raw, &[tc::QUARTER, grp], AggApproach::Availability).unwrap();
        let r = reduce(raw, &w.spec, w.mid).unwrap();
        let ns = t.elapsed().as_nanos();
        digest ^= mo_digest(&s) ^ mo_digest(&a) ^ mo_digest(&r);
        if i >= 2 {
            samples.push(ns);
        }
    }
    samples.sort_unstable();
    println!(
        "obs-overhead kernel_ns={} digest={digest:#018x}",
        samples[samples.len() / 2]
    );
}
