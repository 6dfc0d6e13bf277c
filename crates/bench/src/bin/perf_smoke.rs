//! Release-mode perf smoke for CI: runs the kernel operator set (select,
//! aggregate, reduce, sync) at a fixed small scale and fails (non-zero
//! exit) if any kernel's output digest differs from its naive reference
//! — a cheap guard that the vectorized select/aggregate kernels and the
//! `CellMemo` pass behind reduce and sync cannot silently drift from the
//! row-at-a-time semantics between full differential-property runs.

use std::process::ExitCode;

use sdr_bench::{bench_warehouse, mo_digest, mos_digest, sync_naive_replay, warehouse_digest};
use sdr_mdm::time_cat as tc;
use sdr_query::{
    aggregate_ids, aggregate_ids_naive, select, select_naive, AggApproach, SelectMode,
};
use sdr_reduce::{reduce, reduce_naive};
use sdr_spec::parse_pexp;
use sdr_subcube::ShardRouter;

fn main() -> ExitCode {
    sdr_obs::set_enabled(false);
    let w = bench_warehouse(6, 40);
    let raw = &w.cs.mo;
    let schema = raw.schema();
    let grp = w.cs.url_cats.domain_grp;
    let pred = parse_pexp(schema, "Time.quarter <= 1999Q2 AND URL.domain_grp = .com").unwrap();
    let mut failures = 0u32;
    let mut check = |op: &str, kernel: u64, naive: u64| {
        if kernel == naive {
            eprintln!("perf-smoke: {op:9} digest {kernel:#018x} kernel == naive");
        } else {
            eprintln!("perf-smoke: {op:9} MISMATCH kernel {kernel:#018x} != naive {naive:#018x}");
            failures += 1;
        }
    };

    for mode in [
        SelectMode::Conservative,
        SelectMode::Liberal,
        SelectMode::Weighted { threshold: 0.5 },
    ] {
        let k = select(raw, &pred, w.mid, mode).unwrap();
        let n = select_naive(raw, &pred, w.mid, mode).unwrap();
        check("select", mo_digest(&k), mo_digest(&n));
    }
    for approach in [
        AggApproach::Availability,
        AggApproach::Strict,
        AggApproach::Lub,
    ] {
        let k = aggregate_ids(raw, &[tc::QUARTER, grp], approach).unwrap();
        let n = aggregate_ids_naive(raw, &[tc::QUARTER, grp], approach).unwrap();
        check("aggregate", mo_digest(&k), mo_digest(&n));
    }
    for t in [w.mid, w.now] {
        let k = reduce(raw, &w.spec, t).unwrap();
        let n = reduce_naive(raw, &w.spec, t).unwrap();
        check("reduce", mo_digest(&k), mo_digest(&n));
    }
    let m = ShardRouter::in_memory(w.spec.clone()).unwrap();
    m.bulk_load(raw).unwrap();
    let naive_cubes = sync_naive_replay(&m, &w.spec, w.mid).unwrap();
    m.sync(w.mid).unwrap();
    check("sync", warehouse_digest(&m), mos_digest(&naive_cubes));

    if failures > 0 {
        eprintln!("perf-smoke: FAILED ({failures} digest mismatches)");
        ExitCode::FAILURE
    } else {
        eprintln!("perf-smoke: all kernel digests match the naive reference");
        ExitCode::SUCCESS
    }
}
