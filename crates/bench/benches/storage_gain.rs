//! Experiment E1: the paper's headline claim — "huge storage gains while
//! ensuring the retention of essential data".
//!
//! Besides timing the reduce+store pipeline, this bench *prints* the
//! storage-gain table (fact count, raw bytes, encoded bytes, reduction
//! factor as the warehouse ages under the 6/36-month retention policy).
//! The same table is produced, with more detail, by
//! `cargo run --release --example retention_policy`; `EXPERIMENTS.md`
//! records the measured series.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sdr_bench::bench_warehouse;
use sdr_mdm::calendar::civil_from_days;
use sdr_reduce::reduce;
use sdr_storage::table_stats;

fn bench_storage_gain(c: &mut Criterion) {
    sdr_bench::obs_begin();
    let w = bench_warehouse(24, 400);
    let raw_stats = table_stats(w.cs.mo.schema(), [&w.cs.mo]);
    eprintln!("\nE1 storage-gain series (24 months of clicks, policy 6/36):");
    eprintln!(
        "{:>12} {:>10} {:>12} {:>12} {:>8}",
        "NOW", "facts", "raw_bytes", "enc_bytes", "factor"
    );
    let mut now = sdr_mdm::calendar::days_from_civil(1999, 7, 1);
    for _ in 0..10 {
        let red = reduce(&w.cs.mo, &w.spec, now).unwrap();
        let st = table_stats(red.schema(), [&red]);
        let (y, m, _) = civil_from_days(now);
        eprintln!(
            "{:>9}/{:<2} {:>10} {:>12} {:>12} {:>7.1}x",
            y,
            m,
            st.rows,
            st.raw_bytes,
            st.encoded_bytes,
            raw_stats.raw_bytes as f64 / st.encoded_bytes.max(1) as f64
        );
        now = sdr_mdm::time::shift_day(now, sdr_mdm::Span::new(6, sdr_mdm::TimeUnit::Month), 1);
    }

    let mut g = c.benchmark_group("E1_reduce_and_store");
    g.sample_size(10);
    g.bench_function("pipeline", |b| {
        b.iter(|| {
            let red = reduce(&w.cs.mo, &w.spec, w.now).unwrap();
            black_box(table_stats(red.schema(), [&red]))
        });
    });
    g.finish();
    sdr_bench::obs_record("storage_gain");
}

criterion_group!(benches, bench_storage_gain);
criterion_main!(benches);
