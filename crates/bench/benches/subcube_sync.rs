//! Experiment E6: subcube synchronization cost (Section 7.2).
//!
//! The paper argues synchronization "is not considered a performance
//! bottleneck" because it runs at bulk-load time and at most once per
//! significant time period. This bench measures (a) a monthly sync tick
//! on a settled warehouse and (b) bulk load plus sync of one new month of
//! clicks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sdr_bench::{bench_warehouse, policy_spec};
use sdr_mdm::calendar::days_from_civil;
use sdr_subcube::ShardRouter;
use sdr_workload::{generate, ClickstreamConfig};

fn settled_warehouse(clicks_per_day: usize) -> (ShardRouter, i32) {
    // Settle at mid-life so raw, month-tier, and quarter-tier data all
    // coexist — the representative steady state for a tick.
    let w = bench_warehouse(24, clicks_per_day);
    let m = ShardRouter::in_memory(policy_spec(&w.cs.schema)).unwrap();
    m.bulk_load(&w.cs.mo).unwrap();
    m.sync(w.mid).unwrap();
    (m, w.mid)
}

fn bench_sync(c: &mut Criterion) {
    sdr_bench::obs_begin();
    let mut g = c.benchmark_group("E6_sync_tick");
    g.sample_size(10);
    for clicks in [100usize, 400] {
        let (m, now) = settled_warehouse(clicks);
        let next =
            sdr_mdm::time::shift_day(now, sdr_mdm::Span::new(1, sdr_mdm::TimeUnit::Month), 1);
        g.bench_with_input(
            BenchmarkId::new("clicks_per_day", format!("{clicks}_{}rows", m.len())),
            &next,
            |b, &next| {
                // Each iteration gets a freshly settled warehouse; the
                // measured cost is the month boundary's transition ticks.
                b.iter_batched(
                    || {
                        let (m, _) = settled_warehouse(clicks);
                        m
                    },
                    |m| black_box(m.sync(next).unwrap()),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("E6_bulk_load_month");
    g.sample_size(10);
    let month = generate(&ClickstreamConfig {
        clicks_per_day: 400,
        start: (2001, 1, 1),
        end: (2001, 1, 31),
        ..Default::default()
    });
    g.bench_function("load_and_sync", |b| {
        b.iter_batched(
            || settled_warehouse(400).0,
            |m| {
                m.bulk_load(&month.mo).unwrap();
                black_box(m.sync(days_from_civil(2001, 2, 28)).unwrap())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();

    // The scheduler: asking whether a tick is due is one lookup in the
    // reduction schedule cached on the version, whatever the warehouse
    // holds.
    let mut g = c.benchmark_group("E6_noop_tick");
    g.sample_size(10);
    let (m, now) = settled_warehouse(400);
    m.sync(now).unwrap();
    // Each ask reads the current version, as a scheduler would.
    let needs_sync = |day| m.view_set().views()[0].needs_sync(day);
    // Same day: no transition in an empty window.
    g.bench_function("same_day", |b| {
        b.iter(|| black_box(needs_sync(now)));
    });
    // Next day (no month boundary crossed): "nothing to do".
    let tomorrow = now + 1;
    g.bench_function("next_day", |b| {
        b.iter(|| black_box(needs_sync(tomorrow)));
    });
    g.finish();
    sdr_bench::obs_record("subcube_sync");
}

criterion_group!(benches, bench_sync);
criterion_main!(benches);
