//! Experiment E7: parallel vs. sequential per-subcube query evaluation
//! (Section 7.3) and the cost of querying in the un-synchronized state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sdr_bench::{bench_warehouse, policy_spec};
use sdr_mdm::time_cat as tc;
use sdr_query::{AggApproach, SelectMode};
use sdr_spec::parse_pexp;
use sdr_subcube::{CubeQuery, ShardRouter};

fn bench_subcube_query(c: &mut Criterion) {
    sdr_bench::obs_begin();
    let w = bench_warehouse(36, 400);
    let m = ShardRouter::in_memory(policy_spec(&w.cs.schema)).unwrap();
    m.bulk_load(&w.cs.mo).unwrap();
    // Mid-life state: tens of thousands of rows spread over all cubes.
    m.sync(w.mid).unwrap();
    let q = CubeQuery {
        pred: Some(parse_pexp(&w.cs.schema, "URL.domain_grp = .com").unwrap()),
        mode: SelectMode::Conservative,
        levels: vec![tc::QUARTER, w.cs.url_cats.domain_grp],
        approach: AggApproach::Availability,
    };

    let mut g = c.benchmark_group("E7_subcube_query");
    g.sample_size(10);
    for (label, parallel) in [("sequential", false), ("parallel", true)] {
        g.bench_with_input(BenchmarkId::new("synced", label), &parallel, |b, &p| {
            b.iter(|| black_box(m.view_set().query(&q, w.mid, p).unwrap()));
        });
    }
    g.finish();

    // Un-synchronized querying: same warehouse, one month further along, so
    // some facts' homes have moved but the cubes have not been synced.
    let later = sdr_mdm::time::shift_day(w.mid, sdr_mdm::Span::new(1, sdr_mdm::TimeUnit::Month), 1);
    let mut g = c.benchmark_group("E7_unsync_query");
    g.sample_size(10);
    for (label, parallel) in [("sequential", false), ("parallel", true)] {
        g.bench_with_input(BenchmarkId::new("unsynced", label), &parallel, |b, &p| {
            b.iter(|| black_box(m.view_set().query_unsync(&q, later, p).unwrap()));
        });
    }
    g.finish();
    sdr_bench::obs_record("subcube_query");
}

criterion_group!(benches, bench_subcube_query);
criterion_main!(benches);
