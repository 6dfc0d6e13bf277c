//! Experiment E8: cost of the Definition 5 comparison operators.
//!
//! Comparisons across categories drill both values to their GLB; for the
//! time dimension that is pure interval arithmetic, for enumerated
//! dimensions it materializes footprint id sets. This bench quantifies
//! the per-operator cost by category distance (same category, adjacent,
//! cross-branch through `day`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sdr_mdm::{time_cat as tc, DimId};
use sdr_spec::{compare_conservative, compare_weight, CmpOp};
use sdr_workload::paper_mo;

fn bench_compare(c: &mut Criterion) {
    let (mo, cats) = paper_mo();
    let schema = mo.schema();
    let time = schema.dim(DimId(0));
    let url = schema.dim(DimId(1));

    let day = time.parse_value(tc::DAY, "1999/12/4").unwrap();
    let month = time.parse_value(tc::MONTH, "1999/12").unwrap();
    let quarter = time.parse_value(tc::QUARTER, "1999Q4").unwrap();
    let week = time.parse_value(tc::WEEK, "1999W48").unwrap();

    let mut g = c.benchmark_group("E8_compare_time");
    for (label, a, b_, op) in [
        ("same_cat_le", month, month, CmpOp::Le),
        ("day_vs_month_le", day, month, CmpOp::Le),
        ("quarter_vs_month_le", quarter, month, CmpOp::Le),
        ("quarter_vs_week_lt_glb_day", quarter, week, CmpOp::Lt),
        ("quarter_vs_week_eq", quarter, week, CmpOp::Eq),
    ] {
        g.bench_function(BenchmarkId::new("op", label), |bch| {
            bch.iter(|| black_box(compare_conservative(time, a, op, b_).unwrap()));
        });
    }
    // The weight does the same interval math plus a division.
    g.bench_function(BenchmarkId::new("op", "quarter_vs_month_weighted"), |bch| {
        bch.iter(|| black_box(compare_weight(time, quarter, CmpOp::Le, month).unwrap()));
    });
    g.finish();

    let sdr_mdm::Dimension::Enum(e) = url else {
        unreachable!()
    };
    let health = e.value(cats.url, "http://www.cnn.com/health").unwrap();
    let cnn = e.value(cats.domain, "cnn.com").unwrap();
    let com = e.value(cats.domain_grp, ".com").unwrap();
    let mut g = c.benchmark_group("E8_compare_enum");
    for (label, a, b_) in [
        ("url_vs_domain_eq", health, cnn),
        ("url_vs_grp_eq", health, com),
        ("domain_vs_grp_ne", cnn, com),
    ] {
        g.bench_function(BenchmarkId::new("op", label), |bch| {
            bch.iter(|| black_box(compare_conservative(url, a, CmpOp::Eq, b_).unwrap()));
        });
        let _ = label;
    }
    g.finish();
}

criterion_group!(benches, bench_compare);
criterion_main!(benches);
