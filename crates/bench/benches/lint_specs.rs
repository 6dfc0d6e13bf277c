//! Lint-engine cost on large specifications.
//!
//! `specdr lint` is meant to run as a CI gate over a realistic 50-action
//! specification. It day-scans each action once — the analysis a
//! `DataReductionSpec` makes when the action enters — and its L004/L005
//! passes are the soundness gate's own NonCrossing and Growing decisions
//! (Sections 5.2–5.3) over those analyses; on top it runs L001–L003 and
//! L006–L007. The gate itself is timed by the `spec_checks` bench.
//!
//! Also measured: the incremental path (one `insert` + re-lint against a
//! warm 49-action cache), which is the editor/REPL workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use sdr_lint::{lint_source, LintConfig, Linter};
use sdr_workload::{generate, prover_heavy_policy, ClickstreamConfig};

fn bench_lint(c: &mut Criterion) {
    // 50 domain groups so prover_heavy_policy(50) resolves; every
    // cross-pair of the policy takes the prover path.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        n_domain_grps: 50,
        horizon: ((1998, 1, 1), (2004, 12, 31)),
        ..Default::default()
    });
    let schema = Arc::clone(&cs.schema);
    let policy = prover_heavy_policy(50);
    let src = policy.join(";\n");
    let cfg = LintConfig::default();

    let mut g = c.benchmark_group("lint_specs");
    g.sample_size(10);

    // Full batch lint: parse + analyze + all seven rules.
    g.bench_with_input(BenchmarkId::new("lint_source", 50), &src, |b, src| {
        b.iter(|| {
            let diags = lint_source(&schema, black_box(src), &cfg);
            assert!(diags.is_empty(), "policy is clean: {diags:#?}");
        });
    });

    // Incremental re-lint: warm 49-action cache, insert the 50th, rerun
    // the rules (no re-analysis of the other 49).
    let warm = {
        let mut l = Linter::new(Arc::clone(&schema), cfg.clone());
        for a in &policy[..49] {
            l.insert(a);
        }
        l
    };
    g.bench_with_input(BenchmarkId::new("lint_insert", 1), &warm, |b, warm| {
        b.iter(|| {
            let mut l = warm.clone();
            l.insert(black_box(&policy[49]));
            let diags = l.diagnostics();
            assert!(diags.is_empty());
        });
    });

    g.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
