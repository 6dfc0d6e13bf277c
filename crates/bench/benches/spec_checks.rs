//! Experiments E2 and E3: cost of the specification soundness gate.
//!
//! The paper argues (Section 5.2) that the `|A|²` pairwise NonCrossing
//! check "offers ample performance" because specifications are small and
//! checks only run on update, and (Section 5.3) that the Growing check is
//! a syntactic fast path for growing actions plus a prover obligation for
//! shrinking ones. A specification analyzes each action once, when it
//! enters, and decides both properties over those analyses. These benches
//! time the whole gate — `DataReductionSpec::new`, analysis plus both
//! decisions — and, separately, each decision pass over prebuilt
//! analyses, as the action count grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use sdr_reduce::{crossings, escapes, ActionAnalysis, DataReductionSpec};
use sdr_spec::{parse_action, ActionSpec};
use sdr_workload::{
    generate, prover_heavy_policy, retention_policy, tiered_policy, ClickstreamConfig,
};

fn bench_checks(c: &mut Criterion) {
    // A schema with 8 domain groups so tiered policies scale to 24 actions.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        n_domain_grps: 8,
        horizon: ((1998, 1, 1), (2004, 12, 31)),
        ..Default::default()
    });
    let schema = Arc::clone(&cs.schema);
    let parse = |srcs: Vec<String>| -> Vec<ActionSpec> {
        srcs.iter()
            .map(|s| parse_action(&schema, s).unwrap())
            .collect()
    };
    // Tiered policies order every overlapping pair (the syntactic fast
    // path); prover-heavy ones aggregate to unordered granularities with
    // disjoint predicates, so every cross-pair is decided on groundings;
    // the retention policy carries a shrinking (category F) action.
    let mut policies: Vec<(&str, Vec<ActionSpec>)> = Vec::new();
    for n_grps in [2usize, 4, 8] {
        policies.push(("tiered", parse(tiered_policy(n_grps, 3))));
    }
    for n_grps in [2usize, 4, 8] {
        policies.push(("prover_heavy", parse(prover_heavy_policy(n_grps))));
    }
    policies.push(("retention", parse(retention_policy(6, 36))));

    let mut g = c.benchmark_group("E2_E3_spec_new");
    g.sample_size(10);
    for (label, actions) in &policies {
        g.bench_with_input(
            BenchmarkId::new(*label, actions.len()),
            actions,
            |b, actions| {
                b.iter(|| DataReductionSpec::new(Arc::clone(&schema), black_box(actions.clone())))
            },
        );
    }
    g.finish();

    let analyzed: Vec<Vec<ActionAnalysis>> = policies
        .iter()
        .map(|(_, actions)| {
            let build = |a: &ActionSpec| ActionAnalysis::build(&schema, &a.pred).unwrap();
            actions.iter().map(build).collect()
        })
        .collect();
    let pairs = |k: usize| -> Vec<(&ActionSpec, &ActionAnalysis)> {
        policies[k].1.iter().zip(&analyzed[k]).collect()
    };
    let mut g = c.benchmark_group("E2_noncrossing_decision");
    g.sample_size(10);
    for (k, (label, actions)) in policies.iter().enumerate() {
        let input = pairs(k);
        g.bench_with_input(
            BenchmarkId::new(*label, actions.len()),
            &input,
            |b, input| b.iter(|| assert_eq!(crossings(&schema, black_box(input)).count(), 0)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("E3_growing_decision");
    g.sample_size(10);
    for (k, (label, actions)) in policies.iter().enumerate() {
        let input = pairs(k);
        g.bench_with_input(
            BenchmarkId::new(*label, actions.len()),
            &input,
            |b, input| b.iter(|| assert_eq!(escapes(&schema, black_box(input)).count(), 0)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_checks);
criterion_main!(benches);
