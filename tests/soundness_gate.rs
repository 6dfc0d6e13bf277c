//! The soundness gate — NonCrossing (§5.2) and Growing (§5.3), decided
//! whenever a `DataReductionSpec` is built and re-decided by
//! Definitions 3–4's `insert`/`delete` — pinned word for word, and held
//! against `specdr lint`: a specification is rejected exactly when lint
//! reports an L004 or L005 error naming the same action(s) and the same
//! witness day ("a clean lint implies the runtime checks pass").

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specdr::lint::{lint_source, Code, Diagnostic, LintConfig};
use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::Schema;
use specdr::reduce::{DataReductionSpec, ReduceError};
use specdr::spec::{parse_action, ActionId, ActionSpec};
use specdr::workload::{
    generate, generate_retail, paper_mo, paper_schema, prover_heavy_policy, retail_policy,
    retention_policy, tiered_policy, ClickstreamConfig, RetailConfig, ACTION_A1, ACTION_A2,
};

/// Convention-conforming stand-ins for the paper's crossing examples a3
/// (Equation 15) and a4 (Equation 16), as in `sdr-reduce`'s unit tests.
const A3: &str = "p(a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O))";
const A4: &str = "p(a[Time.week, URL.url] o[URL.domain = cnn.com AND Time.week <= 1999W50](O))";

/// a2 as every message renders it.
const A2_RENDERED: &str = "`p(a[Time.quarter, URL.domain] o[URL.domain_grp = .com AND \
                           Time.quarter <= NOW - 4 quarters](O))`";

fn parse_all<S: AsRef<str>>(schema: &Schema, srcs: &[S]) -> Vec<ActionSpec> {
    let parse = |s: &S| parse_action(schema, s.as_ref()).unwrap();
    srcs.iter().map(parse).collect()
}

fn rejection(schema: &Arc<Schema>, srcs: &[&str]) -> String {
    let actions = parse_all(schema, srcs);
    let err = DataReductionSpec::new(Arc::clone(schema), actions).unwrap_err();
    err.to_string()
}

#[test]
fn gate_messages_are_pinned() {
    let (schema, _) = paper_schema();
    // Figure 2: {a1} alone drops cells off its moving lower bound.
    assert_eq!(
        rejection(&schema, &[ACTION_A1]),
        "Growing violated: `p(a[Time.month, URL.domain] o[URL.domain_grp = .com AND \
         (Time.month > NOW - 12 months AND Time.month <= NOW - 6 months)](O))` drops \
         uncovered cells at 1999/1/1"
    );
    // Section 4.3's crossing pairs a2/a3 and a2/a4.
    let crossing = |other: &str| {
        format!("NonCrossing violated: {A2_RENDERED} and `{other}` overlap at 1999/1/1 but are unordered")
    };
    assert_eq!(rejection(&schema, &[ACTION_A2, A3]), crossing(A3));
    assert_eq!(rejection(&schema, &[ACTION_A2, A4]), crossing(A4));
    // `insert` wraps the same witness and leaves the specification alone.
    let a2 = parse_all(&schema, &[ACTION_A2]);
    let mut spec = DataReductionSpec::new(Arc::clone(&schema), a2).unwrap();
    let err = spec.insert(parse_all(&schema, &[A3])).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("insert rejected: {}", crossing(A3))
    );
    let edu_window = "p(a[Time.month, URL.domain] o[URL.domain_grp = .edu AND \
                      NOW - 12 months < Time.month AND Time.month <= NOW - 6 months](O))";
    let err = spec.insert(parse_all(&schema, &[edu_window])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "insert rejected: Growing violated: `p(a[Time.month, URL.domain] o[URL.domain_grp = \
         .edu AND Time.month > NOW - 12 months AND Time.month <= NOW - 6 months](O))` drops \
         uncovered cells at 1999/1/1"
    );
    assert_eq!(spec.len(), 1);
    // `delete` reports the remaining set's first witness as text.
    let (mo, _) = paper_mo();
    let both = parse_all(&schema, &[ACTION_A1, ACTION_A2]);
    let mut spec = DataReductionSpec::new(Arc::clone(&schema), both).unwrap();
    let err = spec
        .delete(&[ActionId(1)], &mo, days_from_civil(2000, 11, 5))
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "delete rejected: Growing violated: `p(a[Time.month, URL.domain] o[URL.domain_grp = \
         .com AND (Time.month > NOW - 12 months AND Time.month <= NOW - 6 months)](O))` drops \
         uncovered cells at 1999/1/1"
    );
    assert_eq!(spec.len(), 2);
    // The three-dimensional crossing of `tests/retail_3d.rs`.
    let r = generate_retail(&RetailConfig {
        sales_per_day: 0,
        ..Default::default()
    });
    let tiers = parse_all(&r.schema, &retail_policy());
    let mut spec = DataReductionSpec::new(Arc::clone(&r.schema), tiers).unwrap();
    let store = "p(a[Time.month, Product.category, Store.store] o[NOW - 24 months < Time.month \
                 AND Time.month <= NOW - 6 months](O))";
    let err = spec.insert(parse_all(&r.schema, &[store])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "insert rejected: NonCrossing violated: `p(a[Time.month, Product.sku, Store.city] \
         o[Time.month > NOW - 24 months AND Time.month <= NOW - 6 months](O))` and \
         `p(a[Time.month, Product.category, Store.store] o[Time.month > NOW - 24 months AND \
         Time.month <= NOW - 6 months](O))` overlap at 1998/7/1 but are unordered"
    );
}

/// The first substring of `s` between `after` and `before`.
fn between(s: &str, after: &str, before: &str) -> String {
    let rest = s
        .split(after)
        .nth(1)
        .unwrap_or_else(|| panic!("{after:?} not in {s:?}"));
    rest.split(before).next().unwrap().to_string()
}

/// The gate's verdict as lint reports it: the L004 of the first action
/// pair, else the L005 of the first action, as the error the gate
/// returns for that witness.
fn lint_verdict(
    schema: &Schema,
    actions: &[ActionSpec],
    diags: &[Diagnostic],
) -> Option<ReduceError> {
    let render = |i: usize| actions[i - 1].render(schema);
    let first = |code: Code, after: &str, before: &str| {
        let witnesses = diags.iter().filter(|d| d.code == code).map(|d| {
            let numbers = d.message.split(|c: char| !c.is_ascii_digit());
            let actions: Vec<usize> = numbers.filter_map(|w| w.parse().ok()).collect();
            let note = d.notes.iter().find(|n| n.starts_with("counterexample"));
            (actions, between(note.unwrap(), after, before))
        });
        witnesses.min()
    };
    if let Some((pair, day)) = first(Code::L004, "counterexample: on ", " both actions") {
        return Some(ReduceError::NotNonCrossing {
            a: render(pair[0]),
            b: render(pair[1]),
            witness_day: day,
        });
    }
    let (action, day) = first(Code::L005, "leaves the predicate on ", " and no action")?;
    Some(ReduceError::NotGrowing {
        action: render(action[0]),
        witness_day: day,
    })
}

/// Gate and lint agree on `srcs`; returns the verdict.
fn agree<S: AsRef<str>>(schema: &Arc<Schema>, srcs: &[S]) -> Option<ReduceError> {
    let actions = parse_all(schema, srcs);
    let gate = DataReductionSpec::new(Arc::clone(schema), actions.clone()).err();
    let text: Vec<&str> = srcs.iter().map(AsRef::as_ref).collect();
    let diags = lint_source(schema, &text.join(";\n"), &LintConfig::default());
    assert_eq!(gate, lint_verdict(schema, &actions, &diags), "{text:#?}");
    gate
}

#[test]
fn gate_rejects_exactly_what_lint_reports() {
    // The lint suite's policies, on the paper's schema.
    let (paper, _) = paper_schema();
    let l004 = [
        "a[Time.quarter, URL.domain] o[Time.quarter <= 1999Q4](O)",
        "a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O)",
    ];
    let pool: Vec<Vec<String>> = vec![
        vec![ACTION_A1.into()],
        vec![ACTION_A1.into(), ACTION_A2.into()],
        vec![ACTION_A2.into(), A3.into()],
        vec![ACTION_A2.into(), A4.into()],
        l004.map(String::from).to_vec(),
        vec![
            "a[Time.quarter, URL.domain] o[URL.domain_grp = .com AND Time.quarter <= 1999Q4](O)"
                .into(),
            "a[Time.month, URL.domain_grp] o[URL.domain_grp = .edu AND Time.month <= 1999/12](O)"
                .into(),
        ],
        vec![
            "a[Time.month, URL.domain] o[Time.month <= 1999/12](O)".into(),
            "a[Time.quarter, URL.domain_grp] o[Time.quarter <= 1999Q4](O)".into(),
        ],
        vec![
            "a[Time.month, URL.domain] o[URL.domain_grp = .com AND Time.month <= 1999/6](O)".into(),
            "a[Time.quarter, URL.domain] o[URL.domain_grp = .com AND Time.quarter <= 1999Q4](O)"
                .into(),
        ],
        vec![
            "a[Time.month, URL.domain] o[Time.month = 1999/12 AND Time.month > NOW - 6 months](O)"
                .into(),
            "a[Time.quarter, URL.domain] o[Time.quarter <= NOW - 2 quarters](O)".into(),
            l004[0].into(),
            l004[1].into(),
        ],
        vec!["a[Time.quarter, URL.domain_grp] o[Time.quarter <= NOW - 2 quarters](O)".into()],
        retention_policy(6, 36),
        tiered_policy(2, 3),
    ];
    let mut verdicts: Vec<Option<ReduceError>> = pool.iter().map(|s| agree(&paper, s)).collect();

    // Tiered, prover-heavy and retention policies with seeded crossings
    // and gaps, in shuffled order.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        horizon: ((1998, 1, 1), (2002, 12, 31)),
        ..Default::default()
    });
    let grps = [".com", ".edu", ".org", ".net"];
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut srcs = match rng.random_range(0..4u32) {
            0 => tiered_policy(rng.random_range(1..=4), rng.random_range(1..=3)),
            1 => prover_heavy_policy(rng.random_range(2..=4)),
            2 => retention_policy(6, 36),
            // A gap: the quarter tier starts catching a quarter late.
            _ => vec![
                retention_policy(6, 36)[0].clone(),
                "p(a[Time.quarter, URL.domain_grp] o[Time.quarter <= NOW - 13 quarters](O))".into(),
            ],
        };
        for _ in 0..rng.random_range(0..=2u32) {
            let g = grps[rng.random_range(0..grps.len())];
            let (k, lo) = (rng.random_range(1..=30u32), rng.random_range(1..=6u32));
            srcs.push(match rng.random_range(0..4u32) {
                0 => format!(
                    "p(a[Time.month, URL.domain_grp] o[URL.domain_grp = {g} AND \
                     Time.month <= NOW - {k} months](O))"
                ),
                1 => format!(
                    "p(a[Time.week, URL.domain] o[URL.domain_grp = {g} AND \
                     Time.week <= NOW - {k} weeks](O))"
                ),
                2 => format!(
                    "p(a[Time.month, URL.domain] o[URL.domain_grp = {g} AND \
                     NOW - {} months < Time.month <= NOW - {lo} months](O))",
                    lo + k
                ),
                _ => format!(
                    "p(a[Time.quarter, URL.domain_grp] o[URL.domain_grp = {g} AND \
                     Time.quarter <= NOW - {} quarters](O))",
                    k / 3 + 1
                ),
            });
        }
        for i in (1..srcs.len()).rev() {
            srcs.swap(i, rng.random_range(0..=i));
        }
        verdicts.push(agree(&cs.schema, &srcs));
    }
    // Not vacuous: every verdict occurs.
    let count = |f: fn(&Option<ReduceError>) -> bool| verdicts.iter().filter(|v| f(v)).count();
    let crossing = count(|v| matches!(v, Some(ReduceError::NotNonCrossing { .. })));
    let growing = count(|v| matches!(v, Some(ReduceError::NotGrowing { .. })));
    let sound = count(Option::is_none);
    assert!(
        crossing > 2 && growing > 2 && sound > 2,
        "{crossing} {growing} {sound}"
    );
}
