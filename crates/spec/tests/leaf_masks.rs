//! The leaf-mask plan against the predicates it lays out: on every cell,
//! its verdict is the one `CompiledPred::eval_cell` gives, with the bit
//! layout (the retention policy's Δ pairs) and without it (a predicate
//! of more than 64 leaves).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sdr_mdm::{
    calendar::days_from_civil, time_cat as tc, DayNum, DimValue, Dimension, FactStore, Schema,
    TimeValue,
};
use sdr_reduce::DataReductionSpec;
use sdr_spec::{parse_action, parse_pexp, CompiledPred, LeafMaskPlan, Pexp};
use sdr_workload::{generate, retention_policy, ClickstreamConfig};

/// The click-stream schema over 1998–2006 and, for every transition day
/// of `retention_policy(6, 36)` from 1999 to 2006, the day and the Δ
/// predicate of the tick that ends on it.
struct Fixture {
    schema: Arc<Schema>,
    deltas: Vec<(DayNum, Pexp)>,
    first_day: DayNum,
    n_days: i32,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let cs = generate(&ClickstreamConfig {
            clicks_per_day: 0,
            horizon: ((1998, 1, 1), (2006, 12, 31)),
            ..Default::default()
        });
        let actions = retention_policy(6, 36)
            .iter()
            .map(|s| parse_action(&cs.schema, s).unwrap())
            .collect();
        let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
        let (lo, hi) = (days_from_civil(1999, 1, 1), days_from_civil(2006, 12, 31));
        let deltas: Vec<(DayNum, Pexp)> = spec
            .schedule()
            .transitions_between(lo - 1, hi)
            .into_iter()
            .filter_map(|t| Some((t, spec.schedule().delta_pred(t - 1, t)?)))
            .collect();
        assert!(deltas.len() > 90, "{} transition days", deltas.len());
        let first_day = days_from_civil(1998, 1, 1);
        Fixture {
            schema: cs.schema,
            deltas,
            first_day,
            n_days: hi - first_day + 1,
        }
    })
}

/// Every cell `(day, url)` rolls up to: one per combination of a time
/// and a URL category.
fn cells(schema: &Schema, day: DayNum, url: u64) -> Vec<Vec<DimValue>> {
    let (time, urls) = (&schema.dims[0], &schema.dims[1]);
    let day = DimValue::new(tc::DAY, TimeValue::Day(day).code());
    let url = DimValue::new(urls.graph().bottom(), url);
    let mut out = Vec::new();
    for tcat in time.graph().all() {
        for ucat in urls.graph().all() {
            out.push(vec![
                time.rollup(day, tcat).unwrap(),
                urls.rollup(url, ucat).unwrap(),
            ]);
        }
    }
    out
}

/// The number of bottom URLs of the click-stream schema.
fn n_urls(schema: &Schema) -> u64 {
    match &schema.dims[1] {
        Dimension::Enum(e) => e.values(e.graph().bottom()).count() as u64,
        Dimension::Time(_) => unreachable!("URL is enumerated"),
    }
}

/// `cells` as rows of one store.
fn store_of(schema: &Schema, cells: &[Vec<DimValue>]) -> FactStore {
    let mut store = FactStore::new(schema.n_dims(), schema.n_measures());
    let zeros = vec![0; schema.n_measures()];
    for c in cells {
        store.push(c, &zeros, 0);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each Δ pair — the changed disjuncts compiled at the day before a
    /// transition and at the transition — laid out in one plan: a row
    /// passes iff `eval_cell` holds at either day, and `holding` names
    /// exactly the days at which it does; the run forms (`any_rows`,
    /// `holding_rows`) over every row agree row for row.
    #[test]
    fn delta_pair_masks_agree_with_eval_cell(
        picks in proptest::collection::vec((0i32..1_000_000, 0u64..1_000_000), 1..6)
    ) {
        let fx = fixture();
        let schema = &*fx.schema;
        let cells: Vec<Vec<DimValue>> = picks
            .iter()
            .flat_map(|&(d, u)| {
                cells(schema, fx.first_day + d % fx.n_days, u % n_urls(schema))
            })
            .collect();
        let store = store_of(schema, &cells);
        for (t, delta) in &fx.deltas {
            let at_prev = CompiledPred::compile(schema, delta, t - 1).unwrap();
            let at_t = CompiledPred::compile(schema, delta, *t).unwrap();
            let mut plan = LeafMaskPlan::new(vec![at_prev.clone(), at_t.clone()]);
            prop_assert!(plan.is_masked());
            let rows: Vec<u32> = (0..cells.len() as u32).collect();
            let (mut passing, mut held) = (Vec::new(), Vec::new());
            plan.any_rows(schema, &store, &rows, &mut passing).unwrap();
            plan.holding_rows(schema, &store, &rows, &mut held).unwrap();
            for (row, cell) in cells.iter().enumerate() {
                let prev = at_prev.eval_cell(schema, cell).unwrap();
                let now = at_t.eval_cell(schema, cell).unwrap();
                let any = plan.any_row(schema, &store, row).unwrap();
                prop_assert_eq!(any, prev || now, "day {} cell {:?}", t, cell);
                prop_assert_eq!(passing.contains(&(row as u32)), any);
                let holding = plan.holding(schema, cell).unwrap();
                prop_assert_eq!(holding, u64::from(prev) | u64::from(now) << 1);
                prop_assert_eq!(held[row], holding);
            }
        }
    }
}

/// A predicate of more than 64 leaves has no bit layout: the plan takes
/// the row-by-row path and still agrees with `eval_cell`.
#[test]
fn wide_predicates_take_the_row_by_row_path() {
    let fx = fixture();
    let schema = &*fx.schema;
    let src = (1..=40)
        .map(|k| format!("(URL.domain_grp = .com AND Time.month <= NOW - {k} months)"))
        .collect::<Vec<_>>()
        .join(" OR ");
    let wide = parse_pexp(schema, &src).unwrap();
    let (t, delta) = &fx.deltas[fx.deltas.len() / 2];
    let preds = vec![
        CompiledPred::compile(schema, &wide, *t).unwrap(),
        CompiledPred::compile(schema, delta, *t).unwrap(),
    ];
    let mut plan = LeafMaskPlan::new(preds.clone());
    assert!(!plan.is_masked(), "80 leaves fit no 64-bit layout");
    let mut row_cells = Vec::new();
    for d in (0..fx.n_days).step_by(37) {
        for u in (0..n_urls(schema)).step_by(29) {
            row_cells.extend(cells(schema, fx.first_day + d, u));
        }
    }
    let store = store_of(schema, &row_cells);
    let rows: Vec<u32> = (0..row_cells.len() as u32).collect();
    let (mut passing, mut holding_rows) = (Vec::new(), Vec::new());
    plan.any_rows(schema, &store, &rows, &mut passing).unwrap();
    plan.holding_rows(schema, &store, &rows, &mut holding_rows)
        .unwrap();
    let (mut held, mut missed) = (0, 0);
    for (row, cell) in row_cells.iter().enumerate() {
        let each: Vec<bool> = preds
            .iter()
            .map(|p| p.eval_cell(schema, cell).unwrap())
            .collect();
        let any = plan.any_row(schema, &store, row).unwrap();
        assert_eq!(any, each.iter().any(|&b| b), "{cell:?}");
        let holding = plan.holding(schema, cell).unwrap();
        assert_eq!(holding, u64::from(each[0]) | u64::from(each[1]) << 1);
        assert_eq!(passing.contains(&(row as u32)), any, "{cell:?}");
        assert_eq!(holding_rows[row], holding, "{cell:?}");
        if any {
            held += 1;
        } else {
            missed += 1;
        }
    }
    assert!(held > 0 && missed > 0, "held={held} missed={missed}");
}
