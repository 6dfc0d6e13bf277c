//! # sdr-workload — datasets and generators for the experiments
//!
//! * [`paper`] — the paper's running example (Section 2, Appendix A): the
//!   seven-fact ISP click-stream MO and the example actions a1/a2, used by
//!   every figure-exact test;
//! * [`gen`] — seeded synthetic click-stream generation at configurable
//!   scale (the substitution for the paper's production warehouse, see
//!   `DESIGN.md`), plus retention-policy and spec-scaling generators for
//!   the benchmark harness.

#![warn(missing_docs)]

pub mod aging;
pub mod concurrent;
pub mod gen;
pub mod paper;
pub mod retail;
pub mod sessions;

pub use aging::{aging_script, daily_script, AgingScript, DailyOp, DailyScript};
pub use concurrent::{churn_script, ChurnOp, SplitMix64, CHURN_ACTION};
pub use gen::{
    generate, prover_heavy_policy, retention_policy, tiered_policy, Clickstream, ClickstreamConfig,
    SimClock, UrlCatIds,
};
pub use paper::{paper_mo, paper_schema, snapshot_days, UrlCats, ACTION_A1, ACTION_A2};
pub use retail::{generate_retail, retail_policy, Retail, RetailCats, RetailConfig};
pub use sessions::{generate_sessions, SessionConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::{DimId, MeasureId};

    #[test]
    fn paper_mo_matches_table_2() {
        let (mo, _) = paper_mo();
        assert_eq!(mo.len(), 7);
        // Total dwell time across all facts: 677+2335+154+12+654+301+32.
        let total: i64 = mo.facts().map(|f| mo.measure(f, MeasureId(1))).sum();
        assert_eq!(total, 4165);
        // fact_1 renders with the paper's values.
        let f1 = sdr_mdm::FactId(1);
        assert_eq!(
            mo.render_fact(f1),
            "fact(1999/12/4, http://www.cnn.com/health | 1, 2335, 5, 52000)"
        );
        // All facts are at the bottom granularity.
        for f in mo.facts() {
            assert_eq!(mo.gran(f), mo.schema().bottom_granularity());
        }
    }

    #[test]
    fn paper_actions_parse() {
        let (schema, _) = paper_schema();
        let a1 = sdr_spec::parse_action(&schema, ACTION_A1).unwrap();
        let a2 = sdr_spec::parse_action(&schema, ACTION_A2).unwrap();
        assert!(a1.leq_v(&a2, &schema));
    }

    #[test]
    fn generator_is_deterministic_and_scaled() {
        let cfg = ClickstreamConfig {
            clicks_per_day: 20,
            start: (2000, 1, 1),
            end: (2000, 1, 31),
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.mo.len(), b.mo.len());
        assert!(
            a.mo.len() >= 31 * 15 && a.mo.len() <= 31 * 25,
            "{}",
            a.mo.len()
        );
        // Same facts in the same order.
        for f in a.mo.facts().take(50) {
            assert_eq!(a.mo.coords(f), b.mo.coords(f));
            assert_eq!(a.mo.measures_of(f), b.mo.measures_of(f));
        }
        // URL dimension has the configured shape.
        let sdr_mdm::Dimension::Enum(e) = a.schema.dim(DimId(1)) else {
            unreachable!()
        };
        assert_eq!(e.cardinality(a.url_cats.domain_grp), 4);
        assert_eq!(e.cardinality(a.url_cats.domain), 32);
        assert_eq!(e.cardinality(a.url_cats.url), 512);
    }

    #[test]
    fn zipf_skews_popularity() {
        let cfg = ClickstreamConfig {
            clicks_per_day: 200,
            start: (2000, 1, 1),
            end: (2000, 2, 29),
            zipf_s: 1.2,
            ..Default::default()
        };
        let c = generate(&cfg);
        let mut counts = std::collections::HashMap::<u64, usize>::new();
        for f in c.mo.facts() {
            *counts.entry(c.mo.value(f, DimId(1)).code).or_default() += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular URL dominates the median one.
        assert!(by_count[0] > 10 * by_count[by_count.len() / 2]);
    }

    #[test]
    fn policies_parse_against_generated_schema() {
        let c = generate(&ClickstreamConfig {
            clicks_per_day: 0,
            ..Default::default()
        });
        for src in retention_policy(6, 36) {
            sdr_spec::parse_action(&c.schema, &src).unwrap();
        }
        for src in tiered_policy(4, 3) {
            sdr_spec::parse_action(&c.schema, &src).unwrap();
        }
        for src in prover_heavy_policy(4) {
            sdr_spec::parse_action(&c.schema, &src).unwrap();
        }
    }

    #[test]
    fn sim_clock_advances() {
        let mut clk = SimClock::at(2000, 1, 31);
        let d = clk.advance(sdr_mdm::Span::new(1, sdr_mdm::TimeUnit::Month));
        assert_eq!(sdr_mdm::calendar::civil_from_days(d), (2000, 2, 29));
    }
}
