//! Synthetic click-stream generation.
//!
//! The paper motivates reduction with terabyte-scale ISP click-stream
//! warehouses we obviously cannot ship; this generator produces the same
//! *shape* of data at configurable scale: a URL hierarchy
//! (`url < domain < domain_grp < ⊤`) with Zipf-distributed popularity and
//! a stream of clicks over a simulated calendar (see `DESIGN.md`,
//! *Substitutions*). Everything is seeded and deterministic.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdr_mdm::{
    calendar::days_from_civil, time_cat, AggFn, CatGraph, CatId, DayNum, DimValue, Dimension,
    EnumDimensionBuilder, MeasureDef, Mo, Schema, TimeDimension, TimeValue,
};

/// Configuration for the synthetic ISP click-stream.
#[derive(Debug, Clone)]
pub struct ClickstreamConfig {
    /// RNG seed (all output is a pure function of the config).
    pub seed: u64,
    /// Top-level domain groups (e.g. 4 → `.com .edu .org .net`).
    pub n_domain_grps: usize,
    /// Domains per group.
    pub domains_per_grp: usize,
    /// URLs per domain.
    pub urls_per_domain: usize,
    /// First day clicks are generated for (inclusive).
    pub start: (i32, u32, u32),
    /// Last day clicks are generated for (inclusive).
    pub end: (i32, u32, u32),
    /// Mean clicks per day.
    pub clicks_per_day: usize,
    /// Zipf skew of URL popularity (0 = uniform; 1 ≈ web-like).
    pub zipf_s: f64,
    /// Schema horizon start (must contain `start..=end`; also bounds the
    /// `NOW` values the experiments sweep).
    pub horizon: ((i32, u32, u32), (i32, u32, u32)),
}

impl Default for ClickstreamConfig {
    fn default() -> Self {
        ClickstreamConfig {
            seed: 0xC11C_57EA,
            n_domain_grps: 4,
            domains_per_grp: 8,
            urls_per_domain: 16,
            start: (1999, 1, 1),
            end: (2000, 12, 31),
            clicks_per_day: 100,
            zipf_s: 1.0,
            horizon: ((1998, 1, 1), (2005, 12, 31)),
        }
    }
}

/// A generated click-stream warehouse.
pub struct Clickstream {
    /// The generated MO (facts at bottom granularity).
    pub mo: Mo,
    /// The schema (Time × URL with four SUM measures, as in the paper).
    pub schema: Arc<Schema>,
    /// Category handles into the URL dimension.
    pub url_cats: UrlCatIds,
}

impl Clickstream {
    /// The fact rows of each of the `days` days from `start`, in row
    /// order (the generator emits facts day by day, so each day is one
    /// contiguous run) — what a day-by-day loader hands to `gather`.
    pub fn rows_by_day(&self, start: DayNum, days: usize) -> Vec<Vec<u32>> {
        let mut by_day = vec![Vec::new(); days];
        for f in self.mo.facts() {
            let code = self.mo.value(f, sdr_mdm::DimId(0)).code;
            let Ok(TimeValue::Day(d)) = TimeValue::from_code(time_cat::DAY, code) else {
                panic!("generated fact is not day-granular");
            };
            by_day[(d - start) as usize].push(f.0);
        }
        by_day
    }
}

/// Category ids of the generated URL dimension.
#[derive(Debug, Clone, Copy)]
pub struct UrlCatIds {
    /// Bottom category (`url`).
    pub url: CatId,
    /// `domain`.
    pub domain: CatId,
    /// `domain_grp`.
    pub domain_grp: CatId,
}

/// Names used for generated domain groups (cycled when more are needed).
const GRP_NAMES: [&str; 8] = [
    ".com", ".edu", ".org", ".net", ".gov", ".io", ".info", ".biz",
];

/// The name of domain group `gi`.
fn grp_name(gi: usize) -> String {
    GRP_NAMES
        .get(gi)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!(".tld{gi}"))
}

/// Generates a deterministic click-stream warehouse from `cfg`.
pub fn generate(cfg: &ClickstreamConfig) -> Clickstream {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let time =
        Dimension::Time(TimeDimension::new(cfg.horizon.0, cfg.horizon.1).expect("valid horizon"));
    let g = CatGraph::new(
        vec!["url", "domain", "domain_grp", "T"],
        &[
            ("url", "domain"),
            ("domain", "domain_grp"),
            ("domain_grp", "T"),
        ],
    )
    .unwrap();
    let cats = UrlCatIds {
        url: g.by_name("url").unwrap(),
        domain: g.by_name("domain").unwrap(),
        domain_grp: g.by_name("domain_grp").unwrap(),
    };
    let mut b = EnumDimensionBuilder::new("URL", g);
    let mut url_values: Vec<DimValue> = Vec::new();
    for gi in 0..cfg.n_domain_grps {
        let grp = grp_name(gi);
        b.add_value(cats.domain_grp, &grp, &[]).unwrap();
        for di in 0..cfg.domains_per_grp {
            let dom = format!("site{gi}-{di}{grp}");
            b.add_value(cats.domain, &dom, &[(cats.domain_grp, &grp)])
                .unwrap();
            for ui in 0..cfg.urls_per_domain {
                let url = format!("http://www.{dom}/page/{ui}");
                let id = b.add_value(cats.url, &url, &[(cats.domain, &dom)]).unwrap();
                url_values.push(DimValue::new(cats.url, id as u64));
            }
        }
    }
    let schema = Schema::new(
        "Click",
        vec![time, Dimension::Enum(b.build().unwrap())],
        vec![
            MeasureDef::new("Number_of", AggFn::Count),
            MeasureDef::new("Dwell_time", AggFn::Sum),
            MeasureDef::new("Delivery_time", AggFn::Sum),
            MeasureDef::new("Datasize", AggFn::Sum),
        ],
    )
    .unwrap();

    // Zipf sampler over URL ranks: inverse-CDF on precomputed cumulative
    // weights (rand has no Zipf in core; this is exact and cheap).
    let n = url_values.len();
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(cfg.zipf_s);
        cum.push(total);
    }
    let sample_url = move |rng: &mut StdRng| -> DimValue {
        let x = rng.random::<f64>() * total;
        let idx = cum.partition_point(|&c| c < x).min(n - 1);
        url_values[idx]
    };

    let start = days_from_civil(cfg.start.0, cfg.start.1, cfg.start.2);
    let end = days_from_civil(cfg.end.0, cfg.end.1, cfg.end.2);
    let mut mo = Mo::new(Arc::clone(&schema));
    for d in start..=end {
        // Mild day-to-day variation: 75%–125% of the mean.
        let k = cfg.clicks_per_day;
        let today = if k == 0 {
            0
        } else {
            k * 3 / 4 + rng.random_range(0..=k / 2)
        };
        let dayv = DimValue::new(time_cat::DAY, TimeValue::Day(d).code());
        for _ in 0..today {
            let u = sample_url(&mut rng);
            let dwell = 1 + (rng.random::<f64>().powi(2) * 600.0) as i64;
            let delivery = rng.random_range(1..=10);
            let datasize = rng.random_range(1_000..=100_000);
            mo.insert_fact(&[dayv, u], &[1, dwell, delivery, datasize])
                .expect("generated fact is valid");
        }
    }
    Clickstream {
        mo,
        schema,
        url_cats: cats,
    }
}

/// A simulated clock for experiments: the current `NOW` day, advanced by
/// spans. All reduction and query entry points take explicit days, so the
/// clock is just a convenience for driving experiments.
#[derive(Debug, Clone, Copy)]
pub struct SimClock {
    /// The current day.
    pub today: DayNum,
}

impl SimClock {
    /// Starts the clock at a civil date.
    pub fn at(y: i32, m: u32, d: u32) -> Self {
        SimClock {
            today: days_from_civil(y, m, d),
        }
    }

    /// Advances by a span and returns the new day.
    pub fn advance(&mut self, span: sdr_mdm::Span) -> DayNum {
        self.today = sdr_mdm::time::shift_day(self.today, span, 1);
        self.today
    }
}

/// The standard retention policy used by the storage-gain experiment (E1):
/// keep raw clicks for `raw_months`, month×domain summaries until
/// `month_months`, and quarter×domain-group summaries forever after.
///
/// The window boundaries are aligned (both in whole quarters) so the
/// policy is Growing: everything falling off the month-level window is
/// caught by the quarter-level action.
pub fn retention_policy(raw_months: u32, month_months: u32) -> Vec<String> {
    assert!(raw_months < month_months);
    assert_eq!(month_months % 3, 0, "month window must align to quarters");
    let q = month_months / 3;
    vec![
        format!(
            "p(a[Time.month, URL.domain] o[NOW - {month_months} months < Time.month <= NOW - {raw_months} months](O))"
        ),
        format!("p(a[Time.quarter, URL.domain_grp] o[Time.quarter <= NOW - {q} quarters](O))"),
    ]
}

/// A policy whose pairwise NonCrossing checks cannot take the syntactic
/// fast path: alternating groups aggregate to *unordered* granularities
/// ((quarter, domain) vs (month, domain_grp)), so every cross-pair forces
/// the prover to verify that the per-group predicates never overlap.
/// Used by the E2 benchmark to measure the grounding path.
pub fn prover_heavy_policy(n_grps: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n_grps);
    for gi in 0..n_grps {
        let grp = grp_name(gi);
        let (grain, window) = if gi % 2 == 0 {
            (
                "Time.quarter, URL.domain",
                "Time.quarter <= NOW - 8 quarters",
            )
        } else {
            (
                "Time.month, URL.domain_grp",
                "Time.month <= NOW - 24 months",
            )
        };
        out.push(format!(
            "p(a[{grain}] o[URL.domain_grp = {grp} AND {window}](O))"
        ));
    }
    out
}

/// A tiered per-domain-group policy generator used by the specification
/// -check scaling benchmark (E2/E3): `n_grps × n_tiers` actions, pairwise
/// NonCrossing (tiers are ordered; different groups never overlap).
pub fn tiered_policy(n_grps: usize, n_tiers: usize) -> Vec<String> {
    assert!(n_tiers <= 3, "hierarchy supports three aggregation tiers");
    let tiers = [
        ("Time.month, URL.domain", "Time.month <= NOW - 6 months"),
        (
            "Time.quarter, URL.domain",
            "Time.quarter <= NOW - 8 quarters",
        ),
        ("Time.year, URL.domain_grp", "Time.year <= NOW - 4 years"),
    ];
    let mut out = Vec::new();
    for gi in 0..n_grps {
        let grp = grp_name(gi);
        for (grain, window) in tiers.iter().take(n_tiers) {
            out.push(format!(
                "p(a[{grain}] o[URL.domain_grp = {grp} AND {window}](O))"
            ));
        }
    }
    out
}
