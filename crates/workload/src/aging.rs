//! Seeded long-horizon aging scenarios for the continuous-aging
//! differential harness (`tests/aging.rs`).
//!
//! Each script pairs 3+ years of day-granularity clicks with a random
//! *sound* retention policy (NonCrossing + Growing by construction —
//! drawn from the generator families in [`gen`](crate::gen), never from
//! unconstrained random predicates), so the harness can age the
//! warehouse through every scheduled transition day and compare against
//! a from-scratch reduction at each one. Everything is a pure function
//! of the seed.
//!
//! [`daily_script`] is the write path's shape instead: one `Load` and one
//! `Age` per simulated day, with the irregularities a real loader
//! produces — facts that arrive months late, a day delivered in two
//! loads, a day whose aging is skipped.

use std::sync::Arc;

use sdr_mdm::{calendar::days_from_civil, DayNum, Mo, Schema};

use crate::concurrent::SplitMix64;
use crate::gen::{
    generate, prover_heavy_policy, retention_policy, tiered_policy, Clickstream, ClickstreamConfig,
};

/// A seeded aging scenario: data, policy, and the harness's day bounds.
pub struct AgingScript {
    /// The generated warehouse: 3+ years of clicks at day granularity.
    pub cs: Clickstream,
    /// The policy's action sources (parse against `cs.schema`).
    pub actions: Vec<String>,
    /// The last day clicks were generated for — the harness's baseline
    /// synchronization day.
    pub data_end: DayNum,
    /// The day the harness ages to — far enough past the data that the
    /// whole policy has swept over every fact.
    pub horizon_end: DayNum,
}

/// Builds the scenario for `seed`. The click volume is kept small (a few
/// clicks per day over ~3.5 years) so a differential check at *every*
/// transition day stays cheap; the policy family, window widths, and
/// data span all vary with the seed.
pub fn aging_script(seed: u64) -> AgingScript {
    let mut rng = SplitMix64(seed ^ 0xA61B_5C71_97E0_D111);
    // 38..=49 months of data: always longer than 3 years.
    let months = 38 + rng.below(12) as u32;
    let clicks_per_day = 3 + rng.below(4) as usize;
    let end_total = 12 * 1999 + months as i32 - 1;
    let (ey, em) = (end_total / 12, (end_total % 12 + 1) as u32);
    let cs = generate(&ClickstreamConfig {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        clicks_per_day,
        start: (1999, 1, 1),
        end: (ey, em, 28),
        ..Default::default()
    });
    let actions = match rng.below(3) {
        0 => {
            // Two-tier retention with seeded window widths. The month
            // window must stay quarter-aligned for Growing.
            let raw = 3 + rng.below(6) as u32;
            let mm = *[12u32, 18, 24, 36]
                .iter()
                .find(|&&m| m > raw && rng.below(2) == 0)
                .unwrap_or(&36);
            retention_policy(raw, mm)
        }
        1 => tiered_policy(1 + rng.below(4) as usize, 1 + rng.below(3) as usize),
        _ => prover_heavy_policy(2 + rng.below(5) as usize),
    };
    AgingScript {
        cs,
        actions,
        data_end: days_from_civil(ey, em, 28),
        horizon_end: days_from_civil(2005, 6, 28),
    }
}

/// One step of a [`DailyScript`], in application order.
#[derive(Debug, Clone)]
pub enum DailyOp {
    /// Bulk-load these bottom-granularity clicks.
    Load(Mo),
    /// Age the warehouse to this day.
    Age(DayNum),
}

/// A seeded day-by-day ingest scenario: alternating loads and agings
/// under a two-tier retention policy (see [`daily_script`]).
pub struct DailyScript {
    /// The schema every load is over.
    pub schema: Arc<Schema>,
    /// The policy's action sources (parse against `schema`).
    pub actions: Vec<String>,
    /// The steps: for each simulated day its load(s), then usually an
    /// `Age` to that day.
    pub ops: Vec<DailyOp>,
}

/// Builds `days` simulated days (from 1999/01/01) of a few clicks each
/// under `retention_policy(raw, 12)`, so that over 400+ days facts pass
/// from the raw tier through month × domain into quarter × group.
/// Irregularities, all seeded: about one day in seven also delivers up to
/// three **late** copies of clicks at least 70 days old (their home is
/// already a month or quarter cube); about one in nine arrives as **two
/// loads** before its `Age`; about one in eleven has **no `Age`**, so the
/// next day's covers two days of loads. The policy is month-granular:
/// most `Age` steps have no transition in range.
pub fn daily_script(seed: u64, days: usize) -> DailyScript {
    let mut rng = SplitMix64(seed ^ 0xD41C_7A6E_0B5E_55ED);
    let start = days_from_civil(1999, 1, 1);
    let last = sdr_mdm::calendar::civil_from_days(start + days as DayNum - 1);
    let cs = generate(&ClickstreamConfig {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        clicks_per_day: 6 + rng.below(4) as usize,
        start: (1999, 1, 1),
        end: last,
        ..Default::default()
    });
    let day_rows = cs.rows_by_day(start, days);
    let mut ops = Vec::with_capacity(2 * days);
    for (i, today) in day_rows.iter().enumerate() {
        let mut rows = today.clone();
        if i >= 120 && rng.below(7) == 0 {
            for _ in 0..=rng.below(3) {
                let old = &day_rows[rng.below((i - 70) as u64) as usize];
                if !old.is_empty() {
                    rows.push(old[rng.below(old.len() as u64) as usize]);
                }
            }
        }
        if rows.len() >= 2 && rng.below(9) == 0 {
            let (a, b) = rows.split_at(rows.len() / 2);
            ops.push(DailyOp::Load(cs.mo.gather(a)));
            ops.push(DailyOp::Load(cs.mo.gather(b)));
        } else {
            ops.push(DailyOp::Load(cs.mo.gather(&rows)));
        }
        if i + 1 == days || rng.below(11) != 0 {
            ops.push(DailyOp::Age(start + i as DayNum));
        }
    }
    DailyScript {
        schema: cs.schema,
        actions: retention_policy(2 + rng.below(2) as u32, 12),
        ops,
    }
}
