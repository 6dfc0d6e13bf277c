//! Request mix `mix-v1`: named query classes, each chosen because a
//! different layer dominates its cost, drawn by seeded weight.

use sdr_mdm::calendar::civil_from_days;
use sdr_mdm::DayNum;
use sdr_workload::SplitMix64;
use specdr::serve::{self, QuerySpec, REQ_PING};

/// One class of `mix-v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub name: &'static str,
    /// Share of requests, in percent.
    pub weight: u32,
}

/// The classes, in a fixed order (indices are stable across the crate).
///
/// * `full_month_domain` — no predicate, every cube scanned, the largest
///   response body: response assembly dominates.
/// * `grp_quarter` — an enum predicate the planner cannot prune on: the
///   raw-cube scan dominates.
/// * `old_year_lub` — an old time window, LUB approach: the planner
///   skips the raw cube.
/// * `recent_days` — the 8 days up to the pre-load's last day at
///   day × domain: only the raw cube contributes.
/// * `weighted_mixed` — weighted selection with a month predicate that
///   cuts through coarser-than-month rows.
/// * `unsync_month` — `query_unsync` 45 days ahead of the last
///   synchronization: reduce-on-read.
/// * `ping` — the protocol floor.
///
/// The un-synchronized class costs ~20× the others, so it is kept rare:
/// at 2 % of requests (2.2 % of the non-ping ones) it is still the whole
/// tail, and the p99 falls near the *middle* of its latencies, where
/// they are dense, not in their own tail — that keeps the p99 steady.
pub const CLASSES: [Class; 7] = [
    Class {
        name: "full_month_domain",
        weight: 10,
    },
    Class {
        name: "grp_quarter",
        weight: 20,
    },
    Class {
        name: "old_year_lub",
        weight: 20,
    },
    Class {
        name: "recent_days",
        weight: 25,
    },
    Class {
        name: "weighted_mixed",
        weight: 15,
    },
    Class {
        name: "unsync_month",
        weight: 2,
    },
    Class {
        name: "ping",
        weight: 8,
    },
];

/// Index of the `ping` class.
pub const PING: usize = 6;
/// Index of the `unsync_month` class.
pub const UNSYNC: usize = 5;

/// The mix instantiated for one warehouse state.
pub struct Mix {
    /// The textual query of each class (`None` for `ping`).
    pub specs: Vec<Option<QuerySpec>>,
    /// The request frame payload of each class, encoded once.
    pub payloads: Vec<Vec<u8>>,
}

impl Mix {
    /// Builds the mix for a warehouse synchronized to `now`; the
    /// un-synchronized class evaluates at `unsync_now`. Literals are
    /// absolute dates derived from `now`, so a state that keeps moving
    /// (read_churn) is asked the same questions throughout.
    pub fn new(now: DayNum, unsync_now: DayNum) -> Mix {
        let (ny, nm, nd) = civil_from_days(now);
        let (ry, rm, rd) = civil_from_days(now - 7);
        let q = |pred: Option<String>, mode: &str, levels: &str, approach: &str| QuerySpec {
            pred,
            mode: mode.into(),
            levels: levels.into(),
            approach: approach.into(),
            now,
            unsync: false,
        };
        let specs = vec![
            Some(q(
                None,
                "conservative",
                "Time.month,URL.domain",
                "availability",
            )),
            Some(q(
                Some("URL.domain_grp = .com".into()),
                "conservative",
                "Time.quarter,URL.domain_grp",
                "availability",
            )),
            Some(q(
                Some(format!("Time.year <= {}", ny - 2)),
                "liberal",
                "Time.year,URL.domain_grp",
                "lub",
            )),
            Some(q(
                Some(format!(
                    "Time.day >= {ry}/{rm}/{rd} AND Time.day <= {ny}/{nm}/{nd}"
                )),
                "conservative",
                "Time.day,URL.domain",
                "availability",
            )),
            Some(q(
                // 1999/8 sits mid-quarter: once 1999 has reached the
                // quarter tier, 1999Q3 rows satisfy it only partially.
                Some("URL.domain_grp = .com AND Time.month <= 1999/8".into()),
                "weighted:0.5",
                "Time.quarter,URL.domain",
                "availability",
            )),
            Some(QuerySpec {
                now: unsync_now,
                unsync: true,
                ..q(
                    None,
                    "conservative",
                    "Time.month,URL.domain_grp",
                    "availability",
                )
            }),
            None,
        ];
        let payloads = specs
            .iter()
            .map(|s| match s {
                Some(spec) => serve::query_payload(spec),
                None => vec![REQ_PING],
            })
            .collect();
        Mix { specs, payloads }
    }

    /// The query classes (everything but `ping`) with their specs.
    pub fn queries(&self) -> impl Iterator<Item = (usize, &QuerySpec)> {
        self.specs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
    }
}

/// The per-connection request stream of `seed`: class indices dealt from
/// a seeded, shuffled deck holding each class `weight` times, reshuffled
/// when it runs out. Every 100 consecutive requests therefore hold the
/// classes in exactly the mix's proportions — the order is random, the
/// composition of a measured slice is not, so a run's throughput does not
/// depend on how many expensive requests it happened to draw.
pub struct Draw {
    rng: SplitMix64,
    deck: Vec<u8>,
    next: usize,
}

impl Draw {
    pub fn new(seed: u64, connection: u64) -> Draw {
        let deck: Vec<u8> = CLASSES
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i as u8, c.weight as usize))
            .collect();
        Draw {
            rng: SplitMix64(
                seed ^ 0x6D69_782D_7631 ^ connection.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            next: deck.len(),
            deck,
        }
    }

    pub fn next_class(&mut self) -> usize {
        if self.next == self.deck.len() {
            // Fisher–Yates.
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1] as usize
    }
}

/// FNV-1a over the first `n` classes connection 0 of `seed` requests —
/// equal seeds must give equal request sequences.
pub fn sequence_digest(seed: u64, n: usize) -> u64 {
    let mut draw = Draw::new(seed, 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..n {
        h ^= draw.next_class() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_hundred_and_indices_line_up() {
        assert_eq!(CLASSES.iter().map(|c| c.weight).sum::<u32>(), 100);
        assert_eq!(CLASSES[PING].name, "ping");
        assert_eq!(CLASSES[UNSYNC].name, "unsync_month");
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(sequence_digest(7, 10_000), sequence_digest(7, 10_000));
        assert_ne!(sequence_digest(7, 10_000), sequence_digest(8, 10_000));
        // Connections of one seed draw different streams.
        let (mut a, mut b) = (Draw::new(7, 0), Draw::new(7, 1));
        let same = (0..1000)
            .filter(|_| a.next_class() == b.next_class())
            .count();
        assert!(same < 900, "connection streams coincide: {same}/1000");
    }

    #[test]
    fn every_hundred_draws_hold_the_mix_exactly() {
        let mut draw = Draw::new(42, 0);
        let mut orders = Vec::new();
        for _ in 0..50 {
            let deal: Vec<usize> = (0..100).map(|_| draw.next_class()).collect();
            for (i, c) in CLASSES.iter().enumerate() {
                let dealt = deal.iter().filter(|&&d| d == i).count();
                assert_eq!(dealt as u32, c.weight, "{}", c.name);
            }
            orders.push(deal);
        }
        orders.dedup();
        assert_eq!(orders.len(), 50, "each deal is shuffled afresh");
    }
}
