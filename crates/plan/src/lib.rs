//! Query planning over the subcube DAG (Section 7.3).
//!
//! A warehouse query is a sub-query per subcube whose sub-results fold
//! into one aggregation; a sub-query that cannot contribute a row need
//! not run. This crate turns per-chunk verdicts into a plan: a scan or
//! skip decision per cube and the order in which the scanned cubes are
//! read. The verdicts themselves are the query's own: the subcube crate
//! asks, for each chunk, whether any cell of the product of the chunk's
//! distinct values per dimension can satisfy the query's compiled
//! predicate (`sdr_query::ScanAcc::may_keep`). That product holds every
//! stored cell of the chunk, so a skipped chunk keeps no row, and the
//! planned evaluation returns exactly what the full fan-out returns (the
//! differential suite and every debug build's in-engine check of each
//! skipped chunk and cube both assert this).
//!
//! A cube is skipped when it holds no rows ([`SkipReason::EmptyCube`])
//! or when every one of its chunks is ([`SkipReason::ZoneMap`]);
//! otherwise it is scanned, cheapest (fewest rows) first, and only its
//! kept chunks are read.

/// Why the planner skipped a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The cube holds no facts.
    EmptyCube,
    /// No chunk of the cube holds values that can satisfy the predicate.
    ZoneMap,
}

impl SkipReason {
    /// Stable lower-case label (obs counters, `explain` rendering).
    pub fn label(self) -> &'static str {
        match self {
            SkipReason::EmptyCube => "empty",
            SkipReason::ZoneMap => "zone",
        }
    }
}

/// The planner's verdict for one cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Scan the cube; `cost` is the planner's estimate (stored rows —
    /// exact, since stats are maintained, not sampled).
    Scan {
        /// Estimated scan cost in rows.
        cost: u64,
    },
    /// Skip the cube entirely.
    Skip {
        /// Why the cube cannot contribute.
        reason: SkipReason,
    },
}

/// One cube's entry in a [`QueryPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubePlan {
    /// Cube index (`K_i`).
    pub cube: usize,
    /// Stored rows at planning time.
    pub rows: u64,
    /// Scan or skip.
    pub decision: Decision,
    /// Per chunk, in row order: whether a scan reads it.
    pub chunks: Vec<bool>,
}

/// A complete plan for one warehouse query: a verdict per cube plus the
/// scan order (cheapest first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Per-cube verdicts, in cube-id order.
    pub cubes: Vec<CubePlan>,
    /// Indices of the cubes to scan, cheapest (fewest rows) first.
    pub order: Vec<usize>,
}

impl QueryPlan {
    /// Whether cube `i` is scanned under this plan.
    pub fn scans(&self, i: usize) -> bool {
        matches!(self.cubes[i].decision, Decision::Scan { .. })
    }

    /// The skip reason of cube `i`, if it is skipped.
    pub fn skip_reason(&self, i: usize) -> Option<SkipReason> {
        match self.cubes[i].decision {
            Decision::Skip { reason } => Some(reason),
            Decision::Scan { .. } => None,
        }
    }

    /// Number of skipped cubes.
    pub fn n_skipped(&self) -> usize {
        self.cubes.len() - self.order.len()
    }

    /// A plan that reads every chunk of every cube in id order (the naive
    /// fan-out), from each cube's rows and chunk count.
    pub fn scan_all(cubes: impl IntoIterator<Item = (u64, usize)>) -> QueryPlan {
        let cubes: Vec<CubePlan> = (cubes.into_iter().enumerate())
            .map(|(cube, (rows, chunks))| CubePlan {
                cube,
                rows,
                decision: Decision::Scan { cost: rows },
                chunks: vec![true; chunks],
            })
            .collect();
        let order = (0..cubes.len()).collect();
        QueryPlan { cubes, order }
    }
}

/// Plans one warehouse query from each cube's rows and its chunks'
/// verdicts (`true`: the chunk may hold a kept row), in cube-id order: a
/// scan/skip decision per cube and a cheapest-first scan order.
pub fn plan(cubes: impl IntoIterator<Item = (u64, Vec<bool>)>) -> QueryPlan {
    let _span = sdr_obs::span("plan.query");
    let cubes: Vec<CubePlan> = (cubes.into_iter().enumerate())
        .map(|(cube, (rows, chunks))| {
            let decision = if rows == 0 {
                Decision::Skip {
                    reason: SkipReason::EmptyCube,
                }
            } else if !chunks.contains(&true) {
                Decision::Skip {
                    reason: SkipReason::ZoneMap,
                }
            } else {
                Decision::Scan { cost: rows }
            };
            CubePlan {
                cube,
                rows,
                decision,
                chunks,
            }
        })
        .collect();
    let scans = |i: &usize| matches!(cubes[*i].decision, Decision::Scan { .. });
    let mut order: Vec<usize> = (0..cubes.len()).filter(scans).collect();
    order.sort_by_key(|&i| (cubes[i].rows, i));
    if sdr_obs::enabled() {
        sdr_obs::add("plan.cubes_scanned", order.len() as u64);
        sdr_obs::add("plan.cubes_skipped", (cubes.len() - order.len()) as u64);
        for c in &cubes {
            if let Decision::Skip { reason } = c.decision {
                sdr_obs::inc(match reason {
                    SkipReason::EmptyCube => "plan.skip.empty",
                    SkipReason::ZoneMap => "plan.skip.zone",
                });
            }
        }
    }
    QueryPlan { cubes, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cube_always_skipped_and_order_is_cheapest_first() {
        let p = plan([
            (10, vec![true, false]),
            (0, vec![]),
            (3, vec![true]),
            (3, vec![false, true]),
            (7, vec![false, false]),
        ]);
        assert_eq!(p.skip_reason(1), Some(SkipReason::EmptyCube));
        assert_eq!(p.skip_reason(4), Some(SkipReason::ZoneMap));
        // Cheapest first, ties broken by cube id (stable).
        assert_eq!(p.order, vec![2, 3, 0]);
        assert_eq!(p.n_skipped(), 2);
        assert!(matches!(p.cubes[0].decision, Decision::Scan { cost: 10 }));
        assert_eq!(p.cubes[3].chunks, vec![false, true]);
    }

    #[test]
    fn scan_all_reads_every_chunk_in_id_order() {
        let p = QueryPlan::scan_all([(10, 2), (0, 0), (3, 1)]);
        assert_eq!(p.order, vec![0, 1, 2]);
        assert_eq!(p.n_skipped(), 0);
        assert_eq!(p.cubes[0].chunks, vec![true, true]);
    }
}
