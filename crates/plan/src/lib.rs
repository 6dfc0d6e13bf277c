//! Cost-based query planning over the subcube DAG.
//!
//! A warehouse query fans out over every subcube and folds each one's
//! kept rows into one aggregation. Most selective queries touch a
//! handful of cubes; the rest are scanned only to keep no row. This crate
//! decides, *before* any row is read, which cubes can be skipped and in
//! what order the survivors should be scanned, using two per-cube
//! oracles that are maintained exactly (not estimated). The query's
//! predicate is grounded once ([`Grounding`]); its hull test also judges
//! each chunk of a scanned cube, whose summary carries the same hulls.
//!
//! * **Bottom-footprint hulls** (`SubcubeStats::hulls`, PR 8): per
//!   dimension, the smallest interval — day serials for time, interned
//!   bottom ids for enumerated dimensions — covering the bottom-level
//!   footprint of every stored cell. A kept cell's footprint always
//!   overlaps the ground set of every *supported* query atom (see
//!   below), so a cube whose hull is disjoint from some atom of every
//!   disjunct cannot contribute a row.
//! * **Proved regions** (the prover/lint analysis cache): every cell a
//!   reduction action placed satisfied that action's predicate at some
//!   synchronization time `t ≤ last_sync`. When a cube's stored origins
//!   are all reduction actions whose predicates constrain only
//!   categories at-or-above the cube's grain, each cell's footprint is
//!   contained in the union of the actions' cached groundings over
//!   `t ≤ last_sync` — a finite union of [`Region`]s because groundings
//!   are piecewise-constant between step days. A query disjunct that
//!   misses every region piece cannot match any cell.
//!
//! # Soundness
//!
//! Pruning must be *observationally invisible*: the planned evaluation
//! returns exactly what the naive full fan-out returns (the
//! differential suite and every debug build's in-engine check of the
//! skipped cubes both assert this). The planner therefore only uses **necessary**
//! conditions for a fact to survive selection:
//!
//! * Selection compares footprints at the GLB category (Definition 5
//!   and its liberal/weighted readings). For **time** atoms of any
//!   operator, and **enumerated** `=`/`≠`/`IN` atoms (negated or not),
//!   a fact kept under conservative, liberal, or positive-threshold
//!   weighted mode has a bottom footprint overlapping the atom's ground
//!   set ([`sdr_spec::ground::ground_atom`]). These are the *supported*
//!   atoms.
//! * Enumerated `<`/`≤`/`>`/`≥` atoms compare interned ids at the GLB
//!   category, whose order does not commute with roll-up — their ground
//!   set is **not** a necessary overlap condition, so the planner
//!   treats them as unconstrained (they never justify a skip).
//! * Weighted selection with `threshold ≤ 0` keeps every fact, so only
//!   empty cubes are skipped.
//!
//! A query disjunct with no supported atoms keeps every cube alive; a
//! query without a predicate only skips empty cubes.

use std::collections::HashMap;

use sdr_mdm::{CatId, DayNum, Schema};
use sdr_prover::{DayInterval, GroundSet, Region};
use sdr_query::SelectMode;
use sdr_reduce::ReductionSchedule;
use sdr_spec::{to_dnf, Atom, AtomKind, CmpOp, Pexp};

/// `sdr_mdm::ORIGIN_USER` — facts inserted directly by the user, which
/// no action predicate ever vouched for.
const ORIGIN_USER: u32 = u32::MAX;

/// The planner's view of one subcube — plain data lifted from
/// `SubcubeStats` plus the cube's layout, so this crate does not depend
/// on the warehouse crate.
#[derive(Debug, Clone, Default)]
pub struct CubeSummary {
    /// Number of stored facts.
    pub rows: u64,
    /// Per-dimension bottom-footprint hull (`SubcubeStats::hulls`):
    /// `None` = unknown, never prune on that dimension.
    pub hulls: Vec<Option<(i64, i64)>>,
    /// Sorted distinct origins (`SubcubeStats::origins`): `None` =
    /// unknown, disables region pruning for the cube.
    pub origins: Option<Vec<u32>>,
    /// The cube's granularity, one category per dimension.
    pub grain: Vec<CatId>,
}

/// Why the planner skipped a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The cube holds no facts.
    EmptyCube,
    /// Every query disjunct has a supported atom whose ground set is
    /// disjoint from the cube's bottom-footprint hull.
    ZoneMap,
    /// Every query disjunct misses every piece of the cube's proved
    /// region (origin-pure cube, predicates at-or-above its grain).
    ProvedRegion,
}

impl SkipReason {
    /// Stable lower-case label (obs counters, `explain` rendering).
    pub fn label(self) -> &'static str {
        match self {
            SkipReason::EmptyCube => "empty",
            SkipReason::ZoneMap => "zone",
            SkipReason::ProvedRegion => "region",
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
        /// The oracle that proved the cube irrelevant.
        reason: SkipReason,
    },
}

/// One cube's entry in a [`QueryPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubePlan {
    /// Cube index (`K_i`).
    pub cube: usize,
    /// Stored rows at planning time.
    pub rows: u64,
    /// Scan or skip.
    pub decision: Decision,
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

    /// A plan that scans every cube in id order (the naive fan-out) —
    /// what planning degenerates to without statistics.
    pub fn scan_all(rows: &[u64]) -> QueryPlan {
        QueryPlan {
            cubes: rows
                .iter()
                .enumerate()
                .map(|(i, &r)| CubePlan {
                    cube: i,
                    rows: r,
                    decision: Decision::Scan { cost: r },
                })
                .collect(),
            order: (0..rows.len()).collect(),
        }
    }
}

/// The cover of one reduction action: everything its predicate could
/// have vouched for at any synchronization time `t ≤ last_sync`.
#[derive(Debug, Clone)]
struct ActionCover {
    /// Every `(dimension index, category)` the predicate constrains —
    /// region pruning requires each to sit at-or-above the cube grain.
    atom_cats: Vec<(usize, CatId)>,
    /// Union of the cached groundings at every step day `≤ last_sync`
    /// (plus the interval containing `last_sync` itself).
    cover: Vec<Region>,
}

/// The planner's region oracle, built from the aging schedule's cached
/// per-action analyses ([`ReductionSchedule`], the same cache sdr-lint
/// runs on). Groundings are piecewise-constant between step days, so
/// the union over finitely many cached steps covers *every* possible
/// synchronization time up to `last_sync`.
#[derive(Debug, Clone)]
pub struct RegionOracle {
    actions: HashMap<u32, ActionCover>,
}

impl RegionOracle {
    /// Builds the oracle for a warehouse last synchronized at
    /// `last_sync`. Cubes written by later syncs would invalidate the
    /// cover, so callers must rebuild (or re-gate) after advancing the
    /// watermark — the warehouse integration derives `last_sync` from
    /// the same pinned view it plans for.
    pub fn build(schedule: &ReductionSchedule, last_sync: DayNum) -> RegionOracle {
        let mut actions = HashMap::new();
        for (aid, analysis) in schedule.analyses() {
            let mut atom_cats = Vec::new();
            for conj in analysis.dnf() {
                for atom in conj {
                    atom_cats.push((atom.dim.index(), atom.cat));
                }
            }
            let mut cover: Vec<Region> = Vec::new();
            for d in 0..analysis.n_conjs() {
                let mut add = |rs: &[Region]| {
                    for r in rs {
                        if !cover.contains(r) {
                            cover.push(r.clone());
                        }
                    }
                };
                for &s in analysis.steps(d) {
                    if s <= last_sync {
                        add(analysis.region_at(d, s));
                    }
                }
                // The step interval containing `last_sync` itself (also
                // covers syncs before the first step day, which ground
                // like the first step).
                add(analysis.region_at(d, last_sync));
            }
            actions.insert(aid.0, ActionCover { atom_cats, cover });
        }
        RegionOracle { actions }
    }

    /// The proved region of one cube: the union of its origins' covers,
    /// or `None` when the oracle cannot vouch for the cube — unknown or
    /// user origins, an origin with no analyzed action (e.g. deleted by
    /// spec evolution), or a predicate constraining a category *below*
    /// the cube's grain (roll-up would not preserve satisfaction).
    pub fn cover_for<'a>(
        &'a self,
        summary: &CubeSummary,
        schema: &Schema,
    ) -> Option<Vec<&'a Region>> {
        let origins = summary.origins.as_ref()?;
        let mut cover = Vec::new();
        for &o in origins {
            if o == ORIGIN_USER {
                return None;
            }
            let info = self.actions.get(&o)?;
            for &(d, cat) in &info.atom_cats {
                let grain = *summary.grain.get(d)?;
                // The stored cell sits at `grain`; its pre-reduction
                // value satisfied the predicate at `cat`. Satisfaction
                // survives the roll-up only when `grain ≤ cat`.
                if !schema.dim(sdr_mdm::DimId(d as u16)).graph().leq(grain, cat) {
                    return None;
                }
            }
            cover.extend(info.cover.iter());
        }
        Some(cover)
    }
}

/// One supported query atom, grounded: the bottom-level set a kept
/// fact's footprint must overlap.
struct GroundedAtom {
    dim: usize,
    pieces: Vec<GroundSet>,
}

impl GroundedAtom {
    /// Can a cell inside `hull` (per-dimension bottom hulls; `None` =
    /// unbounded) satisfy this atom?
    fn alive_in_hulls(&self, hulls: &[Option<(i64, i64)>]) -> bool {
        match hulls.get(self.dim).copied().flatten() {
            None => !self.pieces.is_empty(),
            Some((lo, hi)) => self.pieces.iter().any(|p| match p {
                GroundSet::All => true,
                GroundSet::Interval(i) => !i.intersect(DayInterval::new(lo, hi)).is_empty(),
                GroundSet::Bits(b) => b.iter().any(|v| lo <= v as i64 && (v as i64) <= hi),
            }),
        }
    }

    /// Can a cell inside region `r` satisfy this atom?
    fn alive_in_region(&self, r: &Region) -> bool {
        self.pieces
            .iter()
            .any(|p| !p.intersect(&r.dims[self.dim]).is_empty())
    }
}

/// One query disjunct's supported atoms. `None` = the disjunct has an
/// atom the planner could not ground *exactly as a necessary
/// condition*, making the whole disjunct unconstrained for pruning
/// purposes? No — unsupported atoms are simply dropped (fewer necessary
/// conditions, still sound); `atoms` may be empty, which keeps every
/// cube alive.
struct GroundedConj {
    atoms: Vec<GroundedAtom>,
}

/// True for atoms whose ground set is a *necessary* overlap condition
/// under select semantics (see the module docs).
fn supported(schema: &Schema, atom: &Atom) -> bool {
    if schema.dim(atom.dim).is_time() {
        return true;
    }
    match &atom.kind {
        AtomKind::In { .. } => true,
        AtomKind::Cmp { op, .. } => matches!(op, CmpOp::Eq | CmpOp::Ne),
    }
}

/// The query predicate grounded for pruning — built once per query and
/// applied to every cube ([`plan`]) and to every chunk of a scanned cube
/// ([`may_match`](Grounding::may_match) on the chunk's hulls). Atoms
/// that are unsupported — or whose grounding fails (the evaluation
/// itself will surface the error) — contribute no constraint.
pub struct Grounding {
    /// `None`: nothing can be pruned by predicate (no predicate, or a
    /// weighted selection with `threshold ≤ 0`, which keeps every fact).
    conjs: Option<Vec<GroundedConj>>,
}

impl Grounding {
    /// Grounds `pred`'s DNF under `mode` at `now`.
    pub fn new(schema: &Schema, pred: Option<&Pexp>, mode: SelectMode, now: DayNum) -> Grounding {
        let prunable = match mode {
            SelectMode::Conservative | SelectMode::Liberal => true,
            SelectMode::Weighted { threshold } => threshold > 0.0,
        };
        let conjs = pred.filter(|_| prunable).map(|p| {
            to_dnf(p)
                .iter()
                .map(|conj| GroundedConj {
                    atoms: conj
                        .iter()
                        .filter(|a| supported(schema, a))
                        .filter_map(|a| {
                            sdr_spec::ground::ground_atom(schema, a, now)
                                .ok()
                                .map(|pieces| GroundedAtom {
                                    dim: a.dim.index(),
                                    pieces,
                                })
                        })
                        .collect(),
                })
                .collect()
        });
        Grounding { conjs }
    }

    /// The hull test: can a fact whose bottom footprint lies inside
    /// `hulls` (per dimension; `None` = unbounded) satisfy the predicate?
    /// A disjunct is alive when every supported atom's ground set
    /// intersects the hull; an unsatisfiable predicate — zero disjuncts
    /// — keeps nothing anywhere.
    pub fn may_match(&self, hulls: &[Option<(i64, i64)>]) -> bool {
        self.conjs.as_ref().is_none_or(|conjs| {
            conjs
                .iter()
                .any(|conj| conj.atoms.iter().all(|a| a.alive_in_hulls(hulls)))
        })
    }
}

/// Plans one warehouse query, its predicate already `grounded`: a
/// scan/skip verdict per cube and a cheapest-first scan order. `oracle`
/// is optional — without it only empty-cube and hull (zone-map) pruning
/// apply.
pub fn plan(
    schema: &Schema,
    grounded: &Grounding,
    cubes: &[CubeSummary],
    oracle: Option<&RegionOracle>,
) -> QueryPlan {
    let _span = sdr_obs::span("plan.query");
    let mut plans = Vec::with_capacity(cubes.len());
    for (i, c) in cubes.iter().enumerate() {
        let decision = decide(schema, c, grounded, oracle);
        plans.push(CubePlan {
            cube: i,
            rows: c.rows,
            decision,
        });
    }
    let mut order: Vec<usize> = plans
        .iter()
        .filter(|p| matches!(p.decision, Decision::Scan { .. }))
        .map(|p| p.cube)
        .collect();
    order.sort_by_key(|&i| (cubes[i].rows, i));
    if sdr_obs::enabled() {
        sdr_obs::add("plan.cubes_scanned", order.len() as u64);
        sdr_obs::add("plan.cubes_skipped", (plans.len() - order.len()) as u64);
        for p in &plans {
            if let Decision::Skip { reason } = p.decision {
                sdr_obs::inc(match reason {
                    SkipReason::EmptyCube => "plan.skip.empty",
                    SkipReason::ZoneMap => "plan.skip.zone",
                    SkipReason::ProvedRegion => "plan.skip.region",
                });
            }
        }
    }
    QueryPlan {
        cubes: plans,
        order,
    }
}

/// The verdict for one cube (see [`plan`]).
fn decide(
    schema: &Schema,
    c: &CubeSummary,
    grounded: &Grounding,
    oracle: Option<&RegionOracle>,
) -> Decision {
    if c.rows == 0 {
        return Decision::Skip {
            reason: SkipReason::EmptyCube,
        };
    }
    let Some(conjs) = &grounded.conjs else {
        return Decision::Scan { cost: c.rows };
    };
    if !grounded.may_match(&c.hulls) {
        return Decision::Skip {
            reason: SkipReason::ZoneMap,
        };
    }
    if let Some(cover) = oracle.and_then(|o| o.cover_for(c, schema)) {
        // Every stored cell lies in some cover piece; a disjunct can
        // only match cells of pieces it overlaps on every atom.
        let region_alive = conjs.iter().any(|conj| {
            cover
                .iter()
                .any(|r| conj.atoms.iter().all(|a| a.alive_in_region(r)))
        });
        if !region_alive {
            return Decision::Skip {
                reason: SkipReason::ProvedRegion,
            };
        }
    }
    Decision::Scan { cost: c.rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::calendar::days_from_civil;
    use sdr_mdm::{time_cat, DimId};
    use sdr_reduce::DataReductionSpec;
    use sdr_spec::{parse_action, parse_pexp};
    use sdr_workload::{paper_schema, ACTION_A1, ACTION_A2};
    use std::sync::Arc;

    /// [`super::plan`] with the predicate grounded in place.
    fn plan(
        schema: &Schema,
        pred: Option<&Pexp>,
        mode: SelectMode,
        now: DayNum,
        cubes: &[CubeSummary],
        oracle: Option<&RegionOracle>,
    ) -> QueryPlan {
        super::plan(
            schema,
            &Grounding::new(schema, pred, mode, now),
            cubes,
            oracle,
        )
    }

    fn bottom_grain(schema: &Schema) -> Vec<CatId> {
        (0..schema.n_dims())
            .map(|d| schema.dim(DimId(d as u16)).graph().bottom())
            .collect()
    }

    fn cube(
        rows: u64,
        time_hull: Option<(i64, i64)>,
        url_hull: Option<(i64, i64)>,
        grain: Vec<CatId>,
    ) -> CubeSummary {
        CubeSummary {
            rows,
            hulls: vec![time_hull, url_hull],
            origins: None,
            grain,
        }
    }

    fn day(y: i32, m: u32, d: u32) -> i64 {
        days_from_civil(y, m, d) as i64
    }

    #[test]
    fn empty_cube_always_skipped_and_order_is_cheapest_first() {
        let (schema, _) = paper_schema();
        let g = bottom_grain(&schema);
        let cubes = vec![
            cube(10, None, None, g.clone()),
            cube(0, None, None, g.clone()),
            cube(3, None, None, g.clone()),
            cube(3, None, None, g),
        ];
        let p = plan(
            &schema,
            None,
            SelectMode::Conservative,
            days_from_civil(2000, 4, 5),
            &cubes,
            None,
        );
        assert_eq!(p.skip_reason(1), Some(SkipReason::EmptyCube));
        // Cheapest first, ties broken by cube id (stable).
        assert_eq!(p.order, vec![2, 3, 0]);
        assert_eq!(p.n_skipped(), 1);
        assert!(matches!(p.cubes[0].decision, Decision::Scan { cost: 10 }));
    }

    #[test]
    fn time_hull_prunes_disjoint_cubes() {
        let (schema, _) = paper_schema();
        let g = bottom_grain(&schema);
        let pred = parse_pexp(&schema, "Time.day <= 1999/12/31").unwrap();
        let now = days_from_civil(2000, 4, 5);
        let in_range = cube(
            5,
            Some((day(1999, 1, 1), day(1999, 6, 30))),
            None,
            g.clone(),
        );
        let out_of_range = cube(
            5,
            Some((day(2000, 1, 1), day(2000, 6, 30))),
            None,
            g.clone(),
        );
        let unknown = cube(5, None, None, g);
        for mode in [
            SelectMode::Conservative,
            SelectMode::Liberal,
            SelectMode::Weighted { threshold: 0.5 },
        ] {
            let p = plan(
                &schema,
                Some(&pred),
                mode,
                now,
                &[in_range.clone(), out_of_range.clone(), unknown.clone()],
                None,
            );
            assert!(p.scans(0), "{mode:?}");
            assert_eq!(p.skip_reason(1), Some(SkipReason::ZoneMap), "{mode:?}");
            assert!(p.scans(2), "unknown hull must never prune ({mode:?})");
        }
    }

    #[test]
    fn coarse_time_atom_prunes_in_day_space() {
        let (schema, _) = paper_schema();
        let g = bottom_grain(&schema);
        // Month-level atom, day-level hulls: ground set is the months'
        // day footprint.
        let pred = parse_pexp(&schema, "Time.month IN {1999/11, 1999/12}").unwrap();
        let now = days_from_civil(2000, 4, 5);
        let nov = cube(
            4,
            Some((day(1999, 11, 2), day(1999, 11, 20))),
            None,
            g.clone(),
        );
        let jan = cube(4, Some((day(2000, 1, 1), day(2000, 1, 31))), None, g);
        let p = plan(
            &schema,
            Some(&pred),
            SelectMode::Liberal,
            now,
            &[nov, jan],
            None,
        );
        assert!(p.scans(0));
        assert_eq!(p.skip_reason(1), Some(SkipReason::ZoneMap));
    }

    #[test]
    fn enum_eq_in_and_negation_prune_but_ranges_never_do() {
        let (schema, cats) = paper_schema();
        let g = bottom_grain(&schema);
        let now = days_from_civil(2000, 4, 5);
        // URL bottom ids (insertion order): 0 = gatech, 1 = cnn.com/,
        // 2 = cnn.com/health, 3 = amazon.
        let gatech_only = cube(5, None, Some((0, 0)), g.clone());
        let amazon_only = cube(5, None, Some((3, 3)), g.clone());

        let eq = parse_pexp(&schema, "URL.domain = cnn.com").unwrap();
        let p = plan(
            &schema,
            Some(&eq),
            SelectMode::Conservative,
            now,
            &[gatech_only.clone(), amazon_only.clone()],
            None,
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ZoneMap));
        assert_eq!(p.skip_reason(1), Some(SkipReason::ZoneMap));

        let grp = parse_pexp(&schema, "URL.domain_grp = .com").unwrap();
        let p = plan(
            &schema,
            Some(&grp),
            SelectMode::Liberal,
            now,
            &[gatech_only.clone(), amazon_only.clone()],
            None,
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ZoneMap));
        assert!(p.scans(1));

        let neg = parse_pexp(&schema, "NOT (URL.domain_grp = .com)").unwrap();
        let p = plan(
            &schema,
            Some(&neg),
            SelectMode::Conservative,
            now,
            &[gatech_only.clone(), amazon_only.clone()],
            None,
        );
        assert!(p.scans(0));
        assert_eq!(p.skip_reason(1), Some(SkipReason::ZoneMap));

        let inq = parse_pexp(&schema, "URL.domain IN {gatech.edu, amazon.com}").unwrap();
        let p = plan(
            &schema,
            Some(&inq),
            SelectMode::Conservative,
            now,
            &[gatech_only.clone(), cube(5, None, Some((1, 2)), g.clone())],
            None,
        );
        assert!(p.scans(0));
        assert_eq!(p.skip_reason(1), Some(SkipReason::ZoneMap));

        // Ordered comparison over interned enum ids is not a necessary
        // overlap condition; the parser already rejects it, and the
        // planner's `supported` guard refuses to prune on a
        // programmatically-built one, whatever the hull.
        assert!(parse_pexp(&schema, "URL.domain <= cnn.com").is_err());
        let range = Pexp::Atom(Atom {
            dim: DimId(1),
            cat: cats.domain,
            kind: AtomKind::Cmp {
                op: CmpOp::Le,
                term: sdr_spec::Term::Value(sdr_mdm::DimValue::new(cats.domain, 1)),
            },
            negated: false,
            span: sdr_spec::SrcSpan::DUMMY,
        });
        let p = plan(
            &schema,
            Some(&range),
            SelectMode::Conservative,
            now,
            &[gatech_only, amazon_only],
            None,
        );
        assert!(p.scans(0));
        assert!(p.scans(1));
    }

    #[test]
    fn disjunction_keeps_cube_alive_when_any_disjunct_matches() {
        let (schema, _) = paper_schema();
        let g = bottom_grain(&schema);
        let now = days_from_civil(2000, 4, 5);
        let pred =
            parse_pexp(&schema, "URL.domain = amazon.com OR Time.day <= 1999/12/31").unwrap();
        // URL hull excludes amazon, but the time disjunct matches.
        let c = cube(
            5,
            Some((day(1999, 3, 1), day(1999, 3, 9))),
            Some((0, 2)),
            g.clone(),
        );
        let p = plan(
            &schema,
            Some(&pred),
            SelectMode::Conservative,
            now,
            &[c],
            None,
        );
        assert!(p.scans(0));
        // Both disjuncts miss → skip.
        let c = cube(5, Some((day(2000, 1, 1), day(2000, 2, 1))), Some((0, 2)), g);
        let p = plan(
            &schema,
            Some(&pred),
            SelectMode::Conservative,
            now,
            &[c],
            None,
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ZoneMap));
    }

    #[test]
    fn weighted_threshold_zero_disables_predicate_pruning() {
        let (schema, _) = paper_schema();
        let g = bottom_grain(&schema);
        let now = days_from_civil(2000, 4, 5);
        let pred = parse_pexp(&schema, "Time.day <= 1999/12/31").unwrap();
        let far = cube(5, Some((day(2002, 1, 1), day(2002, 6, 1))), None, g.clone());
        let p = plan(
            &schema,
            Some(&pred),
            SelectMode::Weighted { threshold: 0.0 },
            now,
            &[far.clone(), cube(0, None, None, g)],
            None,
        );
        assert!(p.scans(0), "threshold 0 keeps every fact — no pred pruning");
        assert_eq!(p.skip_reason(1), Some(SkipReason::EmptyCube));
        let p = plan(
            &schema,
            Some(&pred),
            SelectMode::Weighted { threshold: 0.5 },
            now,
            &[far],
            None,
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ZoneMap));
    }

    #[test]
    fn unsatisfiable_predicate_skips_every_nonempty_cube() {
        let (schema, _) = paper_schema();
        let g = bottom_grain(&schema);
        let pred = parse_pexp(&schema, "false").unwrap();
        let p = plan(
            &schema,
            Some(&pred),
            SelectMode::Conservative,
            days_from_civil(2000, 4, 5),
            &[cube(5, None, None, g)],
            None,
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ZoneMap));
    }

    fn paper_oracle(last_sync: sdr_mdm::DayNum) -> (Arc<Schema>, RegionOracle, u32, u32) {
        let (schema, _) = paper_schema();
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
        let schedule = sdr_reduce::ReductionSchedule::build(&spec).unwrap();
        let ids: Vec<u32> = schedule.analyses().iter().map(|(id, _)| id.0).collect();
        let oracle = RegionOracle::build(&schedule, last_sync);
        (schema, oracle, ids[0], ids[1])
    }

    #[test]
    fn region_oracle_prunes_origin_pure_cube_off_the_proved_region() {
        let now = days_from_civil(2000, 4, 5);
        let (schema, oracle, a1, _) = paper_oracle(now);
        // A cube produced purely by a1 (grain month × domain): every
        // cell satisfied `domain_grp = .com AND …` at placement time.
        let c = CubeSummary {
            rows: 7,
            hulls: vec![None, Some((0, 3))],
            origins: Some(vec![a1]),
            grain: vec![
                time_cat::MONTH,
                schema.dim(DimId(1)).graph().by_name("domain").unwrap(),
            ],
        };
        // .edu query misses the .com-proved region; the hull alone
        // (covering gatech) cannot rule it out.
        let edu = parse_pexp(&schema, "URL.domain_grp = .edu").unwrap();
        let p = plan(
            &schema,
            Some(&edu),
            SelectMode::Conservative,
            now,
            std::slice::from_ref(&c),
            Some(&oracle),
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ProvedRegion));
        // Without the oracle the hull keeps it alive.
        let p = plan(
            &schema,
            Some(&edu),
            SelectMode::Conservative,
            now,
            std::slice::from_ref(&c),
            None,
        );
        assert!(p.scans(0));
        // A .com query overlaps the proved region → scan.
        let com = parse_pexp(&schema, "URL.domain = cnn.com").unwrap();
        let p = plan(
            &schema,
            Some(&com),
            SelectMode::Conservative,
            now,
            &[c],
            Some(&oracle),
        );
        assert!(p.scans(0));
    }

    #[test]
    fn region_oracle_gates_on_origin_purity_and_grain() {
        let now = days_from_civil(2000, 4, 5);
        let (schema, oracle, a1, _) = paper_oracle(now);
        let domain = schema.dim(DimId(1)).graph().by_name("domain").unwrap();
        let edu = parse_pexp(&schema, "URL.domain_grp = .edu").unwrap();
        let base = CubeSummary {
            rows: 7,
            hulls: vec![None, Some((0, 3))],
            origins: Some(vec![a1]),
            grain: vec![time_cat::MONTH, domain],
        };
        // User-origin facts carry no proof.
        let mut user = base.clone();
        user.origins = Some(vec![a1, u32::MAX]);
        // Unknown origins (cap overflow) carry no proof.
        let mut unknown = base.clone();
        unknown.origins = None;
        // An origin with no analyzed action (spec evolution) carries no
        // proof.
        let mut stale = base.clone();
        stale.origins = Some(vec![a1, 999]);
        // Grain above the predicate category: satisfaction is not
        // preserved by the roll-up, so the proof does not apply.
        let mut coarse = base.clone();
        coarse.grain = vec![time_cat::MONTH, schema.dim(DimId(1)).graph().top()];
        let cubes = vec![base, user, unknown, stale, coarse];
        let p = plan(
            &schema,
            Some(&edu),
            SelectMode::Conservative,
            now,
            &cubes,
            Some(&oracle),
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ProvedRegion));
        for i in 1..cubes.len() {
            assert!(p.scans(i), "cube {i} must not be region-pruned");
        }
    }

    #[test]
    fn region_oracle_respects_time_windows() {
        let now = days_from_civil(2000, 4, 5);
        let (schema, oracle, _, a2) = paper_oracle(now);
        let domain = schema.dim(DimId(1)).graph().by_name("domain").unwrap();
        // a2 aggregates quarters ≤ NOW - 4 quarters; at any sync
        // ≤ 2000-04-05 everything it placed lies in 1999Q1 or earlier.
        let c = CubeSummary {
            rows: 3,
            hulls: vec![None, None],
            origins: Some(vec![a2]),
            grain: vec![time_cat::QUARTER, domain],
        };
        let recent = parse_pexp(&schema, "Time.quarter >= 2000Q1").unwrap();
        let p = plan(
            &schema,
            Some(&recent),
            SelectMode::Liberal,
            now,
            std::slice::from_ref(&c),
            Some(&oracle),
        );
        assert_eq!(p.skip_reason(0), Some(SkipReason::ProvedRegion));
        let old = parse_pexp(&schema, "Time.quarter <= 1999Q1").unwrap();
        let p = plan(
            &schema,
            Some(&old),
            SelectMode::Liberal,
            now,
            &[c],
            Some(&oracle),
        );
        assert!(p.scans(0));
    }
}
