//! Per-action analysis, the soundness decisions made over it, and the
//! transition-day schedule for incremental aging.
//!
//! Every disjunct's grounding is a **staircase function of `NOW`** —
//! piecewise constant between computable step days. [`ActionAnalysis`]
//! caches, per action, the DNF, the step days of each disjunct, and the
//! grounding at each step day (both raw and concretized). A
//! [`DataReductionSpec`] builds it once, when the action enters, and
//! everything that asks about the action reads it:
//!
//! * the soundness gate of Sections 5.2–5.3: [`crossings`] (NonCrossing,
//!   Equation 14) and [`escapes`] (Growing, Equation 17) decide both
//!   properties over the cached groundings and return witnesses. The
//!   specification rejects on the first; `sdr-lint` renders each one as
//!   an L004/L005 diagnostic over its own span-carrying copy;
//! * [`ReductionSchedule`], which merges the analyses into one sorted
//!   **transition-day** list — the only days on which *any* cell can
//!   cross an action boundary.
//!
//! Between two consecutive transition days the reduction function is
//! constant, so an incremental ager (`SubcubeManager::age`) only has to
//! re-evaluate cells whose coordinates touch a grounding that *changed*
//! across the tick. [`ReductionSchedule::delta_pred`] returns exactly the
//! changed disjuncts (as a predicate to evaluate per cell) and
//! [`ReductionSchedule::delta_regions`] returns the **symmetric
//! difference** of the changed groundings — a cell outside every Δ
//! region evaluates identically at both endpoints and provably cannot
//! move.

use std::sync::Arc;

use sdr_mdm::{DayNum, Dimension, Schema};
use sdr_prover::{implies_union_residue, BitSet, DayInterval, GroundSet, Region};
use sdr_spec::{
    classify_conj, from_dnf, ground_conj, step_days, to_dnf, ActionId, ActionSpec, Conj,
    GrowthClass, Pexp, SpecError,
};

use crate::{DataReductionSpec, ReduceError};

/// The day horizon the analysis quantifies `t` (and time cells) over:
/// the time dimension's declared range. Schemas without a time dimension
/// get a degenerate single-day horizon (their predicates are all static).
fn time_horizon(schema: &Schema) -> (DayNum, DayNum) {
    for d in &schema.dims {
        if let Dimension::Time(t) = d {
            return (t.min_day, t.max_day);
        }
    }
    (0, 0)
}

/// The cached, span-free analysis of one action predicate: DNF, per
/// disjunct step days, and the grounding at each step day. Groundings
/// are stored twice — raw (exactly what [`ground_conj`] returned, used
/// to *detect* change) and [concretized](ActionAnalysis::concretize)
/// (used for region algebra and footprint pruning).
#[derive(Debug, Clone)]
pub struct ActionAnalysis {
    dnf: Vec<Conj>,
    /// Per disjunct: the days at which its grounding changes (includes
    /// both horizon endpoints).
    steps: Vec<Vec<DayNum>>,
    /// Per disjunct, per step day: the raw grounding.
    raw: Vec<Vec<Vec<Region>>>,
    /// Per disjunct, per step day: the concretized grounding.
    grounded: Vec<Vec<Vec<Region>>>,
    /// Per disjunct: syntactically shrinking (categories F–H)?
    shrinking: Vec<bool>,
    dynamic: bool,
    horizon: (DayNum, DayNum),
}

impl ActionAnalysis {
    /// Analyzes `pred` over the schema's full time horizon: DNF, step
    /// days per disjunct, grounding at every step day.
    pub fn build(schema: &Schema, pred: &Pexp) -> Result<ActionAnalysis, SpecError> {
        let horizon = time_horizon(schema);
        let dnf = to_dnf(pred);
        let mut steps = Vec::with_capacity(dnf.len());
        let mut raw = Vec::with_capacity(dnf.len());
        let mut grounded = Vec::with_capacity(dnf.len());
        let mut shrinking = Vec::with_capacity(dnf.len());
        for conj in &dnf {
            let days = step_days(schema, conj, horizon.0, horizon.1)?;
            let mut raws = Vec::with_capacity(days.len());
            let mut regions = Vec::with_capacity(days.len());
            for &t in &days {
                let g = ground_conj(schema, conj, t)?;
                regions.push(Self::concretize(schema, &g));
                raws.push(g);
            }
            steps.push(days);
            raw.push(raws);
            grounded.push(regions);
            shrinking.push(classify_conj(schema, conj) == GrowthClass::Shrinking);
        }
        Ok(ActionAnalysis {
            dnf,
            steps,
            raw,
            grounded,
            shrinking,
            dynamic: sdr_spec::is_dynamic(pred),
            horizon,
        })
    }

    /// Concretizes groundings against the schema's domains — time clipped
    /// to the horizon, `All` replaced by the full domain, empty regions
    /// dropped — so subset and coverage tests compare like with like.
    /// Every cached concretized grounding is this of the raw one.
    pub fn concretize(schema: &Schema, regions: &[Region]) -> Vec<Region> {
        let concrete = |r: &Region| Region {
            dims: r
                .dims
                .iter()
                .zip(&schema.dims)
                .map(|(g, d)| match (d, g) {
                    (Dimension::Time(t), GroundSet::All) => {
                        GroundSet::Interval(DayInterval::new(t.min_day as i64, t.max_day as i64))
                    }
                    (Dimension::Time(t), GroundSet::Interval(iv)) => GroundSet::Interval(
                        iv.intersect(DayInterval::new(t.min_day as i64, t.max_day as i64)),
                    ),
                    (Dimension::Enum(e), GroundSet::All) => {
                        GroundSet::Bits(BitSet::full(e.cardinality(e.graph().bottom())))
                    }
                    (_, g) => g.clone(),
                })
                .collect(),
        };
        regions
            .iter()
            .map(concrete)
            .filter(|r| !r.is_empty())
            .collect()
    }

    /// The predicate's DNF.
    pub fn dnf(&self) -> &[Conj] {
        &self.dnf
    }

    /// Number of disjuncts.
    pub fn n_conjs(&self) -> usize {
        self.dnf.len()
    }

    /// The step days of disjunct `d` (both horizon endpoints included).
    pub fn steps(&self, d: usize) -> &[DayNum] {
        &self.steps[d]
    }

    /// The time horizon the analysis covers.
    pub fn horizon(&self) -> (DayNum, DayNum) {
        self.horizon
    }

    /// Index of the cached step holding the grounding at day `t`: the
    /// largest step day `≤ t` (the grounding is piecewise constant
    /// between step days).
    fn step_index(&self, d: usize, t: DayNum) -> usize {
        match self.steps[d].binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// The concretized grounding of disjunct `d` at day `t`.
    pub fn region_at(&self, d: usize, t: DayNum) -> &[Region] {
        &self.grounded[d][self.step_index(d, t)]
    }

    /// The raw grounding of disjunct `d` at day `t` (change detection
    /// compares raw groundings so horizon clipping cannot mask a move).
    pub fn raw_at(&self, d: usize, t: DayNum) -> &[Region] {
        &self.raw[d][self.step_index(d, t)]
    }

    /// The concretized grounding of the whole predicate at day `t`.
    pub fn regions_at(&self, t: DayNum) -> Vec<&Region> {
        (0..self.dnf.len())
            .flat_map(|d| self.region_at(d, t).iter())
            .collect()
    }

    /// True when no disjunct selects any cell at any step day.
    pub fn is_unsatisfiable(&self) -> bool {
        self.grounded
            .iter()
            .all(|per_step| per_step.iter().all(Vec::is_empty))
    }

    /// Sorted union of every disjunct's step days.
    pub fn all_steps(&self) -> Vec<DayNum> {
        let mut all: Vec<DayNum> = self.steps.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// True when the predicate mentions `NOW` (is time-dynamic).
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// The days on which this action's selected set actually *changes*:
    /// step days whose raw grounding differs from the previous step's.
    /// (Step-day enumeration is conservative — a dynamic sub-conjunction
    /// can step while the full conjunction's grounding stays equal.)
    pub fn transitions(&self) -> Vec<DayNum> {
        let mut out = Vec::new();
        for (d, days) in self.steps.iter().enumerate() {
            for (pair, &day) in self.raw[d].windows(2).zip(&days[1..]) {
                if pair[0] != pair[1] {
                    out.push(day);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A NonCrossing witness (Equation 14): two actions of incomparable
/// granularity whose predicates select a common cell on `day`.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossing {
    /// The two actions' positions in the decided slice (first < second).
    pub pair: (usize, usize),
    /// The first step day of either action on which they overlap.
    pub day: DayNum,
    /// The first action's region and the second's, overlapping on `day`.
    pub regions: (Region, Region),
}

/// A Growing witness (Equation 17): on `day`, disjunct `conj` of an
/// action drops cells that no action aggregating at least as high then
/// selects.
#[derive(Debug, Clone, PartialEq)]
pub struct Escape {
    /// The action's position in the decided slice.
    pub action: usize,
    /// The shrinking disjunct that drops the cells.
    pub conj: usize,
    /// The step day on which the cells leave it.
    pub day: DayNum,
    /// The dropped cells no catcher covers.
    pub residue: Region,
}

/// NonCrossing over analyzed actions (Section 5.2): every pair `(i, j)`,
/// `i < j` in order, whose granularities are unordered under `≤_V`
/// (ordered pairs never cross) and whose groundings overlap on a step
/// day of either — witnessed at the first such day. The `∃t` of the
/// paper's prover obligation reduces to those days because both
/// groundings are constant between them. Lazy: the gate takes the
/// first witness, the linter all of them.
pub fn crossings<'a>(
    schema: &'a Schema,
    actions: &'a [(&'a ActionSpec, &'a ActionAnalysis)],
) -> impl Iterator<Item = Crossing> + 'a {
    let n = actions.len();
    let pairs = (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)));
    pairs.filter_map(move |(i, j)| {
        let ((a, x), (b, y)) = (actions[i], actions[j]);
        if a.leq_v(b, schema) || b.leq_v(a, schema) {
            return None;
        }
        let mut days = x.all_steps();
        days.extend(y.all_steps());
        days.sort_unstable();
        days.dedup();
        days.into_iter().find_map(|t| {
            let theirs = y.regions_at(t);
            let regions = x.regions_at(t).into_iter().find_map(|ra| {
                let rb = theirs.iter().find(|rb| ra.overlaps(rb))?;
                Some((ra.clone(), (*rb).clone()))
            })?;
            Some(Crossing {
                pair: (i, j),
                day: t,
                regions,
            })
        })
    })
}

/// Growing over analyzed actions (Section 5.3): for each action in
/// order, its first escape. Growing disjuncts are skipped by Theorem 1;
/// for a shrinking one, the cells leaving it at each step day must be
/// covered, that day, by the predicates of the actions aggregating at
/// least as high (`A' = {a_j | a ≤_V a_j}`, Equation 23 — the action
/// itself included, another of its disjuncts may cover). Lazy, like
/// [`crossings`].
pub fn escapes<'a>(
    schema: &'a Schema,
    actions: &'a [(&'a ActionSpec, &'a ActionAnalysis)],
) -> impl Iterator<Item = Escape> + 'a {
    (0..actions.len()).filter_map(move |i| {
        let (a, x) = actions[i];
        let catchers: Vec<&ActionAnalysis> = actions
            .iter()
            .enumerate()
            .filter(|(j, (c, _))| *j == i || a.leq_v(c, schema))
            .map(|(_, (_, y))| *y)
            .collect();
        let mut shrinking = (0..x.n_conjs()).filter(|&d| x.shrinking[d]);
        shrinking.find_map(|d| {
            x.steps(d).windows(2).find_map(|w| {
                let fallen = union_subtract(x.region_at(d, w[0]), x.region_at(d, w[1]));
                if fallen.is_empty() {
                    return None;
                }
                let cover: Vec<Region> = catchers
                    .iter()
                    .flat_map(|c| c.regions_at(w[1]))
                    .cloned()
                    .collect();
                let residue = fallen
                    .iter()
                    .find_map(|f| implies_union_residue(f, &cover))?;
                Some(Escape {
                    action: i,
                    conj: d,
                    day: w[1],
                    residue,
                })
            })
        })
    })
}

/// The reduction schedule of a whole specification: one
/// [`ActionAnalysis`] per action, shared by `Arc`, plus the merged
/// sorted transition-day list. Between consecutive transition days the
/// reduction function is constant, so these are the only days an ager
/// must stop at.
#[derive(Debug, Clone)]
pub struct ReductionSchedule {
    analyses: Vec<(ActionId, Arc<ActionAnalysis>)>,
    transitions: Vec<DayNum>,
    horizon: (DayNum, DayNum),
}

impl ReductionSchedule {
    /// Builds the schedule of `spec` afresh: analyzes every action — the
    /// analysis `spec` ran when they entered it, and holds as
    /// [`DataReductionSpec::schedule`] — and merges their transition days.
    pub fn build(spec: &DataReductionSpec) -> Result<ReductionSchedule, ReduceError> {
        Ok(Self::analyze(spec.schema(), Vec::new(), spec.actions())?)
    }

    /// The one analysis site: `known` plus a fresh analysis of each of
    /// `new`, traced as `reduce.analyze`.
    pub(crate) fn analyze(
        schema: &Schema,
        mut known: Vec<(ActionId, Arc<ActionAnalysis>)>,
        new: &[(ActionId, ActionSpec)],
    ) -> Result<ReductionSchedule, SpecError> {
        let _span = sdr_obs::span("reduce.analyze");
        for (id, a) in new {
            known.push((*id, Arc::new(ActionAnalysis::build(schema, &a.pred)?)));
        }
        let sched = Self::merge(schema, known);
        sdr_obs::attr("actions", new.len());
        sdr_obs::attr("transition_days", sched.transitions.len());
        Ok(sched)
    }

    /// The schedule of analyzed actions: their transition days merged.
    pub(crate) fn merge(
        schema: &Schema,
        analyses: Vec<(ActionId, Arc<ActionAnalysis>)>,
    ) -> ReductionSchedule {
        let mut transitions: Vec<DayNum> =
            analyses.iter().flat_map(|(_, a)| a.transitions()).collect();
        transitions.sort_unstable();
        transitions.dedup();
        ReductionSchedule {
            analyses,
            transitions,
            horizon: time_horizon(schema),
        }
    }

    /// The per-action analyses, in spec order.
    pub fn analyses(&self) -> &[(ActionId, Arc<ActionAnalysis>)] {
        &self.analyses
    }

    /// The merged sorted transition days: every day any action's
    /// selected set changes over the horizon.
    pub fn transition_days(&self) -> &[DayNum] {
        &self.transitions
    }

    /// The time horizon the schedule covers.
    pub fn horizon(&self) -> (DayNum, DayNum) {
        self.horizon
    }

    /// True when no action's selected set ever changes (the schedule is
    /// empty — aging degenerates to a watermark bump).
    pub fn is_static(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The first transition day strictly after `after`, if any.
    pub fn next_transition(&self, after: DayNum) -> Option<DayNum> {
        let i = self.transitions.partition_point(|&t| t <= after);
        self.transitions.get(i).copied()
    }

    /// The transition days in the half-open window `(after, until]`, in
    /// order — the tick stops an ager advancing from `after` to `until`
    /// must make (none when `until` is not after `after`).
    pub fn transitions_between(&self, after: DayNum, until: DayNum) -> Vec<DayNum> {
        let lo = self.transitions.partition_point(|&t| t <= after);
        let hi = self.transitions.partition_point(|&t| t <= until);
        self.transitions[lo..hi.max(lo)].to_vec()
    }

    /// The disjuncts (across all actions) whose raw grounding differs
    /// between days `t0` and `t1` — the only parts of the spec a cell's
    /// evaluation can change through across that tick.
    pub fn changed_conjs(&self, t0: DayNum, t1: DayNum) -> Vec<Conj> {
        let mut out = Vec::new();
        for (_, a) in &self.analyses {
            for d in 0..a.n_conjs() {
                if a.raw_at(d, t0) != a.raw_at(d, t1) {
                    out.push(a.dnf[d].clone());
                }
            }
        }
        out
    }

    /// The changed disjuncts of the tick `t0 → t1` as one predicate, or
    /// `None` when nothing changed. A cell whose evaluation of this
    /// predicate is false at **both** endpoints evaluates every action
    /// identically at both days and provably cannot move.
    pub fn delta_pred(&self, t0: DayNum, t1: DayNum) -> Option<Pexp> {
        let changed = self.changed_conjs(t0, t1);
        if changed.is_empty() {
            None
        } else {
            Some(from_dnf(&changed))
        }
    }

    /// The **symmetric difference** of every changed disjunct's
    /// concretized grounding between `t0` and `t1`. A cell disjoint from
    /// every returned region satisfies each changed disjunct identically
    /// at both days (it is either in the unchanged intersection or
    /// outside both groundings), so whole subcubes whose footprint
    /// misses all Δ regions are carried forward untouched.
    pub fn delta_regions(&self, t0: DayNum, t1: DayNum) -> Vec<Region> {
        let mut out = Vec::new();
        for (_, a) in &self.analyses {
            for d in 0..a.n_conjs() {
                if a.raw_at(d, t0) == a.raw_at(d, t1) {
                    continue;
                }
                let r0 = a.region_at(d, t0);
                let r1 = a.region_at(d, t1);
                out.extend(union_subtract(r0, r1));
                out.extend(union_subtract(r1, r0));
            }
        }
        out
    }

    /// The Δ regions' time extents as inclusive day windows, for subcube
    /// footprint pruning: a cube whose time footprint is disjoint from
    /// every window cannot hold a fact the tick `t0 → t1` touches.
    /// Returns `None` when pruning would be unsound — the schema has no
    /// time dimension, or some Δ region does not constrain time to an
    /// interval — in which case callers must scan every cube.
    pub fn delta_time_windows(
        &self,
        schema: &Schema,
        t0: DayNum,
        t1: DayNum,
    ) -> Option<Vec<(DayNum, DayNum)>> {
        let ti = schema.dims.iter().position(Dimension::is_time)?;
        let mut out = Vec::new();
        for r in self.delta_regions(t0, t1) {
            match &r.dims[ti] {
                GroundSet::Interval(iv) => {
                    if !iv.is_empty() {
                        let lo = iv.lo.clamp(DayNum::MIN as i64, DayNum::MAX as i64) as DayNum;
                        let hi = iv.hi.clamp(DayNum::MIN as i64, DayNum::MAX as i64) as DayNum;
                        out.push((lo, hi));
                    }
                }
                _ => return None,
            }
        }
        Some(out)
    }
}

/// `⋃a \ ⋃b` as a list of regions (residue of subtracting every region
/// of `b` from each region of `a`).
fn union_subtract(a: &[Region], b: &[Region]) -> Vec<Region> {
    let mut out = Vec::new();
    for r in a {
        let mut residue = vec![r.clone()];
        for s in b {
            let mut next = Vec::new();
            for x in residue {
                next.extend(x.subtract(s));
            }
            residue = next;
        }
        out.extend(residue);
    }
    out
}
