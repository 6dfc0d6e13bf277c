//! The reduction schedule: precomputed transition days for incremental
//! aging.
//!
//! The lint engine (PR 5) proved that every disjunct's grounding is a
//! **staircase function of `NOW`** — piecewise constant between
//! computable step days. This module turns that fact into a scheduler:
//! [`ActionAnalysis`] caches, per action, the DNF, the step days of each
//! disjunct, and the grounding at each step day (both raw and
//! concretized); [`ReductionSchedule`] merges those into one sorted
//! **transition-day** list for a whole [`DataReductionSpec`] — the only
//! days on which *any* cell can cross an action boundary.
//!
//! Between two consecutive transition days the reduction function is
//! constant, so an incremental ager (`SubcubeManager::age`) only has to
//! re-evaluate cells whose coordinates touch a grounding that *changed*
//! across the tick. [`ReductionSchedule::delta_pred`] returns exactly the
//! changed disjuncts (as a predicate to evaluate per cell) and
//! [`ReductionSchedule::delta_regions`] returns the **symmetric
//! difference** of the changed groundings — a cell outside every Δ
//! region evaluates identically at both endpoints and provably cannot
//! move. `crates/lint` builds its span-carrying `AnalyzedAction` on top
//! of [`ActionAnalysis`], so the linter and the ager share one analysis
//! cache.

use sdr_mdm::{DayNum, Dimension, Schema};
use sdr_prover::{GroundSet, Region};
use sdr_spec::{
    classify_conj, from_dnf, ground_conj, step_days, to_dnf, ActionId, Conj, GrowthClass, Pexp,
    SpecError,
};

use crate::checks_util::{concretize_all, time_horizon};
use crate::{DataReductionSpec, ReduceError};

/// The cached, span-free analysis of one action predicate: DNF, per
/// disjunct step days, and the grounding at each step day. Groundings
/// are stored twice — raw (exactly what [`ground_conj`] returned, used
/// to *detect* change) and concretized against the schema's domains
/// (used for region algebra and footprint pruning).
#[derive(Debug, Clone)]
pub struct ActionAnalysis {
    dnf: Vec<Conj>,
    /// Per disjunct: the days at which its grounding changes (includes
    /// both horizon endpoints).
    steps: Vec<Vec<DayNum>>,
    /// Per disjunct, per step day: the raw grounding.
    raw: Vec<Vec<Vec<Region>>>,
    /// Per disjunct, per step day: the concretized grounding (empty
    /// regions dropped).
    grounded: Vec<Vec<Vec<Region>>>,
    /// Per disjunct: syntactically shrinking (categories F–H)?
    shrinking: Vec<bool>,
    dynamic: bool,
}

impl ActionAnalysis {
    /// Analyzes `pred` over the schema's full time horizon: DNF, step
    /// days per disjunct, grounding at every step day.
    pub fn build(schema: &Schema, pred: &Pexp) -> Result<ActionAnalysis, SpecError> {
        let (from, to) = time_horizon(schema);
        let dnf = to_dnf(pred);
        let mut steps = Vec::with_capacity(dnf.len());
        let mut raw = Vec::with_capacity(dnf.len());
        let mut grounded = Vec::with_capacity(dnf.len());
        let mut shrinking = Vec::with_capacity(dnf.len());
        for conj in &dnf {
            let days = step_days(schema, conj, from, to)?;
            let mut raws = Vec::with_capacity(days.len());
            let mut regions = Vec::with_capacity(days.len());
            for &t in &days {
                let g = ground_conj(schema, conj, t)?;
                regions.push(concretize_all(schema, &g));
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
        })
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

    /// True when disjunct `d` is syntactically shrinking.
    pub fn shrinking(&self, d: usize) -> bool {
        self.shrinking[d]
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

/// The reduction schedule of a whole specification: one
/// [`ActionAnalysis`] per action plus the merged sorted transition-day
/// list. Between consecutive transition days the reduction function is
/// constant, so these are the only days an ager must stop at.
#[derive(Debug)]
pub struct ReductionSchedule {
    analyses: Vec<(ActionId, ActionAnalysis)>,
    transitions: Vec<DayNum>,
    horizon: (DayNum, DayNum),
}

impl ReductionSchedule {
    /// Builds the schedule for `spec`: analyzes every action and merges
    /// their transition days.
    pub fn build(spec: &DataReductionSpec) -> Result<ReductionSchedule, ReduceError> {
        let schema = spec.schema();
        let mut analyses = Vec::with_capacity(spec.len());
        let mut transitions = Vec::new();
        for (id, a) in spec.actions() {
            let analysis = ActionAnalysis::build(schema, &a.pred).map_err(ReduceError::Spec)?;
            transitions.extend(analysis.transitions());
            analyses.push((*id, analysis));
        }
        transitions.sort_unstable();
        transitions.dedup();
        Ok(ReductionSchedule {
            analyses,
            transitions,
            horizon: time_horizon(schema),
        })
    }

    /// The per-action analyses, in spec order.
    pub fn analyses(&self) -> &[(ActionId, ActionAnalysis)] {
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
