//! Data-reduction specifications: validated sets of actions.
//!
//! A specification `V = (A, ≤_V)` (Definition 1) is a *set* of actions —
//! unordered, effect independent of insertion order — partially ordered by
//! the component-wise granularity order `≤_V`. [`DataReductionSpec`] is
//! the checked container: constructing or evolving one re-establishes the
//! NonCrossing and Growing properties, so any value of this type is sound
//! by construction.
//!
//! Each action is analyzed once, when it enters ([`ActionAnalysis`]);
//! the specification holds the analyses — shared by `Arc` with every
//! clone — in its [`ReductionSchedule`], and the gate decides both
//! properties over them ([`crossings`], [`escapes`]). An `insert` grounds
//! only the new actions, a `delete` none.

use std::sync::Arc;

use sdr_mdm::{DayNum, Schema, TimeValue};
use sdr_spec::{ActionId, ActionSpec};

use crate::error::ReduceError;
use crate::schedule::{crossings, escapes, ActionAnalysis, ReductionSchedule};

/// A validated data-reduction specification `V = (A, ≤_V)`.
#[derive(Debug, Clone)]
pub struct DataReductionSpec {
    schema: Arc<Schema>,
    actions: Vec<(ActionId, ActionSpec)>,
    next_id: u32,
    /// Pre-built obs counter names (`reduce.action.a{id}.facts_raised`),
    /// index-aligned with `actions`, so repeated reductions (e.g. the
    /// subcube sync path) never re-format metric names.
    raised_metrics: Vec<String>,
    /// Every action's analysis, index-aligned with `actions`, and the
    /// transition days they merge into.
    schedule: ReductionSchedule,
}

/// The obs counter name for one action's raise count.
fn raised_metric_name(id: u32) -> String {
    format!("reduce.action.a{id}.facts_raised")
}

/// The soundness gate over analyzed actions: the first NonCrossing
/// witness, else the first Growing witness, as the error it proves.
fn gate<'a>(
    schema: &Schema,
    specs: impl IntoIterator<Item = &'a ActionSpec>,
    schedule: &ReductionSchedule,
) -> Result<(), ReduceError> {
    let analyses = schedule.analyses().iter().map(|(_, x)| &**x);
    let actions: Vec<(&ActionSpec, &ActionAnalysis)> = specs.into_iter().zip(analyses).collect();
    let render = |i: usize| actions[i].0.render(schema);
    if let Some(c) = crossings(schema, &actions).next() {
        return Err(ReduceError::NotNonCrossing {
            a: render(c.pair.0),
            b: render(c.pair.1),
            witness_day: TimeValue::Day(c.day).render(),
        });
    }
    if let Some(e) = escapes(schema, &actions).next() {
        return Err(ReduceError::NotGrowing {
            action: render(e.action),
            witness_day: TimeValue::Day(e.day).render(),
        });
    }
    Ok(())
}

impl DataReductionSpec {
    /// Creates an empty specification (trivially sound).
    pub fn empty(schema: Arc<Schema>) -> Self {
        DataReductionSpec {
            schedule: ReductionSchedule::merge(&schema, Vec::new()),
            schema,
            actions: Vec::new(),
            next_id: 0,
            raised_metrics: Vec::new(),
        }
    }

    /// Creates a specification from an initial action set, verifying the
    /// NonCrossing and Growing properties.
    ///
    /// # Errors
    /// [`ReduceError::NotNonCrossing`] / [`ReduceError::NotGrowing`] with a
    /// witness when the set is unsound; [`ReduceError::Spec`] when an
    /// action cannot be analyzed (a date term outside the horizon).
    pub fn new(schema: Arc<Schema>, actions: Vec<ActionSpec>) -> Result<Self, ReduceError> {
        let n = actions.len() as u32;
        let tagged = (0..n).map(ActionId).zip(actions).collect();
        Self::from_parts(schema, tagged, n)
    }

    /// Restores a specification from persisted parts (the checkpoint
    /// recovery path): explicit action ids plus the insert counter, so
    /// that replayed `insert`/`delete` operations allocate and resolve
    /// the same [`ActionId`]s as the original run. The actions are
    /// analyzed and gated like any others — a restored value is sound by
    /// construction.
    pub fn from_parts(
        schema: Arc<Schema>,
        actions: Vec<(ActionId, ActionSpec)>,
        next_id: u32,
    ) -> Result<Self, ReduceError> {
        for (_, a) in &actions {
            a.validate(&schema)?;
        }
        let schedule = ReductionSchedule::analyze(&schema, Vec::new(), &actions)?;
        gate(&schema, actions.iter().map(|(_, a)| a), &schedule)?;
        Ok(DataReductionSpec {
            raised_metrics: actions
                .iter()
                .map(|(id, _)| raised_metric_name(id.0))
                .collect(),
            schema,
            actions,
            next_id,
            schedule,
        })
    }

    /// The reduction schedule: every action's analysis, made when it
    /// entered, and the transition days they merge into.
    pub fn schedule(&self) -> &ReductionSchedule {
        &self.schedule
    }

    /// The id the next inserted action will receive (monotonic — ids of
    /// deleted actions are never reused).
    pub fn next_action_id(&self) -> u32 {
        self.next_id
    }

    /// The schema this specification targets.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The actions with their ids.
    pub fn actions(&self) -> &[(ActionId, ActionSpec)] {
        &self.actions
    }

    /// Looks an action up by id.
    pub fn get(&self, id: ActionId) -> Result<&ActionSpec, ReduceError> {
        self.actions
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, a)| a)
            .ok_or(ReduceError::UnknownAction(id.0))
    }

    /// Number of actions `|A|`.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the specification holds no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The `insert` operator (Definition 3): adds a *set* of actions if and
    /// only if the combined specification remains Growing and NonCrossing;
    /// otherwise the specification is left unchanged and an error
    /// describing the violation is returned.
    ///
    /// Consistency is checked on the action specifications alone — never on
    /// the facts of any MO (the paper requires insertability to be
    /// instance-independent). Only the new actions are analyzed.
    pub fn insert(&mut self, new: Vec<ActionSpec>) -> Result<Vec<ActionId>, ReduceError> {
        for a in &new {
            a.validate(&self.schema)?;
        }
        let tagged: Vec<(ActionId, ActionSpec)> = (self.next_id..).map(ActionId).zip(new).collect();
        let known = self.schedule.analyses().to_vec();
        let rejected = |e: ReduceError| ReduceError::InsertRejected(Box::new(e));
        let schedule = ReductionSchedule::analyze(&self.schema, known, &tagged)
            .map_err(|e| rejected(e.into()))?;
        let candidate = self.actions.iter().chain(&tagged).map(|(_, a)| a);
        gate(&self.schema, candidate, &schedule).map_err(rejected)?;
        let ids: Vec<ActionId> = tagged.iter().map(|(id, _)| *id).collect();
        self.next_id += ids.len() as u32;
        self.raised_metrics
            .extend(ids.iter().map(|id| raised_metric_name(id.0)));
        self.actions.extend(tagged);
        self.schedule = schedule;
        Ok(ids)
    }

    /// The `delete` operator (Definition 4): removes a set of actions if
    /// (a) the remaining specification stays Growing and NonCrossing, and
    /// (b) none of the deleted actions is currently *responsible* for any
    /// fact in `mo` at time `now` — i.e. for every fact whose cell
    /// satisfies a deleted action's predicate, either the action would not
    /// raise the fact's granularity, or a remaining action aggregates the
    /// cell at least as high.
    ///
    /// All-or-nothing: on any violation the specification is unchanged.
    /// Nothing is re-analyzed.
    pub fn delete(
        &mut self,
        ids: &[ActionId],
        mo: &sdr_mdm::Mo,
        now: DayNum,
    ) -> Result<(), ReduceError> {
        for id in ids {
            self.get(*id)?;
        }
        let remaining: Vec<&ActionSpec> = self
            .actions
            .iter()
            .filter(|(i, _)| !ids.contains(i))
            .map(|(_, a)| a)
            .collect();
        let analyses = self.schedule.analyses().iter();
        let analyses = analyses.filter(|(i, _)| !ids.contains(i)).cloned();
        let schedule = ReductionSchedule::merge(&self.schema, analyses.collect());
        gate(&self.schema, remaining.iter().copied(), &schedule)
            .map_err(|e| ReduceError::DeleteRejected(e.to_string()))?;
        // Responsibility check against the actual facts (Definition 4's
        // deliberate instance dependence — see the paper's discussion).
        for id in ids {
            let a = self.get(*id)?;
            for f in mo.facts() {
                let coords = mo.coords(f);
                let sat = sdr_spec::eval_pred(&self.schema, &a.pred, &coords, now)?;
                if !sat {
                    continue;
                }
                // The action has no effect when it would not raise the
                // fact's granularity…
                if a.grain.leq(&mo.gran(f), &self.schema) {
                    continue;
                }
                // …or when a remaining action aggregates at least as high.
                let covered = remaining.iter().any(|r| {
                    a.grain.leq(&r.grain, &self.schema)
                        && sdr_spec::eval_pred(&self.schema, &r.pred, &coords, now).unwrap_or(false)
                });
                if !covered {
                    return Err(ReduceError::DeleteRejected(format!(
                        "action {} is responsible for fact {}",
                        id.0,
                        mo.render_fact(f)
                    )));
                }
            }
        }
        self.actions.retain(|(i, _)| !ids.contains(i));
        self.schedule = schedule;
        self.raised_metrics = self
            .actions
            .iter()
            .map(|(id, _)| raised_metric_name(id.0))
            .collect();
        Ok(())
    }

    /// The cached obs counter name for an action's raise count
    /// (`reduce.action.a{id}.facts_raised`); `None` for unknown ids.
    pub fn raised_metric(&self, id: ActionId) -> Option<&str> {
        self.actions
            .iter()
            .position(|(i, _)| *i == id)
            .map(|k| self.raised_metrics[k].as_str())
    }

    /// Renders the whole specification.
    pub fn render(&self) -> String {
        self.actions
            .iter()
            .map(|(id, a)| format!("a{} = {}", id.0, a.render(&self.schema)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}
