//! A fluent query driver combining the Section 6 operators.
//!
//! The paper's algebra is deliberately small — selection, projection,
//! aggregate formation — so that "the computational power of the language
//! will not surpass that of any commercial OLAP tool". [`Query`] chains
//! those operators in the conventional order (σ → π → α) with sensible
//! defaults (conservative selection, availability aggregation), which is
//! what the examples use.

use sdr_mdm::{DayNum, Mo};
use sdr_spec::Pexp;

use crate::aggregate::{aggregate, AggApproach};
use crate::compare::SelectMode;
use crate::error::QueryError;
use crate::project::project;
use crate::select::select;

/// A composed query over a (possibly reduced) MO.
#[derive(Debug, Clone, Default)]
pub struct Query {
    pred: Option<Pexp>,
    mode: Option<SelectMode>,
    keep_dims: Option<Vec<String>>,
    keep_measures: Option<Vec<String>>,
    levels: Option<Vec<String>>,
    approach: Option<AggApproach>,
}

impl Query {
    /// An empty query (returns the input unchanged).
    pub fn new() -> Self {
        Query::default()
    }

    /// Adds a selection predicate (σ).
    pub fn filter(mut self, pred: Pexp) -> Self {
        self.pred = Some(pred);
        self
    }

    /// Sets the selection mode (default: conservative, the paper's
    /// recommendation for warehouses).
    pub fn mode(mut self, mode: SelectMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Projects onto the named dimensions and measures (π).
    pub fn project(mut self, dims: &[&str], measures: &[&str]) -> Self {
        self.keep_dims = Some(dims.iter().map(|s| s.to_string()).collect());
        self.keep_measures = Some(measures.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Aggregates to the named `Dim.category` levels (α).
    pub fn roll_up(mut self, levels: &[&str]) -> Self {
        self.levels = Some(levels.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sets the aggregation approach (default: availability).
    pub fn approach(mut self, approach: AggApproach) -> Self {
        self.approach = Some(approach);
        self
    }

    /// Runs the query against `mo` at time `now`.
    pub fn run(&self, mo: &Mo, now: DayNum) -> Result<Mo, QueryError> {
        let mut cur = match &self.pred {
            Some(p) => select(mo, p, now, self.mode.unwrap_or(SelectMode::Conservative))?,
            None => mo.clone(),
        };
        if let (Some(d), Some(m)) = (&self.keep_dims, &self.keep_measures) {
            let dims: Vec<&str> = d.iter().map(String::as_str).collect();
            let ms: Vec<&str> = m.iter().map(String::as_str).collect();
            cur = project(&cur, &dims, &ms)?;
        }
        if let Some(levels) = &self.levels {
            let ls: Vec<&str> = levels.iter().map(String::as_str).collect();
            cur = aggregate(
                &cur,
                &ls,
                self.approach.unwrap_or(AggApproach::Availability),
            )?;
        }
        Ok(cur)
    }
}
