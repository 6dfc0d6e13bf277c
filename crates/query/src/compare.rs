//! Selection modes and the per-atom comparisons of Definition 5.
//!
//! Three evaluation *modes* are provided (Section 6.1):
//! * [`SelectMode::Conservative`] — Definition 5 verbatim: only facts
//!   *known* to satisfy the predicate qualify (the paper's default for
//!   warehouses, and ours);
//! * [`SelectMode::Liberal`] — facts that *might* satisfy it qualify;
//! * [`SelectMode::Weighted`] — facts qualify with a weight: the fraction
//!   of the fact's drill-down positions that satisfy the predicate
//!   (uniform-distribution semantics); `1.0` ⊇ conservative for the
//!   inequality operators, `> 0` ≡ liberal.
//!
//! The comparisons themselves read only the dimension, the values and
//! the operator, and live beside the predicate compiler in
//! [`sdr_spec::compare`]; the two boolean modes are the compiler's
//! [`LeafMeaning::Conservative`](sdr_spec::LeafMeaning) and
//! [`LeafMeaning::Liberal`](sdr_spec::LeafMeaning). The weighted mode has
//! no per-atom verdict: a cell's weight decides it whole.

use sdr_mdm::{DimValue, Dimension};
use sdr_spec::{compare_conservative, compare_liberal, CmpOp};
pub use sdr_spec::{compare_weight, member_weight};

use crate::error::QueryError;

/// Selection evaluation mode (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectMode {
    /// Keep only facts known to satisfy the predicate (Definition 5).
    Conservative,
    /// Keep facts that might satisfy the predicate.
    Liberal,
    /// Keep facts whose satisfaction weight is ≥ the threshold.
    Weighted {
        /// Minimum weight for a fact to qualify, in `[0, 1]`.
        threshold: f64,
    },
}

/// The text form (CLI `--mode`, the wire protocol's `mode=`):
/// `conservative`, `liberal` or `weighted:<threshold>`.
impl std::fmt::Display for SelectMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectMode::Conservative => f.write_str("conservative"),
            SelectMode::Liberal => f.write_str("liberal"),
            SelectMode::Weighted { threshold } => write!(f, "weighted:{threshold}"),
        }
    }
}

/// A weighted threshold must be a number in `[0, 1]`: `NaN` would keep
/// nothing and a negative one everything.
impl std::str::FromStr for SelectMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SelectMode, String> {
        match s {
            "conservative" => Ok(SelectMode::Conservative),
            "liberal" => Ok(SelectMode::Liberal),
            _ => match s.strip_prefix("weighted:").map(str::parse) {
                Some(Ok(threshold)) if (0.0..=1.0).contains(&threshold) => {
                    Ok(SelectMode::Weighted { threshold })
                }
                Some(_) => Err(format!("bad mode `{s}`")),
                None => Err(format!("unknown mode `{s}`")),
            },
        }
    }
}

/// The error of asking the weighted mode for a per-atom verdict.
fn no_verdict(mode: SelectMode) -> QueryError {
    QueryError::Unsupported(format!("`{mode}` weighs an atom; it has no verdict"))
}

/// Evaluates `v_fact op v_const` under a boolean `mode` (Definition 5).
/// The weighted mode weighs the comparison instead ([`compare_weight`]).
pub fn compare(
    dim: &Dimension,
    v_fact: DimValue,
    op: CmpOp,
    v_const: DimValue,
    mode: SelectMode,
) -> Result<bool, QueryError> {
    match mode {
        SelectMode::Conservative => Ok(compare_conservative(dim, v_fact, op, v_const)?),
        SelectMode::Liberal => Ok(compare_liberal(dim, v_fact, op, v_const)?),
        SelectMode::Weighted { .. } => Err(no_verdict(mode)),
    }
}

/// Whether a footprint covered to the share `w` qualifies under a boolean
/// `mode`: wholly (conservative) or at all (liberal).
pub(crate) fn covered(w: f64, mode: SelectMode) -> Result<bool, QueryError> {
    match mode {
        SelectMode::Conservative => Ok(w >= 1.0),
        SelectMode::Liberal => Ok(w > 0.0),
        SelectMode::Weighted { .. } => Err(no_verdict(mode)),
    }
}

/// Membership `v_fact ∈ {v₁, …, vₖ}` (Equation 35) under a boolean `mode`:
/// conservatively, every drill-down of `v'` matches some drill-down of a
/// member — the footprint is fully covered. The weighted mode weighs it
/// instead ([`member_weight`]).
pub fn member_of(
    dim: &Dimension,
    v_fact: DimValue,
    consts: &[DimValue],
    mode: SelectMode,
) -> Result<bool, QueryError> {
    covered(member_weight(dim, v_fact, consts)?, mode)
}
