//! Error types for the multidimensional model.

/// Errors raised by model construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdmError {
    /// The category DAG violates a structural requirement.
    InvalidCategoryGraph(String),
    /// A category was referenced that does not exist.
    UnknownCategory(String),
    /// A dimension was referenced that does not exist.
    UnknownDimension(String),
    /// A dimension value could not be parsed or resolved.
    ValueParse(String),
    /// Two categories are not comparable under `≤_T` where an order was
    /// required (e.g. roll-up across parallel branches).
    NotComparable(String, String),
    /// The time dimension horizon is empty.
    InvalidHorizon,
    /// A fact insert violated a model invariant (missing value, wrong
    /// category, unknown measure count, …).
    InvalidFact(String),
    /// A measure was referenced that does not exist.
    UnknownMeasure(String),
    /// The schema of two objects differs where it must match.
    SchemaMismatch(String),
    /// A roll-up between enumerated values is inconsistent (two paths in a
    /// non-linear hierarchy disagree).
    InconsistentRollup(String),
    /// Where measures met, a SUM or COUNT left the `i64` range: nothing
    /// holding the wrong value was stored or returned.
    MeasureOverflow {
        /// The aggregate and measure, e.g. `SUM(Revenue)`.
        measure: String,
        /// The rendered coordinates of the group it overflowed in.
        cell: String,
    },
}

impl std::fmt::Display for MdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdmError::InvalidCategoryGraph(m) => write!(f, "invalid category graph: {m}"),
            MdmError::UnknownCategory(m) => write!(f, "unknown category: {m}"),
            MdmError::UnknownDimension(m) => write!(f, "unknown dimension: {m}"),
            MdmError::ValueParse(m) => write!(f, "value parse error: {m}"),
            MdmError::NotComparable(a, b) => {
                write!(f, "categories `{a}` and `{b}` are not comparable")
            }
            MdmError::InvalidHorizon => write!(f, "time dimension horizon is empty"),
            MdmError::InvalidFact(m) => write!(f, "invalid fact: {m}"),
            MdmError::UnknownMeasure(m) => write!(f, "unknown measure: {m}"),
            MdmError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            MdmError::InconsistentRollup(m) => write!(f, "inconsistent roll-up: {m}"),
            MdmError::MeasureOverflow { measure, cell } => {
                write!(
                    f,
                    "measure overflow: {measure} of cell {cell} leaves the i64 range"
                )
            }
        }
    }
}

impl std::error::Error for MdmError {}
