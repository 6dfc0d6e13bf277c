//! Query-layer errors.

use sdr_mdm::MdmError;
use sdr_spec::SpecError;

/// Errors raised by query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Underlying model error.
    Model(MdmError),
    /// Predicate-language error.
    Spec(SpecError),
    /// A request the operators do not answer: a strict aggregation with
    /// no admissible facts in a dimension, a per-atom verdict asked of the
    /// weighted mode, and the like.
    Unsupported(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Model(e) => write!(f, "{e}"),
            QueryError::Spec(e) => write!(f, "{e}"),
            QueryError::Unsupported(m) => write!(f, "unsupported query: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<MdmError> for QueryError {
    fn from(e: MdmError) -> Self {
        QueryError::Model(e)
    }
}

impl From<SpecError> for QueryError {
    fn from(e: SpecError) -> Self {
        QueryError::Spec(e)
    }
}
