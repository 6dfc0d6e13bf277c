//! Storage-layer errors.

use sdr_mdm::MdmError;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// A serialized table does not match the schema it is opened with.
    SchemaMismatch,
    /// A serialized table is truncated or malformed.
    Corrupt(String),
    /// An underlying model error.
    Model(MdmError),
    /// A filesystem error.
    Io(std::io::Error),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::SchemaMismatch => write!(f, "serialized table schema mismatch"),
            StorageError::Corrupt(m) => write!(f, "corrupt table: {m}"),
            StorageError::Model(e) => write!(f, "{e}"),
            StorageError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<MdmError> for StorageError {
    fn from(e: MdmError) -> Self {
        StorageError::Model(e)
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
