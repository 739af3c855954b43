//! Errors of the iVA-file index layer.

use std::fmt;

use iva_storage::StorageError;
use iva_swt::SwtError;
use iva_text::SigError;

/// Errors produced by index build, query and update operations.
#[derive(Debug)]
pub enum IvaError {
    /// Propagated storage failure.
    Storage(StorageError),
    /// Propagated table failure.
    Swt(SwtError),
    /// On-disk index data failed validation.
    Corrupt(String),
    /// Invalid query or configuration.
    InvalidArgument(String),
    /// A tuple id outside the index's 32-bit tid space.
    TidOverflow(u64),
    /// An index insert failed part-way and may be half-applied. The table
    /// file is intact; reopening the store rebuilds the index from it.
    IndexTorn,
}

impl IvaError {
    /// True when the error means damaged, unreadable or stale on-disk
    /// index data — the failure class a rebuild from the table repairs.
    pub fn is_corruption(&self) -> bool {
        match self {
            IvaError::Corrupt(_) => true,
            IvaError::Storage(e) => e.is_corruption(),
            IvaError::Swt(SwtError::Corrupt(_)) => true,
            IvaError::Swt(SwtError::Storage(e)) => e.is_corruption(),
            _ => false,
        }
    }
}

impl fmt::Display for IvaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IvaError::Storage(e) => write!(f, "storage: {e}"),
            IvaError::Swt(e) => write!(f, "table: {e}"),
            IvaError::Corrupt(m) => write!(f, "corrupt index: {m}"),
            IvaError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            IvaError::TidOverflow(t) => write!(f, "tuple id {t} exceeds index tid space"),
            IvaError::IndexTorn => {
                write!(
                    f,
                    "an index update failed part-way: reopen to rebuild the index"
                )
            }
        }
    }
}

impl std::error::Error for IvaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IvaError::Storage(e) => Some(e),
            IvaError::Swt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for IvaError {
    fn from(e: StorageError) -> Self {
        IvaError::Storage(e)
    }
}

impl From<SwtError> for IvaError {
    fn from(e: SwtError) -> Self {
        IvaError::Swt(e)
    }
}

impl From<SigError> for IvaError {
    fn from(e: SigError) -> Self {
        // Malformed signature bytes mean the vector list is damaged.
        IvaError::Corrupt(format!("signature: {e}"))
    }
}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IvaError>;
