//! Error type shared by all storage-layer operations.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A page id beyond the end of the file was requested.
    PageOutOfBounds {
        /// The offending page id.
        page: u64,
        /// Number of pages currently in the file.
        pages: u64,
    },
    /// On-disk data failed validation (bad magic, truncated list, ...).
    Corrupt(String),
    /// A file is not what the opener expected: wrong magic, wrong format
    /// version, mismatched page size, or a truncated superblock. Reports
    /// what was expected against what was found, so garbage files are
    /// rejected with a diagnosable message instead of misread.
    Format {
        /// What the opener required (e.g. `magic "IVFB" v1`).
        expected: String,
        /// What the file actually contained.
        found: String,
    },
    /// A page's stored CRC32C did not match its contents (or the frame's
    /// reserved trailer bytes were not zero): the page is torn or
    /// bit-rotted. Detected at read time, before any byte is interpreted.
    ChecksumMismatch {
        /// The physical page id.
        page: u64,
        /// CRC stored in the page frame.
        expected: u32,
        /// CRC computed over the page contents.
        found: u32,
    },
    /// An operation was attempted with inconsistent arguments
    /// (e.g. a write crossing a page boundary).
    InvalidArgument(String),
}

impl StorageError {
    /// True for errors that mean "the bytes on disk are bad" — the
    /// corruption family callers treat as *rebuild or reject*, as opposed
    /// to transient I/O failures.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StorageError::Corrupt(_)
                | StorageError::Format { .. }
                | StorageError::ChecksumMismatch { .. }
                | StorageError::PageOutOfBounds { .. }
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::PageOutOfBounds { page, pages } => {
                write!(f, "page {page} out of bounds (file has {pages} pages)")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StorageError::Format { expected, found } => {
                write!(f, "bad file format: expected {expected}, found {found}")
            }
            StorageError::ChecksumMismatch {
                page,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch on page {page}: stored {expected:#010x}, computed {found:#010x}"
            ),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
