//! # iva-storage
//!
//! Storage substrate for the iVA-file reproduction: a paged file manager
//! with an LRU buffer pool, precise I/O accounting (sequential bytes vs.
//! random seeks), chained page lists for the append-at-tail structures the
//! paper's index is made of, and an analytical disk cost model used by the
//! benchmark harness to reproduce the 2009 disk-bound timing shape.
//!
//! Layering:
//!
//! ```text
//! ListWriter/ListReader/write_contiguous_list   (listfile)
//!                 |
//!               Pager  -- LruCache (buffer pool)
//!                 |
//!             BlockFile -- IoStats -- DiskModel
//! ```

#![warn(missing_docs)]

mod bytelog;
mod cache;
pub mod codec;
pub mod commit;
pub mod compress;
mod crc;
mod disk_model;
mod error;
mod fault;
mod file;
mod listfile;
pub mod manifest;
mod page;
mod pager;
mod stats;
pub mod vfs;

pub use bytelog::{sidecar_path, ByteLog};
pub use cache::{LruCache, PageRef};
pub use crc::{crc32c, crc32c_append, crc32c_append_portable, crc32c_kernel};
pub use disk_model::DiskModel;
pub use error::{Result, StorageError};
pub use fault::{FaultKind, FaultVfs, PlannedFault};
pub use file::{BlockFile, FORMAT_VERSION, FRAME_TRAILER, MIN_PAGE_SIZE, SUPERBLOCK_LEN};
pub use listfile::{
    overwrite_in_list, read_list_to_vec, write_contiguous_list, ListHandle, ListReader, ListWriter,
    LIST_PAGE_HEADER,
};
pub use manifest::{
    decode_manifest, encode_manifest, read_manifest, write_manifest, Manifest, SegmentMeta,
};
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use pager::{Pager, PagerOptions};
pub use stats::{IoSnapshot, IoStats};
pub use vfs::{read_to_vec, write_vec, MemVfs, RealVfs, Vfs, VfsFile};
