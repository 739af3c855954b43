//! # iva-swt
//!
//! The sparse wide table (SWT) substrate of the iVA-file reproduction: a
//! single physically-stored table with thousands of attributes, most of
//! them undefined (*ndf*) in any given tuple (Sec. I-A and III-A of the
//! paper). Tuples are stored row-wise in the *interpreted format* of
//! Beckmann et al. — each record lists only its defined `(attribute,
//! value)` pairs — in an append-only, page-cached table file supporting
//! fast sequential scans, random fetch by record pointer, tombstone
//! deletes and compaction.

#![warn(missing_docs)]

mod error;
mod record;
mod schema;
mod stats;
mod swt;
mod table;
mod value;

pub use error::{Result, SwtError};
pub use record::{
    decode_record, encode_record, record_len, FieldLoc, Fields, RecordView, TextRef, ValueRef,
};
pub use schema::{AttrDef, AttrId, AttrType, Catalog};
pub use stats::{AttrStats, TableStats};
pub use swt::{catalog_path, table_file_path, SwtTable};
pub use table::{RecordBuf, RecordPtr, RecordRef, StoredRecord, TableFile, TableScan, Tid};
pub use value::{Tuple, Value};
