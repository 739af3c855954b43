//! # iva-swt
//!
//! The sparse wide table (SWT) substrate of the iVA-file reproduction: a
//! single physically-stored table with thousands of attributes, most of
//! them undefined (*ndf*) in any given tuple (Sec. I-A and III-A of the
//! paper). Tuples are stored row-wise in the *interpreted format* of
//! Beckmann et al. — each record lists only its defined `(attribute,
//! value)` pairs — in an append-only, page-cached table file supporting
//! fast sequential scans, random fetch by record pointer, deletes by tid
//! (one resident tombstone set) and compaction. The attribute catalog and
//! the tombstone set commit with the records in the table file's one
//! commit record. The table keeps no statistics:
//! each attribute's `df`, `str` and numeric domain live in the index's
//! attribute list (Sec. III-C/III-D), which the index build counts.

#![warn(missing_docs)]

mod error;
mod record;
mod schema;
mod swt;
mod table;
mod value;

pub use error::{Result, SwtError};
pub use record::{
    decode_record, encode_record, record_len, FieldLoc, Fields, RecordView, TextRef, ValueRef,
};
pub use schema::{AttrDef, AttrId, AttrType, Catalog};
pub use swt::{table_file_path, SwtTable};
pub use table::{RecordBuf, RecordPtr, RecordRef, StoredRecord, TableFile, TableScan, Tid};
pub use value::{Tuple, Value};
