//! # iva-core
//!
//! The iVA-file (inverted vector approximation file) — the paper's primary
//! contribution: a content-conscious, scan-efficient, metric-oblivious
//! index for structured similarity search over sparse wide tables.
//!
//! Structure (Fig. 5): one *tuple list* (`<tid, ptr>` per tuple), one
//! *attribute list* (per-attribute metadata + vector-list location), and
//! one *vector list* per attribute holding approximation vectors —
//! nG-signatures for strings, relative-domain codes for numbers — in one of
//! four organizations (Types I–IV) selected by exact size formulas.
//!
//! Query processing (Algorithm 1) scans the tuple list and the query
//! attributes' vector lists in one synchronized pass, lower-bounds each
//! tuple's distance through any monotone metric, and random-accesses the
//! table file only for candidates the top-k pool admits — the "parallel
//! plan" that works even though unbounded strings admit no upper bound.
//! That pass exists once (the `scan` module), on the thread that issued
//! the query, behind one entry: [`IvaIndex::walk_tier`] walks one index
//! for a [`CarriedQuery`], on its pool carried across the tiers of a
//! segmented store; [`IvaIndex::query`] is that walk on one index. Every
//! tier split and drain window is bit-identical to the walk of one index
//! by one order-independence lemma:
//! candidates are collected during the pass and fetched by need — the k
//! best estimates first, then whatever the tightened pool still admits.
//!
//! Guarantee: with no-false-negative vector encodings and a monotone
//! metric, results are exactly the brute-force top-k.

#![warn(missing_docs)]

mod build;
mod config;
mod dirlist;
mod error;
mod index;
mod indexed_table;
mod interchange;
mod layout;
mod metric;
mod numeric;
mod packed;
mod pool;
mod query;
mod scan;
mod segment;
mod seqplan;
mod timing;
mod veclist;

pub use build::{build_index, IndexTarget};
pub use config::IvaConfig;
pub use error::{IvaError, Result};
pub use index::{
    CarriedQuery, ExplainAttr, IvaIndex, QueryExplain, QueryMatchers, QueryOutcome, ScanCarry,
};
pub use indexed_table::IndexedTable;
pub use interchange::{export_index, import_index, ExportedAttr, ExportedIndex};
pub use layout::{AttrEntry, IndexHeader, INDEX_VERSION, TOMBSTONE_PTR, TUPLE_ENTRY_LEN};
pub use metric::{Metric, MetricKind, WeightScheme};
pub use numeric::NumericCodec;
pub use packed::{encode_packed_num_list, encode_packed_text_list, PackedReader};
pub use pool::{Admission, PoolEntry, ResultPool};
pub use query::{attr_difference, bounded_distance, exact_distance, Query, QueryStats, QueryValue};
pub use segment::{
    collect_orphans, remove_segment_files, segment_base, segment_file_candidates,
    segment_index_path, Segment,
};
pub use timing::monotonic_nanos;
pub use veclist::{
    choose_num_type, choose_text_type, encode_num_list, encode_text_list, num_list_sizes,
    text_list_sizes, ListType, NumListCursor, TextListCursor, LNUM, LTID,
};
