//! # iva-file
//!
//! A from-scratch Rust implementation of the **iVA-file** (inverted vector
//! approximation file) from *"iVA-File: Efficiently Indexing Sparse Wide
//! Tables in Community Systems"* (ICDE 2009) — the first content-conscious
//! index for top-k structured similarity search over sparse wide tables —
//! together with the complete system around it: the interpreted-format
//! table storage, nG-signature string approximation, relative-domain
//! numeric codes, the evaluation baselines (SII, DST, VA-file), a
//! calibrated Google-Base-like workload generator, and a benchmark harness
//! regenerating every figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! The serving API splits the engine into one mutating [`Writer`] and any
//! number of cloneable [`Reader`]s. The writer publishes an immutable
//! *epoch snapshot* after every mutation; readers pin snapshots and run
//! searches against them from any thread.
//!
//! ```
//! use iva_file::serve::Writer;
//! use iva_file::{IvaDb, IvaDbOptions, SearchRequest, Tuple, Value};
//!
//! let mut writer = Writer::new(IvaDb::create_mem(IvaDbOptions::default()).unwrap());
//! let ty = writer.define_text("Type").unwrap();
//! let price = writer.define_numeric("Price").unwrap();
//! let company = writer.define_text("Company").unwrap();
//!
//! writer
//!     .insert(
//!         &Tuple::new()
//!             .with(ty, Value::text("Digital Camera"))
//!             .with(price, Value::num(230.0))
//!             .with(company, Value::text("Canon")),
//!     )
//!     .unwrap();
//!
//! // Readers are cheap Arc clones; snapshots pin one publication.
//! let reader = writer.reader();
//! let snap = reader.snapshot();
//!
//! // Queries address attributes by name, resolved through the catalog;
//! // a SearchRequest carries the execution knobs (k, metric, weights).
//! let query = snap
//!     .query_builder()
//!     .text("Type", "Digital Camera")
//!     .text("Company", "Cannon")
//!     .build()
//!     .unwrap();
//! let outcome = snap.execute(&query, &SearchRequest::new(5)).unwrap();
//! assert_eq!(outcome.hits[0].dist, 1.0); // one typo away
//! assert_eq!(outcome.stats.tuples_scanned, 1);
//! ```
//!
//! Single-caller deployments can keep using [`IvaDb`] directly — the
//! writer/reader split wraps the same engine without copying it, and
//! [`serve::Server`] adds an admission queue whose workers execute one
//! request at a time (see the [`serve`] module docs).
//!
//! There is one store, [`Store`], and it implements [`Engine`]. Its two
//! spellings differ only in their tier set ([`Tiered`]): [`IvaDb`] is
//! one table file + iVA-file pair, [`LsmDb`] a memtable in front of
//! sealed segments. Both answer a query through one search path: every
//! tier walked once, in tid order, on a pool carried from tier to tier.
//! A query runs on the thread that issued it; parallelism is across
//! queries ([`serve::Server`]'s workers). The horizontal partitioning of
//! the paper's Sec. VI is `LsmDb`'s: every segment is an independent
//! pair, walked in tid order on the carried pool, bit-identical to one
//! serial scan of the monolith.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | `iva-storage` | pager, buffer pool, chained lists, I/O accounting |
//! | `iva-text` | n-grams, edit distance, nG-signatures |
//! | `iva-swt` | the sparse wide table (interpreted row format) |
//! | `iva-core` | the iVA-file index and query processor |
//! | `iva-baselines` | SII, DST, VA-file |
//! | `iva-workload` | synthetic Google-Base-like datasets and query sets |
//! | `iva-bench` | per-figure experiment harness |

#![warn(missing_docs)]

mod db;
mod engine;
mod lsm;
mod search;
pub mod serve;
mod store;

pub use db::{IvaDb, IvaDbOptions};
pub use engine::{Engine, EngineOutcome, EngineWriter};
pub use lsm::{LsmDb, LsmOptions, MaintenancePlan};
pub use search::{QueryBuilder, SearchRequest};
pub use serve::{Client, Reader, ServeOptions, Server, ServingStats, Snapshot, Writer};
pub use store::{SearchHit, SearchOutcome, Store, Tiered};

// Re-export the pieces users compose.
pub use iva_core::{
    build_index, IndexTarget, IvaConfig, IvaError, IvaIndex, Metric, MetricKind, Query, QueryStats,
    QueryValue, Result, WeightScheme,
};
pub use iva_storage::{DiskModel, IoSnapshot, IoStats, PagerOptions};
pub use iva_swt::{AttrId, AttrType, Catalog, SwtTable, Tid, Tuple, Value};

/// The virtual-filesystem seam and its fault-injecting implementation
/// (crash testing, deterministic torture harnesses).
pub mod vfs {
    pub use iva_storage::{
        write_vec, FaultKind, FaultVfs, MemVfs, PlannedFault, RealVfs, Vfs, VfsFile,
    };
}

/// Baseline methods from the paper's evaluation.
pub mod baselines {
    pub use iva_baselines::{DirectScan, SiiIndex, VaFile};
}

/// Workload generation (synthetic Google Base).
pub mod workload {
    pub use iva_workload::{generate_query_set, Dataset, QuerySet, WorkloadConfig};
}

/// String approximation internals (exposed for power users).
pub mod text {
    pub use iva_text::{
        edit_distance, edit_distance_bytes, est_prime, expected_relative_error,
        false_hit_probability, optimal_t, PreparedMatcher, QueryStringMatcher, SigCodec, SigError,
    };
}
