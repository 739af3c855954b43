//! The common engine surface: one trait pair implemented by every
//! [`Store`] — [`crate::IvaDb`] and [`crate::LsmDb`] — so callers, the
//! serving layer above all, are generic over the write path.
//!
//! [`Engine`] is the read side: everything that runs with `&self` and is
//! safe to call from any number of threads at once (every engine holds
//! only `Sync` state on the query path). [`EngineWriter`] is the write
//! side: the `&mut self` mutators, which the serving layer funnels
//! through a single [`crate::serve::Writer`] handle.
//!
//! The split mirrors how the system is meant to be deployed: one writer
//! thread owns the mutations and publishes epoch snapshots; reader
//! threads execute searches against whichever snapshot they pinned.

use iva_core::{MetricKind, Query, QueryStats, Result};
use iva_swt::{AttrId, Tid, Tuple};

use crate::search::{QueryBuilder, SearchRequest};
use crate::store::{SearchOutcome, Store, Tiered};

/// What any engine's search outcome can report. `hit_keys` gives a
/// shape-independent digest — `(distance bits, tid, 0)` per hit, in rank
/// order — so generic callers (the concurrent-reader tests, the load
/// harness) can compare results across engines and execution shapes
/// bit-for-bit.
pub trait EngineOutcome {
    /// Measurement counters of the run.
    fn stats(&self) -> &QueryStats;
    /// `(dist.to_bits(), tid, 0)` per hit in rank order. The third column
    /// is always 0: it is kept only because the load harness names the
    /// triple.
    fn hit_keys(&self) -> Vec<(u64, u64, u32)>;
}

impl EngineOutcome for SearchOutcome {
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
    fn hit_keys(&self) -> Vec<(u64, u64, u32)> {
        self.hits
            .iter()
            .map(|h| (h.dist.to_bits(), h.tid, 0))
            .collect()
    }
}

/// The read side of an engine: concurrent top-k search with `&self`.
///
/// Implemented by every [`Store`]; the serving layer ([`crate::serve`])
/// is generic over this trait, so a deployment can switch between one
/// database and a segmented one without touching its serving code. Both
/// serve the paper's horizontal partition (see the crate docs).
pub trait Engine: Send + Sync {
    /// What one search run produces.
    type Outcome: EngineOutcome + Send;

    /// Build a [`Query`] from attribute names resolved through the
    /// engine's catalog.
    fn query_builder(&self) -> QueryBuilder<'_>;

    /// Run one top-k search as described by `request`.
    fn execute(&self, query: &Query, request: &SearchRequest) -> Result<Self::Outcome>;

    /// The metric used when a request carries no override.
    fn default_metric(&self) -> MetricKind;

    /// Live tuple count.
    fn len(&self) -> u64;

    /// True if no live tuples exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The write side of an engine: every `&mut self` mutator the serving
/// layer routes through its single [`crate::serve::Writer`]. Operations
/// not listed here (`update`, `rebuild`, …) remain reachable through
/// [`crate::serve::Writer::apply`].
pub trait EngineWriter: Engine {
    /// The engine's tuple handle: [`Tid`] for both engines, kept as an
    /// associated type only because the load harness names it.
    type Id: Copy + Send + Sync + std::fmt::Debug;

    /// Define (or look up) a text attribute.
    fn define_text(&mut self, name: &str) -> Result<AttrId>;

    /// Define (or look up) a numerical attribute.
    fn define_numeric(&mut self, name: &str) -> Result<AttrId>;

    /// Insert a tuple; returns its handle.
    fn insert(&mut self, tuple: &Tuple) -> Result<Self::Id>;

    /// Delete a tuple by handle. Returns false if absent/already deleted.
    fn delete(&mut self, id: Self::Id) -> Result<bool>;

    /// Fetch a live tuple by handle.
    fn get(&self, id: Self::Id) -> Result<Option<Tuple>>;

    /// Persist all files durably.
    fn flush(&mut self) -> Result<()>;
}

impl<T: Tiered + Send + Sync> Engine for Store<T> {
    type Outcome = SearchOutcome;

    fn query_builder(&self) -> QueryBuilder<'_> {
        Store::query_builder(self)
    }
    fn execute(&self, query: &Query, request: &SearchRequest) -> Result<SearchOutcome> {
        Store::execute(self, query, request)
    }
    fn default_metric(&self) -> MetricKind {
        Store::default_metric(self)
    }
    fn len(&self) -> u64 {
        Store::len(self)
    }
}

impl<T: Tiered + Send + Sync> EngineWriter for Store<T> {
    type Id = Tid;

    fn define_text(&mut self, name: &str) -> Result<AttrId> {
        Store::define_text(self, name)
    }
    fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        Store::define_numeric(self, name)
    }
    fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        Store::insert(self, tuple)
    }
    fn delete(&mut self, id: Tid) -> Result<bool> {
        Store::delete(self, id)
    }
    fn get(&self, id: Tid) -> Result<Option<Tuple>> {
        Store::get(self, id)
    }
    fn flush(&mut self) -> Result<()> {
        Store::flush(self)
    }
}
