//! [`Store`]: the one store — a tier set behind one query and record
//! surface.

use iva_core::{
    IndexedTable, IvaError, IvaIndex, Metric, MetricKind, Query, QueryStats, Result, WeightScheme,
};
use iva_swt::{AttrId, AttrType, Catalog, Tid, Tuple};

use crate::search::{search, QueryBuilder, SearchRequest};

/// One search answer with its tuple materialized.
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// Tuple id.
    pub tid: Tid,
    /// Distance to the query (under the metric used).
    pub dist: f64,
    /// The matching tuple.
    pub tuple: Tuple,
}

/// Everything one search run produces: the ranked hits and the
/// measurement counters.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The top-k answers in ascending distance order.
    pub hits: Vec<SearchHit>,
    /// Measurement counters.
    pub stats: QueryStats,
}

/// The tiers a [`Store`] runs over: table + iVA-file pairs
/// ([`IndexedTable`]), each holding a tid range of its own, and the few
/// operations whose bodies differ between tier sets.
pub trait Tiered {
    /// Its pairs in tid order.
    fn tiers(&self) -> impl Iterator<Item = &IndexedTable>;
    /// The tier that holds `tid`.
    fn tier_of(&self, tid: Tid) -> &IndexedTable;
    /// The last of [`Tiered::tiers`]: the one inserts go to.
    fn newest(&self) -> &IndexedTable;
    /// The store's catalog: the newest tier's.
    fn catalog(&self) -> &Catalog {
        self.newest().table().catalog()
    }
    /// The metric and weight scheme of a request that names neither.
    fn defaults(&self) -> (MetricKind, WeightScheme);
    /// Define (or look up) an attribute of type `ty`.
    fn define(&mut self, name: &str, ty: AttrType) -> Result<AttrId>;
    /// Insert a tuple; returns its tuple id.
    fn insert(&mut self, tuple: &Tuple) -> Result<Tid>;
    /// Delete a tuple by id. Returns false if absent/already deleted.
    fn delete(&mut self, tid: Tid) -> Result<bool>;
    /// Persist every tier durably.
    fn flush(&mut self) -> Result<()>;
}

/// A complete community-data store: a tier set behind one query and
/// record surface.
///
/// [`crate::IvaDb`] and [`crate::LsmDb`] are both a `Store`. They differ
/// only in their tier set ([`Tiered`]): the monolith's one table +
/// iVA-file pair with its cleanup policy, or the LSM's sealed segments in
/// front of its memtable. Defining, inserting, deleting and flushing are
/// the tier set's; everything else a caller queries, reads and writes
/// through — update, get, the name-resolving query builder, λ, search —
/// is written once here, over the tiers.
pub struct Store<T> {
    pub(crate) set: T,
}

impl<T: Tiered> Store<T> {
    /// Define (or look up) a text attribute.
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        self.set.define(name, AttrType::Text)
    }

    /// Define (or look up) a numerical attribute.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        self.set.define(name, AttrType::Numeric)
    }

    /// Attribute id by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.set.catalog().id_of(name)
    }

    /// Insert a tuple; returns its tuple id (unique across tiers).
    pub fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        self.set.insert(tuple)
    }

    /// Delete a tuple by id, tombstoning it in the tier that holds it.
    /// Returns false if absent/already deleted. An `IvaDb` rebuilds once
    /// the deleted fraction reaches β ([`crate::IvaDbOptions`]).
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        self.set.delete(tid)
    }

    /// Update = delete + insert under a fresh tuple id (Sec. IV-B).
    /// Returns the new tuple id.
    ///
    /// If inserting `new_tuple` fails (say, it references an undefined
    /// attribute), the old tuple is reinserted — under a fresh id, like
    /// any update — so the data survives the failed attempt.
    pub fn update(&mut self, tid: Tid, new_tuple: &Tuple) -> Result<Tid> {
        let unknown = || IvaError::InvalidArgument(format!("update of unknown tuple {tid}"));
        let old = self.get(tid)?.ok_or_else(unknown)?;
        if !self.delete(tid)? {
            return Err(unknown());
        }
        self.insert(new_tuple).or_else(|e| {
            self.insert(&old)?;
            Err(e)
        })
    }

    /// Fetch a live tuple by id from the tier that holds it.
    pub fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        self.set.tier_of(tid).get(tid)
    }

    /// Build a [`Query`] from attribute names resolved through this
    /// store's catalog:
    ///
    /// ```
    /// # use iva_file::{IvaDb, IvaDbOptions, SearchRequest};
    /// # let mut db = IvaDb::create_mem(IvaDbOptions::default()).unwrap();
    /// # db.define_text("Company").unwrap();
    /// # db.define_numeric("Price").unwrap();
    /// let query = db.query_builder().text("Company", "Canon").num("Price", 230.0).build()?;
    /// let outcome = db.execute(&query, &SearchRequest::new(5))?;
    /// # Ok::<(), iva_file::IvaError>(())
    /// ```
    ///
    /// Unknown or mistyped names surface as
    /// [`IvaError::InvalidArgument`] from `build()`.
    pub fn query_builder(&self) -> QueryBuilder<'_> {
        QueryBuilder::new(self.set.catalog())
    }

    /// The weight `λ` of each query attribute under `scheme`, resolved
    /// across every tier, as every search of the store resolves it.
    pub fn resolve_weights(&self, query: &Query, scheme: WeightScheme) -> Vec<f64> {
        let tiers: Vec<_> = self.tiers().map(|t| (t.index(), t.table())).collect();
        IvaIndex::resolve_weights_across(&tiers, query, scheme)
    }

    /// Run one top-k search as described by `request`.
    pub fn execute(&self, query: &Query, request: &SearchRequest) -> Result<SearchOutcome> {
        let metric = request.metric_override().unwrap_or(self.default_metric());
        self.execute_metric(query, &metric, request)
    }

    /// [`Store::execute`] under a caller-supplied [`Metric`]
    /// implementation (for metrics beyond [`MetricKind`]).
    pub fn execute_metric<M: Metric>(
        &self,
        query: &Query,
        metric: &M,
        request: &SearchRequest,
    ) -> Result<SearchOutcome> {
        search(&self.set, query, metric, request, self.set.defaults().1)
    }

    /// The metric used when a request carries no override.
    pub fn default_metric(&self) -> MetricKind {
        self.set.defaults().0
    }

    /// Live tuple count across every tier.
    pub fn len(&self) -> u64 {
        self.tiers().map(IndexedTable::live_records).sum()
    }

    /// True if no live tuples exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned tuples across every tier: what their tables' tombstone
    /// sets hold until a rebuild, seal or merge drops them.
    pub fn deleted(&self) -> u64 {
        self.tiers()
            .map(|t| t.table().file().deleted_records())
            .sum()
    }

    /// Tombstoned tuples as a fraction of the records the tiers' tables
    /// store: for an `IvaDb`, its table's, the β the periodic cleanup
    /// compares against ([`crate::IvaDbOptions::cleaning_threshold`]).
    pub fn deleted_fraction(&self) -> f64 {
        match self.tiers().map(IndexedTable::total_records).sum::<u64>() {
            0 => 0.0,
            stored => self.deleted() as f64 / stored as f64,
        }
    }

    /// Every tier, oldest first: the pairs a search walks in tid order.
    pub fn tiers(&self) -> impl Iterator<Item = &IndexedTable> {
        self.set.tiers()
    }

    /// Persist every tier durably — for an `LsmDb`, the acknowledgement
    /// point, which seals the memtable.
    pub fn flush(&mut self) -> Result<()> {
        self.set.flush()
    }
}
