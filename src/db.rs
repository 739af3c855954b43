//! `IvaDb`: the full system — a sparse wide table plus its iVA-file, with
//! the paper's periodic-cleanup policy (Sec. IV-B / V-C) wired in.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_core::{
    IndexedTable, IvaConfig, IvaError, IvaIndex, Metric, MetricKind, PoolEntry, Query,
    QueryOutcome, QueryStats, Result, WeightScheme,
};
use iva_storage::vfs::{RealVfs, Vfs};
use iva_storage::{sidecar_path, IoStats, PagerOptions};
use iva_swt::{catalog_path, table_file_path, AttrId, Catalog, SwtTable, Tid, Tuple};

use crate::search::{QueryBuilder, SearchRequest};

/// Options for creating an [`IvaDb`].
///
/// # Persisted vs. per-request configuration
///
/// Three layers of knobs exist, from most to least durable:
///
/// 1. **Structural parameters** (`config.alpha`, `config.n`,
///    `config.ndf_penalty`, `config.numeric_width`) shape the index's
///    bytes. They are persisted in the index header; on
///    [`IvaDb::open`] the *stored* values win — the ones in `opts` are
///    only used if the index has to be rebuilt from the table.
/// 2. **Runtime defaults** (`metric` and `weights` here) set what a
///    request that names neither runs under. They are *never* persisted:
///    a reopened database behaves like the options it was opened with,
///    not like the process that wrote the file.
/// 3. **Per-request overrides** ([`SearchRequest::metric`],
///    [`SearchRequest::weights`]) apply to one `execute` call only. They
///    never write through to either layer above — a request can never
///    change what a later request or a reopened database does.
///
/// `config.search_threads`, `config.hot_tier_bytes` and
/// `config.compress_lists` belong to no layer: they are accepted and
/// ignored (a query runs on the thread that issued it). Every `config`
/// field is validated at open, whether the index is reused or rebuilt.
#[derive(Debug, Clone)]
pub struct IvaDbOptions {
    /// Pager/page-cache options (shared shape for table and index files).
    pub pager: PagerOptions,
    /// Index configuration (α, n, ndf penalty...).
    pub config: IvaConfig,
    /// Cleaning trigger threshold β (Sec. V-C): when the fraction of
    /// deleted tuples reaches β, the table file and the iVA-file are
    /// rebuilt. Set to 1.0 to disable automatic cleaning.
    pub cleaning_threshold: f64,
    /// Default metric for [`IvaDb::execute`].
    pub metric: MetricKind,
    /// Default weight scheme for [`IvaDb::execute`].
    pub weights: WeightScheme,
}

impl Default for IvaDbOptions {
    fn default() -> Self {
        Self {
            pager: PagerOptions::default(),
            config: IvaConfig::default(),
            cleaning_threshold: 0.02,
            metric: MetricKind::L2,
            weights: WeightScheme::Equal,
        }
    }
}

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

impl SearchHit {
    /// Materialize one pool entry from `table`, the file it points into.
    pub(crate) fn materialize(entry: PoolEntry, table: &SwtTable) -> Result<Self> {
        Ok(Self {
            tid: entry.tid,
            dist: entry.dist,
            tuple: table.get(entry.ptr)?.tuple,
        })
    }
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

/// A complete community-data store: one [`IndexedTable`] + cleanup policy.
pub struct IvaDb {
    pair: IndexedTable,
    /// Where a disk-backed database lives; `None` in memory.
    home: Option<(Arc<dyn Vfs>, PathBuf)>,
    opts: IvaDbOptions,
}

impl IvaDb {
    /// Create an in-memory database (tests, examples, experiments).
    pub fn create_mem(opts: IvaDbOptions) -> Result<Self> {
        let pair = IndexedTable::create(None, &Catalog::new(), 0, &opts.pager, opts.config, None)?;
        Ok(Self {
            pair,
            home: None,
            opts,
        })
    }

    /// Create a disk-backed database inside directory `dir` (created if
    /// missing): `data.tbl` + `data.meta` + `index.iva`.
    pub fn create(dir: &Path, opts: IvaDbOptions) -> Result<Self> {
        Self::create_with_vfs(Arc::new(RealVfs), dir, opts)
    }

    /// [`IvaDb::create`] on an explicit [`Vfs`] (fault injection, crash
    /// replay).
    pub fn create_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, opts: IvaDbOptions) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| IvaError::Storage(e.into()))?;
        let mut pair = IndexedTable::create(
            Some((&vfs, &dir.join("data"), &dir.join("index.iva"))),
            &Catalog::new(),
            0,
            &opts.pager,
            opts.config,
            None,
        )?;
        pair.flush()?; // make the directory openable immediately
        Ok(Self {
            pair,
            home: Some((vfs, dir.to_path_buf())),
            opts,
        })
    }

    /// Open an existing disk-backed database.
    pub fn open(dir: &Path, opts: IvaDbOptions) -> Result<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), dir, opts)
    }

    /// [`IvaDb::open`] on an explicit [`Vfs`], with crash recovery
    /// ([`IndexedTable::open`]): the table file recovers itself, and the
    /// index is reused only if it is clean and matches it, else rebuilt.
    /// `opts.config`'s execution knobs are re-applied ([`IvaDbOptions`]).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, opts: IvaDbOptions) -> Result<Self> {
        let pair = Self::open_pair(&vfs, dir, &opts, IoStats::new(), IoStats::new())?;
        Ok(Self {
            pair,
            home: Some((vfs, dir.to_path_buf())),
            opts,
        })
    }

    fn open_pair(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        opts: &IvaDbOptions,
        table_io: IoStats,
        index_io: IoStats,
    ) -> Result<IndexedTable> {
        IndexedTable::open(
            (vfs, &dir.join("data"), &dir.join("index.iva")),
            &dir.join("index.rebuild.iva"),
            &opts.pager,
            opts.config,
            None,
            table_io,
            index_io,
        )
    }

    /// Define (or look up) a text attribute.
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        self.pair.define_text(name)
    }

    /// Define (or look up) a numerical attribute.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        self.pair.define_numeric(name)
    }

    /// Attribute id by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.pair.table().catalog().id_of(name)
    }

    /// Insert a tuple; returns its tuple id.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        self.pair.insert(tuple)
    }

    /// Delete a tuple by id. Returns false if absent/already deleted.
    /// Triggers a rebuild when the deleted fraction reaches β.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        if !self.pair.delete(tid)? {
            return Ok(false);
        }
        self.maybe_clean()?;
        Ok(true)
    }

    /// Update = delete + insert under a fresh tuple id (Sec. IV-B).
    /// Returns the new tuple id.
    ///
    /// If inserting `new_tuple` fails (say, it references an undefined
    /// attribute), the old tuple is reinserted — under a fresh id, like
    /// any update — so the data survives the failed attempt.
    pub fn update(&mut self, tid: Tid, new_tuple: &Tuple) -> Result<Tid> {
        crate::engine::update(self, tid, new_tuple)
    }

    /// Fetch a live tuple by id.
    pub fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        self.pair.get(tid)
    }

    /// Build a [`Query`] from attribute names resolved through this
    /// database's catalog:
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
        QueryBuilder::new(self.pair.table().catalog())
    }

    /// Run one top-k search as described by `request` — the single entry
    /// point every other search method wraps.
    pub fn execute(&self, query: &Query, request: &SearchRequest) -> Result<SearchOutcome> {
        let metric = request.metric_override().unwrap_or(self.opts.metric);
        self.execute_metric(query, &metric, request)
    }

    /// [`IvaDb::execute`] under a caller-supplied [`Metric`]
    /// implementation (for metrics beyond [`MetricKind`]).
    pub fn execute_metric<M: Metric>(
        &self,
        query: &Query,
        metric: &M,
        request: &SearchRequest,
    ) -> Result<SearchOutcome> {
        let weights = request.weights_override().unwrap_or(self.opts.weights);
        let (index, table) = self.pair.searchable()?;
        // A path call: the lints' call graph links a method call on an
        // untyped receiver to every `query` in the workspace, baselines too.
        let out = IvaIndex::query(index, table, query, request.k(), metric, weights)?;
        self.materialize(out)
    }

    /// Turn a raw index outcome into a [`SearchOutcome`] by fetching each
    /// hit's tuple from the table file.
    fn materialize(&self, out: QueryOutcome) -> Result<SearchOutcome> {
        let hits = out
            .results
            .into_iter()
            .map(|e| SearchHit::materialize(e, self.pair.table()))
            .collect::<Result<Vec<_>>>()?;
        Ok(SearchOutcome {
            hits,
            stats: out.stats,
        })
    }

    /// Run several searches as one admission batch: the tuple list is
    /// scanned once for the whole batch and the entries' refinements run
    /// back to back (see [`iva_core::IvaIndex::query_batch`]). Every
    /// entry's result is
    /// bit-identical to calling [`IvaDb::execute`] with the same query and
    /// request on its own.
    ///
    /// Requests may disagree on their knobs: entries are grouped by
    /// resolved metric (one shared scan per distinct metric), and weights
    /// and `k` are honored per entry.
    pub fn execute_batch(&self, batch: &[(Query, SearchRequest)]) -> Result<Vec<SearchOutcome>> {
        let (index, table) = self.pair.searchable()?;
        let mut answered = Vec::with_capacity(batch.len());
        for g in SearchRequest::metric_groups(batch, self.opts.metric, self.opts.weights) {
            let outs = index.query_batch(table, &g.items, &g.metric)?;
            for (slot, o) in g.slots.into_iter().zip(outs) {
                answered.push((slot, self.materialize(o)?));
            }
        }
        SearchRequest::in_batch_order(batch.len(), answered)
    }

    /// The metric used when a request carries no override.
    pub fn default_metric(&self) -> MetricKind {
        self.opts.metric
    }

    /// Rebuild if the deleted fraction reached β.
    pub fn maybe_clean(&mut self) -> Result<bool> {
        let index = self.pair.index();
        if index.deleted_fraction() >= self.opts.cleaning_threshold && index.n_deleted() > 0 {
            self.rebuild()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// The periodic cleanup (Sec. IV-B): copy the live tuples into a fresh
    /// table file (dropping tombstones, preserving tuple ids) and rebuild
    /// the iVA-file over it — one [`IndexedTable::stage`], on disk beside
    /// the live files, then renamed over them and reopened. The I/O
    /// counters start afresh and hold the rebuild's own cost.
    pub fn rebuild(&mut self) -> Result<()> {
        let (table_io, index_io) = (IoStats::new(), IoStats::new());
        let tmp = self.home.as_ref().map(|(vfs, dir)| {
            (
                vfs,
                dir,
                dir.join("data.rebuild"),
                dir.join("index.rebuild.iva"),
            )
        });
        let (staged, _) = IndexedTable::stage(
            &[self.pair.table()],
            tmp.as_ref()
                .map(|(vfs, _, base, index)| (*vfs, &**base, &**index)),
            self.pair.table().catalog(),
            &self.opts.pager,
            self.opts.config,
            None,
            table_io.clone(),
            index_io.clone(),
        )?;
        let Some((vfs, dir, tmp_base, tmp_index)) = tmp else {
            self.pair = staged;
            return Ok(());
        };
        drop(staged);
        // Swap files into place, then reopen. The byte log's commit-record
        // sidecar (`data.tbl.meta`) must move with its data file, or the
        // old sidecar would describe the new file.
        let rn =
            |a: PathBuf, b: PathBuf| vfs.rename(&a, &b).map_err(|e| IvaError::Storage(e.into()));
        let (tmp_tbl, dst_base) = (table_file_path(&tmp_base), dir.join("data"));
        let dst_tbl = table_file_path(&dst_base);
        rn(sidecar_path(&tmp_tbl), sidecar_path(&dst_tbl))?;
        rn(tmp_tbl, dst_tbl)?;
        rn(catalog_path(&tmp_base), catalog_path(&dst_base))?;
        rn(tmp_index, dir.join("index.iva"))?;
        self.pair = Self::open_pair(vfs, dir, &self.opts, table_io, index_io)?;
        Ok(())
    }

    /// Live tuple count.
    pub fn len(&self) -> u64 {
        self.pair.live_records()
    }

    /// True if no live tuples exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying table.
    pub fn table(&self) -> &SwtTable {
        self.pair.table()
    }

    /// The underlying index.
    pub fn index(&self) -> &IvaIndex {
        self.pair.index()
    }

    /// Table-file I/O counters.
    pub fn table_io(&self) -> &IoStats {
        self.pair.table_io()
    }

    /// Index-file I/O counters.
    pub fn index_io(&self) -> &IoStats {
        self.pair.index_io()
    }

    /// Persist both files, table first ([`IndexedTable::flush`]).
    pub fn flush(&mut self) -> Result<()> {
        self.pair.flush()
    }
}
