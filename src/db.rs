//! `IvaDb`: the full system — a sparse wide table plus its iVA-file, with
//! the paper's periodic-cleanup policy (Sec. IV-B / V-C) wired in.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_core::{
    build_index, IndexTarget, IvaConfig, IvaError, IvaIndex, Metric, MetricKind, Query,
    QueryOutcome, QueryStats, Result, WeightScheme,
};
use iva_storage::vfs::{RealVfs, Vfs};
use iva_storage::{sidecar_path, IoStats, PagerOptions, StorageError};
use iva_swt::{AttrId, SwtTable, Tid, Tuple};

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
/// 2. **Runtime defaults** (`config.search_threads`,
///    `config.hot_tier_bytes`, plus `metric` and `weights` here) set the
///    database's default execution plan. They are *never* persisted:
///    an index header round-trip deliberately drops them, and open
///    re-applies the values from `opts` so a reopened database behaves
///    like the options say, not like the process that wrote the file.
/// 3. **Per-request overrides** ([`SearchRequest::metric`],
///    [`SearchRequest::threads`], ...) apply to one `execute` call only.
///    They never write through to either layer above — a request can
///    never change what a later request or a reopened database does.
///
/// Every layer-2/3 knob is plan-only: any setting produces bit-identical
/// top-k answers, differing only in timing and in how many records are
/// fetched to find them.
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

/// Everything one search run produces: the ranked hits and the
/// measurement counters.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The top-k answers in ascending distance order.
    pub hits: Vec<SearchHit>,
    /// Measurement counters (timings zeroed for unmeasured requests).
    pub stats: QueryStats,
}

/// A complete community-data store: table + iVA-file + cleanup policy.
pub struct IvaDb {
    table: SwtTable,
    index: IvaIndex,
    vfs: Arc<dyn Vfs>,
    dir: Option<PathBuf>,
    opts: IvaDbOptions,
    table_io: IoStats,
    index_io: IoStats,
}

impl IvaDb {
    /// Create an in-memory database (tests, examples, experiments).
    pub fn create_mem(opts: IvaDbOptions) -> Result<Self> {
        let table_io = IoStats::new();
        let index_io = IoStats::new();
        let table = SwtTable::create_mem(&opts.pager, table_io.clone())?;
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts.pager,
            index_io.clone(),
            opts.config,
        )?;
        Ok(Self {
            table,
            index,
            vfs: Arc::new(RealVfs),
            dir: None,
            opts,
            table_io,
            index_io,
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
        let table_io = IoStats::new();
        let index_io = IoStats::new();
        let table = SwtTable::create_with_vfs(
            Arc::clone(&vfs),
            &dir.join("data"),
            &opts.pager,
            table_io.clone(),
        )?;
        let index = build_index(
            &table,
            IndexTarget::Vfs(Arc::clone(&vfs), &dir.join("index.iva")),
            &opts.pager,
            index_io.clone(),
            opts.config,
        )?;
        let mut db = Self {
            table,
            index,
            vfs,
            dir: Some(dir.to_path_buf()),
            opts,
            table_io,
            index_io,
        };
        db.flush()?; // make the directory openable immediately
        Ok(db)
    }

    /// Open an existing disk-backed database.
    pub fn open(dir: &Path, opts: IvaDbOptions) -> Result<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), dir, opts)
    }

    /// [`IvaDb::open`] on an explicit [`Vfs`], with crash recovery.
    ///
    /// The table file recovers itself (its commit record rolls back any
    /// unflushed tail). The index is then validated against it: a dirty
    /// epoch flag (crash mid-update), a watermark that disagrees with the
    /// table's committed length (index and table flushed out of step), a
    /// corrupt page or a missing file all trigger a rebuild of the index
    /// from the recovered table — the iVA-file is derived data and can
    /// always be regenerated (Sec. IV-B's rebuild path).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, opts: IvaDbOptions) -> Result<Self> {
        let table_io = IoStats::new();
        let index_io = IoStats::new();
        let table = SwtTable::open_with_vfs(
            Arc::clone(&vfs),
            &dir.join("data"),
            &opts.pager,
            table_io.clone(),
        )?;
        let index = Self::open_or_rebuild_index(&vfs, dir, &table, &opts, index_io.clone())?;
        Ok(Self {
            table,
            index,
            vfs,
            dir: Some(dir.to_path_buf()),
            opts,
            table_io,
            index_io,
        })
    }

    fn open_or_rebuild_index(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        table: &SwtTable,
        opts: &IvaDbOptions,
        io: IoStats,
    ) -> Result<IvaIndex> {
        let path = dir.join("index.iva");
        let reusable =
            match IvaIndex::open_with_vfs(Arc::clone(vfs), &path, &opts.pager, io.clone()) {
                Ok(index)
                    if !index.is_dirty() && index.table_watermark() == table.file().data_len() =>
                {
                    Some(index)
                }
                Ok(_) => None, // dirty or stale: fall through to the rebuild
                Err(e) if e.is_corruption() => None,
                Err(IvaError::Storage(StorageError::Io(e)))
                    if e.kind() == std::io::ErrorKind::NotFound =>
                {
                    None
                }
                Err(e) => return Err(e),
            };
        let mut index = match reusable {
            Some(index) => index,
            None => {
                // Rebuild to a temporary file, then swap it in atomically
                // so a crash mid-rebuild leaves the (still rebuildable)
                // old state.
                let tmp = dir.join("index.rebuild.iva");
                let mut index = build_index(
                    table,
                    IndexTarget::Vfs(Arc::clone(vfs), &tmp),
                    &opts.pager,
                    io.clone(),
                    opts.config,
                )?;
                index.flush()?;
                drop(index);
                vfs.rename(&tmp, &path)
                    .map_err(|e| IvaError::Storage(e.into()))?;
                IvaIndex::open_with_vfs(Arc::clone(vfs), &path, &opts.pager, io)?
            }
        };
        // The header persists only structural parameters; re-apply the
        // caller's execution knobs so a reopened database behaves like
        // the one that was closed (see "Persisted vs. per-request
        // configuration" on [`IvaDbOptions`]).
        index.set_runtime_knobs(opts.config.search_threads, opts.config.hot_tier_bytes);
        Ok(index)
    }

    /// Define (or look up) a text attribute.
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        Ok(self.table.define_text(name)?)
    }

    /// Define (or look up) a numerical attribute.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        Ok(self.table.define_numeric(name)?)
    }

    /// Attribute id by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.table.catalog().id_of(name)
    }

    /// Insert a tuple; returns its tuple id.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        let (tid, ptr) = self.table.insert(tuple)?;
        self.index.insert(tid, ptr, tuple, self.table.catalog())?;
        Ok(tid)
    }

    /// Delete a tuple by id. Returns false if absent/already deleted.
    /// Triggers a rebuild when the deleted fraction reaches β.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        let Some(ptr) = self.index.lookup_ptr(tid)? else {
            return Ok(false);
        };
        self.table.delete(ptr)?;
        self.index.delete(tid)?;
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
        let Some(ptr) = self.index.lookup_ptr(tid)? else {
            return Err(IvaError::InvalidArgument(format!(
                "update of unknown tuple {tid}"
            )));
        };
        let old = self.table.get(ptr)?.tuple;
        if !self.delete(tid)? {
            return Err(IvaError::InvalidArgument(format!(
                "update of unknown tuple {tid}"
            )));
        }
        match self.insert(new_tuple) {
            Ok(new_tid) => Ok(new_tid),
            Err(e) => {
                self.insert(&old)?;
                Err(e)
            }
        }
    }

    /// Fetch a live tuple by id.
    pub fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        match self.index.lookup_ptr(tid)? {
            Some(ptr) => Ok(Some(self.table.get(ptr)?.tuple)),
            None => Ok(None),
        }
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
        QueryBuilder::new(self.table.catalog())
    }

    /// Run one top-k search as described by `request` — the single entry
    /// point every other search method wraps.
    pub fn execute(&self, query: &Query, request: &SearchRequest) -> Result<SearchOutcome> {
        let metric = request.metric_override().unwrap_or(self.opts.metric);
        self.execute_metric(query, &metric, request)
    }

    /// [`IvaDb::execute`] under a caller-supplied [`Metric`]
    /// implementation (for metrics beyond [`MetricKind`]).
    pub fn execute_metric<M: Metric + Sync>(
        &self,
        query: &Query,
        metric: &M,
        request: &SearchRequest,
    ) -> Result<SearchOutcome> {
        let weights = request.weights_override().unwrap_or(self.opts.weights);
        let qopts = SearchRequest::query_options([request]);
        let out =
            self.index
                .query_opts(&self.table, query, request.k(), metric, weights, &qopts)?;
        self.materialize(out)
    }

    /// Turn a raw index outcome into a [`SearchOutcome`] by fetching each
    /// hit's tuple from the table file.
    fn materialize(&self, out: QueryOutcome) -> Result<SearchOutcome> {
        let hits = out
            .results
            .into_iter()
            .map(|e| {
                Ok(SearchHit {
                    tid: e.tid,
                    dist: e.dist,
                    tuple: self.table.get(e.ptr)?.tuple,
                })
            })
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
    /// resolved metric (one shared scan per distinct metric), weights and
    /// `k` are honored per entry, and the scan-level knobs take the first
    /// explicit `threads` override in the group (which only reaches a
    /// singleton group, since batching replaces segment parallelism) and
    /// any entry's `measured`.
    pub fn execute_batch(&self, batch: &[(Query, SearchRequest)]) -> Result<Vec<SearchOutcome>> {
        let mut answered = Vec::with_capacity(batch.len());
        for g in SearchRequest::metric_groups(batch, self.opts.metric, self.opts.weights) {
            let outs = self
                .index
                .query_batch(&self.table, &g.items, &g.metric, &g.opts)?;
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
        if self.index.deleted_fraction() >= self.opts.cleaning_threshold
            && self.index.n_deleted() > 0
        {
            self.rebuild()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// The periodic cleanup (Sec. IV-B): compact the table file (dropping
    /// tombstones, preserving tuple ids) and rebuild the iVA-file over it.
    pub fn rebuild(&mut self) -> Result<()> {
        let table_io = IoStats::new();
        let index_io = IoStats::new();
        match &self.dir {
            None => {
                let (fresh, _) =
                    self.table
                        .compact_into(None, &self.opts.pager, table_io.clone())?;
                let index = build_index(
                    &fresh,
                    IndexTarget::Mem,
                    &self.opts.pager,
                    index_io.clone(),
                    self.opts.config,
                )?;
                self.table = fresh;
                self.index = index;
            }
            Some(dir) => {
                let tmp_base = dir.join("data.rebuild");
                let tmp_index = dir.join("index.rebuild.iva");
                {
                    let (mut fresh, _) = self.table.compact_into(
                        Some(&tmp_base),
                        &self.opts.pager,
                        table_io.clone(),
                    )?;
                    fresh.flush()?;
                    let mut index = build_index(
                        &fresh,
                        IndexTarget::Vfs(Arc::clone(&self.vfs), &tmp_index),
                        &self.opts.pager,
                        index_io.clone(),
                        self.opts.config,
                    )?;
                    index.flush()?;
                }
                // Swap files into place, then reopen. The byte log's
                // commit-record sidecar (`data.tbl.meta`) must move with
                // its data file, or the old sidecar would describe the new
                // file.
                let rn = |a: PathBuf, b: PathBuf| {
                    self.vfs
                        .rename(&a, &b)
                        .map_err(|e| IvaError::Storage(e.into()))
                };
                let tmp_tbl = tmp_base.with_extension("tbl");
                let dst_tbl = dir.join("data.tbl");
                rn(sidecar_path(&tmp_tbl), sidecar_path(&dst_tbl))?;
                rn(tmp_tbl, dst_tbl)?;
                rn(tmp_base.with_extension("meta"), dir.join("data.meta"))?;
                rn(tmp_index, dir.join("index.iva"))?;
                self.table = SwtTable::open_with_vfs(
                    Arc::clone(&self.vfs),
                    &dir.join("data"),
                    &self.opts.pager,
                    table_io.clone(),
                )?;
                self.index = IvaIndex::open_with_vfs(
                    Arc::clone(&self.vfs),
                    &dir.join("index.iva"),
                    &self.opts.pager,
                    index_io.clone(),
                )?;
                // Reopening dropped the runtime knobs with the header
                // round-trip; restore this database's execution defaults.
                self.index.set_runtime_knobs(
                    self.opts.config.search_threads,
                    self.opts.config.hot_tier_bytes,
                );
            }
        }
        self.table_io = table_io;
        self.index_io = index_io;
        Ok(())
    }

    /// Live tuple count.
    pub fn len(&self) -> u64 {
        self.table.file().live_records()
    }

    /// True if no live tuples exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying table.
    pub fn table(&self) -> &SwtTable {
        &self.table
    }

    /// The underlying index.
    pub fn index(&self) -> &IvaIndex {
        &self.index
    }

    /// Table-file I/O counters.
    pub fn table_io(&self) -> &IoStats {
        &self.table_io
    }

    /// Index-file I/O counters.
    pub fn index_io(&self) -> &IoStats {
        &self.index_io
    }

    /// Persist both files: the table commits first, then the index commits
    /// stamped with the table's data length. A crash between the two
    /// leaves the index watermark behind the table, which open-time
    /// recovery detects and repairs by rebuilding the index.
    pub fn flush(&mut self) -> Result<()> {
        self.table.flush()?;
        self.index.commit(self.table.file().data_len())?;
        Ok(())
    }
}
