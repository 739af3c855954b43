//! `IvaDb`: the full system — the store over one tier, a sparse wide
//! table plus its iVA-file, with the paper's periodic-cleanup policy
//! (Sec. IV-B / V-C) wired in.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_core::{IndexedTable, IvaConfig, IvaError, IvaIndex, MetricKind, Result, WeightScheme};
use iva_storage::vfs::{RealVfs, Vfs};
use iva_storage::{sidecar_path, IoStats, PagerOptions};
use iva_swt::{table_file_path, AttrId, AttrType, Catalog, SwtTable, Tid, Tuple};

use crate::store::{Store, Tiered};

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
/// 3. **Per-request overrides** ([`crate::SearchRequest::metric`],
///    [`crate::SearchRequest::weights`]) apply to one `execute` call
///    only. They never write through to either layer above — a request
///    can never change what a later request or a reopened database does.
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
    /// rebuilt. Set to 1.0 (or more) to disable automatic cleaning.
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

/// The monolith: one table file + iVA-file pair and the paper's periodic
/// cleanup (Sec. IV-B / V-C).
pub type IvaDb = Store<Monolith>;

/// [`IvaDb`]'s tier set: one [`IndexedTable`] and its cleanup policy.
pub struct Monolith {
    pair: IndexedTable,
    /// Where a disk-backed database lives; `None` in memory.
    home: Option<(Arc<dyn Vfs>, PathBuf)>,
    opts: IvaDbOptions,
}

impl IvaDb {
    /// Create an in-memory database (tests, examples, experiments).
    pub fn create_mem(opts: IvaDbOptions) -> Result<Self> {
        let pair = IndexedTable::create(None, &Catalog::new(), 0, &opts.pager, opts.config)?;
        Ok(Monolith::store(pair, None, opts))
    }

    /// Create a disk-backed database inside directory `dir` (created if
    /// missing): `data.tbl` + its commit record `data.tbl.meta` (which
    /// carries the catalog) + `index.iva`.
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
        )?;
        pair.flush()?; // make the directory openable immediately
        Ok(Monolith::store(pair, Some((vfs, dir.to_path_buf())), opts))
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
        let pair = Monolith::open_pair(&vfs, dir, &opts, IoStats::new(), IoStats::new())?;
        Ok(Monolith::store(pair, Some((vfs, dir.to_path_buf())), opts))
    }

    /// The periodic cleanup (Sec. IV-B): copy the live tuples into a fresh
    /// table file (dropping tombstones, preserving tuple ids) and rebuild
    /// the iVA-file over it — one [`IndexedTable::stage`], on disk beside
    /// the live files, then renamed over them and reopened. The I/O
    /// counters start afresh and hold the rebuild's own cost.
    pub fn rebuild(&mut self) -> Result<()> {
        self.set.rebuild()
    }

    /// The underlying table.
    pub fn table(&self) -> &SwtTable {
        self.set.pair.table()
    }

    /// The underlying index.
    pub fn index(&self) -> &IvaIndex {
        self.set.pair.index()
    }

    /// Table-file I/O counters.
    pub fn table_io(&self) -> &IoStats {
        self.set.pair.table_io()
    }

    /// Index-file I/O counters.
    pub fn index_io(&self) -> &IoStats {
        self.set.pair.index_io()
    }
}

impl Monolith {
    fn store(
        pair: IndexedTable,
        home: Option<(Arc<dyn Vfs>, PathBuf)>,
        opts: IvaDbOptions,
    ) -> IvaDb {
        let set = Self { pair, home, opts };
        Store { set }
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
            table_io,
            index_io,
        )
    }

    /// Rebuild if the table's deleted fraction reached β (never when
    /// β ≥ 1).
    fn maybe_clean(&mut self) -> Result<()> {
        let (beta, table) = (self.opts.cleaning_threshold, self.pair.table().file());
        if beta < 1.0 && table.deleted_fraction() >= beta && table.deleted_records() > 0 {
            return self.rebuild();
        }
        Ok(())
    }

    fn rebuild(&mut self) -> Result<()> {
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
            table_io.clone(),
            index_io.clone(),
        )?;
        let Some((vfs, dir, tmp_base, tmp_index)) = tmp else {
            self.pair = staged;
            return Ok(());
        };
        drop(staged);
        // Swap the three files into place, then reopen. The table's commit
        // record (`data.tbl.meta`, which also carries the catalog) must
        // move with its data file, or the old record would describe the
        // new file.
        let rn =
            |a: PathBuf, b: PathBuf| vfs.rename(&a, &b).map_err(|e| IvaError::Storage(e.into()));
        let (tmp_tbl, dst_base) = (table_file_path(&tmp_base), dir.join("data"));
        let dst_tbl = table_file_path(&dst_base);
        rn(sidecar_path(&tmp_tbl), sidecar_path(&dst_tbl))?;
        rn(tmp_tbl, dst_tbl)?;
        rn(tmp_index, dir.join("index.iva"))?;
        self.pair = Self::open_pair(vfs, dir, &self.opts, table_io, index_io)?;
        Ok(())
    }
}

impl Tiered for Monolith {
    fn tiers(&self) -> impl Iterator<Item = &IndexedTable> {
        [&self.pair].into_iter()
    }
    fn tier_of(&self, _: Tid) -> &IndexedTable {
        &self.pair
    }
    fn newest(&self) -> &IndexedTable {
        &self.pair
    }
    fn defaults(&self) -> (MetricKind, WeightScheme) {
        (self.opts.metric, self.opts.weights)
    }
    fn define(&mut self, name: &str, ty: AttrType) -> Result<AttrId> {
        self.pair.define(name, ty)
    }
    fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        self.pair.insert(tuple)
    }
    /// Triggers a rebuild when the deleted fraction reaches β.
    fn delete(&mut self, tid: Tid) -> Result<bool> {
        if !self.pair.delete(tid)? {
            return Ok(false);
        }
        self.maybe_clean()?;
        Ok(true)
    }
    /// Both files, table first ([`IndexedTable::flush`]).
    fn flush(&mut self) -> Result<()> {
        self.pair.flush()
    }
}
