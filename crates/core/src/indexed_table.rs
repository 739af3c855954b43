//! A table file and the iVA-file derived from it, maintained as one pair.
//!
//! Sec. IV-B gives the pair one protocol: an insert appends to both, a
//! delete tombstones the tuple, a crash is repaired by rebuilding the
//! index from the table, and the periodic cleanup copies the live tuples
//! into a fresh table file and rebuilds the iVA-file over it.
//! [`IndexedTable`] is that protocol, once: the monolithic store is one
//! pair on disk, a sealed segment one pair with a tid range, the
//! segmented store's mutable tier one pair in memory; a seal, a merge and
//! the monolith's cleanup are all [`IndexedTable::stage`]. A delete writes
//! neither file: the tid joins the table's tombstone set, which the
//! table's commit record commits and every walk reads. The table is the
//! truth: whenever the two may disagree — at open, or after an index
//! insert failed part-way — the index is distrusted, never committed
//! clean, and rebuilt.

use std::path::Path;
use std::sync::Arc;

use iva_storage::vfs::Vfs;
use iva_storage::{IoStats, PagerOptions, StorageError};
use iva_swt::{AttrId, AttrType, Catalog, RecordPtr, SwtTable, Tid, Tuple};

use crate::build::{build_index, IndexTarget};
use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::index::IvaIndex;

/// Where a pair's files live: the [`Vfs`], the table's base path and the
/// index path. `None`, where a function takes an `Option`, is in memory.
type Files<'a> = (&'a Arc<dyn Vfs>, &'a Path, &'a Path);

/// A sparse wide table and the iVA-file over it, each with its own
/// [`IoStats`].
pub struct IndexedTable {
    table: SwtTable,
    index: IvaIndex,
    /// An index insert failed part-way: nothing reads the index and no
    /// flush commits it clean until a reopen has rebuilt it.
    index_torn: bool,
}

impl IndexedTable {
    /// An empty table carrying `catalog`, assigning tids from `base_tid`.
    fn fresh_table(
        at: Option<Files<'_>>,
        catalog: &Catalog,
        base_tid: Tid,
        pager: &PagerOptions,
        table_io: IoStats,
    ) -> Result<SwtTable> {
        let mut table = match at {
            Some((vfs, base, _)) => {
                SwtTable::create_with_vfs(Arc::clone(vfs), base, pager, table_io)?
            }
            None => SwtTable::create_mem(pager, table_io)?,
        };
        table.adopt_catalog(catalog.clone());
        table.reserve_tids_below(base_tid);
        Ok(table)
    }

    /// Build the index over `table` and pair the two.
    fn derive(
        table: SwtTable,
        at: Option<Files<'_>>,
        pager: &PagerOptions,
        config: IvaConfig,
        index_io: IoStats,
    ) -> Result<Self> {
        let target = match at {
            Some((vfs, _, path)) => IndexTarget::Vfs(Arc::clone(vfs), path),
            None => IndexTarget::Mem,
        };
        let index = build_index(&table, target, pager, index_io, config)?;
        Ok(Self {
            table,
            index,
            index_torn: false,
        })
    }

    /// A new, empty pair — in memory, or at `at` (openable only once it
    /// is flushed) — carrying `catalog`, assigning tids from `base_tid`.
    pub fn create(
        at: Option<Files<'_>>,
        catalog: &Catalog,
        base_tid: Tid,
        pager: &PagerOptions,
        config: IvaConfig,
    ) -> Result<Self> {
        let table = Self::fresh_table(at, catalog, base_tid, pager, IoStats::new())?;
        Self::derive(table, at, pager, config, IoStats::new())
    }

    /// Open the pair at `at`, with crash recovery (Sec. IV-B's rebuild
    /// path). The table file recovers itself (its commit record rolls back
    /// any unflushed tail). The index is then validated against it: a
    /// dirty epoch flag (crash mid-update), a watermark that disagrees
    /// with the table's committed length (flushed out of step), a corrupt
    /// page, a missing file or a stale format (any version but
    /// [`crate::INDEX_VERSION`]) all mean it is rebuilt from the table — into
    /// `rebuild_tmp`, then renamed into place, so a crash mid-rebuild
    /// leaves the (still rebuildable) old state. The header persists only
    /// structural parameters. `config` is validated first, whether the
    /// index is reused or rebuilt.
    pub fn open(
        at: Files<'_>,
        rebuild_tmp: &Path,
        pager: &PagerOptions,
        config: IvaConfig,
        table_io: IoStats,
        index_io: IoStats,
    ) -> Result<Self> {
        config.validate().map_err(IvaError::InvalidArgument)?;
        let (vfs, base, path) = at;
        let table = SwtTable::open_with_vfs(Arc::clone(vfs), base, pager, table_io)?;
        let reusable = match IvaIndex::open_with_vfs(Arc::clone(vfs), path, pager, index_io.clone())
        {
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
        let index = match reusable {
            Some(index) => index,
            None => {
                let mut index = build_index(
                    &table,
                    IndexTarget::Vfs(Arc::clone(vfs), rebuild_tmp),
                    pager,
                    index_io.clone(),
                    config,
                )?;
                index.flush()?;
                drop(index);
                vfs.rename(rebuild_tmp, path)
                    .map_err(|e| IvaError::Storage(e.into()))?;
                IvaIndex::open_with_vfs(Arc::clone(vfs), path, pager, index_io)?
            }
        };
        Ok(Self {
            table,
            index,
            index_torn: false,
        })
    }

    /// Copy every live record of `sources` (given oldest first) into a
    /// fresh pair — in memory, or at `at` — under the tids they carry,
    /// with every tid the sources ever assigned reserved, `catalog`
    /// adopted and the index built over the copy; also returns the tid
    /// range copied (`None`: no live record survived). This is a seal (one
    /// source: the mutable tier), a merge (several segments) and the
    /// monolith's periodic cleanup (its own table). It only stages: on
    /// disk both files are left flushed and openable, for the caller to
    /// commit a manifest naming them or rename them into place.
    pub fn stage(
        sources: &[&SwtTable],
        at: Option<Files<'_>>,
        catalog: &Catalog,
        pager: &PagerOptions,
        config: IvaConfig,
        table_io: IoStats,
        index_io: IoStats,
    ) -> Result<(Self, Option<(Tid, Tid)>)> {
        let mut table = Self::fresh_table(at, catalog, 0, pager, table_io)?;
        let range = table.copy_live_from(sources)?;
        table.flush()?;
        let mut staged = Self::derive(table, at, pager, config, index_io)?;
        if at.is_some() {
            // Only files are left behind for a later open to find.
            staged.index.flush()?;
        }
        Ok((staged, range))
    }

    /// Define (or look up) an attribute of type `ty`.
    pub fn define(&mut self, name: &str, ty: AttrType) -> Result<AttrId> {
        Ok(match ty {
            AttrType::Text => self.table.define_text(name)?,
            AttrType::Numeric => self.table.define_numeric(name)?,
        })
    }

    /// The index, unless a failed insert may have left it half-applied.
    fn intact_index(&self) -> Result<&IvaIndex> {
        if self.index_torn {
            return Err(IvaError::IndexTorn);
        }
        Ok(&self.index)
    }

    /// Insert a tuple (Sec. IV-B: append to the table file, then to the
    /// index); returns its tuple id. The table append cannot be undone, so
    /// whatever can refuse the tuple is asked first: the index's 32-bit
    /// tid space here, the catalog inside the table's own insert. If the
    /// index append then fails anyway (an I/O error), its tid joins the
    /// table's tombstone set — so the live count, `get` and every search
    /// agree the tuple does not exist — and the index counts as torn.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        self.intact_index()?;
        let next = self.table.file().next_tid();
        if next >= u64::from(u32::MAX) {
            return Err(IvaError::TidOverflow(next));
        }
        let (tid, ptr) = self.table.insert(tuple)?;
        if let Err(e) = self.index.insert(tid, ptr, tuple, self.table.catalog()) {
            self.index_torn = true;
            self.table.delete(tid)?;
            return Err(e);
        }
        Ok(tid)
    }

    /// Tombstone `tid` in the table's set if it is live here; whether it
    /// was. Nothing is written until the next flush.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        if self.lookup_ptr(tid)?.is_none() {
            return Ok(false);
        }
        Ok(self.table.delete(tid)?)
    }

    /// Locate a live tid.
    pub fn lookup_ptr(&self, tid: Tid) -> Result<Option<RecordPtr>> {
        self.intact_index()?
            .lookup_ptr(tid, self.table.file().deleted())
    }

    /// Fetch the live tuple `tid`, if this pair holds it.
    pub fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        match self.lookup_ptr(tid)? {
            Some(ptr) => Ok(Some(self.table.get(ptr)?.tuple)),
            None => Ok(None),
        }
    }

    /// The two halves a search reads — or [`IvaError::IndexTorn`], rather
    /// than an answer computed from a half-applied index.
    pub fn searchable(&self) -> Result<(&IvaIndex, &SwtTable)> {
        Ok((self.intact_index()?, &self.table))
    }

    /// Persist both files: the table commits first, then the index commits
    /// stamped with the table's data length; a crash between the two
    /// leaves the watermark behind the table, which [`IndexedTable::open`]
    /// repairs. A torn index is never committed: only an insert tears it,
    /// after appending to the table, so the watermark lags the table this
    /// flush commits and the next open rebuilds it.
    pub fn flush(&mut self) -> Result<()> {
        self.table.flush()?;
        if self.index_torn {
            return Ok(());
        }
        self.index.commit(self.table.file().data_len())
    }

    /// Whether a flush has anything to commit (a torn index always has).
    pub fn is_dirty(&self) -> bool {
        self.index.is_dirty() || self.index_torn || self.table.file().is_dirty()
    }

    /// Live (non-tombstoned) records.
    pub fn live_records(&self) -> u64 {
        self.table.file().live_records()
    }

    /// Total records including tombstones.
    pub fn total_records(&self) -> u64 {
        self.table.file().total_records()
    }

    /// The table file.
    pub fn table(&self) -> &SwtTable {
        &self.table
    }

    /// The index — for inspection; searches go through `searchable`.
    pub fn index(&self) -> &IvaIndex {
        &self.index
    }

    /// Table-file I/O counters.
    pub fn table_io(&self) -> &IoStats {
        self.table.file().io_stats()
    }

    /// Index-file I/O counters.
    pub fn index_io(&self) -> &IoStats {
        self.index.io_stats()
    }
}
