//! Immutable sealed segments of the segmented (LSM-style) write path.
//!
//! A segment is a self-contained iVA-file over a frozen run of tuples: its
//! own table file, catalog sidecar, and index — built once, by
//! [`write_segment`], from the live records of a memtable (a seal) or of
//! several older segments (a compaction). Per-segment [`IoStats`] keep the
//! cost accounting as precise as the monolithic engine's.
//!
//! "Immutable" refers to segment *membership*: records never move between
//! segments outside a compaction. Liveness, by contrast, is updated in
//! place — a cross-tier delete tombstones the record's directory entry
//! through the same Sec. IV-B protocol the monolithic file uses (durable
//! dirty flag before the first in-place patch, watermark commit on flush),
//! so segment recovery after a crash is exactly the monolithic
//! open-or-rebuild: reuse a clean index whose watermark matches the table,
//! rebuild otherwise. Rebuilds pin numeric domains to the store's global
//! [`DomainPin`]s so a recovered segment re-quantises nothing.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_storage::vfs::Vfs;
use iva_storage::{sidecar_path, DomainPin, IoStats, PagerOptions, StorageError};
use iva_swt::{Catalog, RecordPtr, SwtTable, Tid, Tuple};

use crate::build::{build_index_with_domains, IndexTarget};
use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::index::IvaIndex;

/// Base path (no extension) of segment `id`'s table files.
pub fn segment_base(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}"))
}

/// Path of segment `id`'s index file.
pub fn segment_index_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.iva"))
}

/// Every file segment `id` may have on disk, including staging and
/// rebuild temporaries. Orphan collection removes them all.
pub fn segment_file_candidates(dir: &Path, id: u64) -> Vec<PathBuf> {
    let base = segment_base(dir, id);
    let tbl = base.with_extension("tbl");
    let meta = base.with_extension("meta");
    let iva = segment_index_path(dir, id);
    let rebuild = dir.join(format!("seg-{id:08}.rebuild.iva"));
    let staged = |p: &Path| {
        let mut name = p.as_os_str().to_os_string();
        name.push(".new");
        PathBuf::from(name)
    };
    vec![
        staged(&sidecar_path(&tbl)),
        sidecar_path(&tbl),
        tbl,
        staged(&meta),
        meta,
        rebuild,
        iva,
    ]
}

/// One sealed, immutable-membership segment.
pub struct Segment {
    id: u64,
    lo_tid: Tid,
    hi_tid: Tid,
    table: SwtTable,
    index: IvaIndex,
    table_io: IoStats,
    index_io: IoStats,
}

/// Copy every live record of `sources` (given oldest first) into a fresh
/// segment `id` under `dir`, then build its index with the store's pinned
/// numeric `domains`. Returns the inclusive tid range the segment covers,
/// or `None` — with all created files removed again — when no live record
/// survived (sealing a fully-deleted memtable, compacting fully-deleted
/// segments).
///
/// This only stages files; nothing references the segment until the
/// caller commits a manifest naming it, which is the atomic point of the
/// seal/compaction protocol.
#[allow(clippy::too_many_arguments)]
pub fn write_segment(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    id: u64,
    sources: &[&SwtTable],
    catalog: &Catalog,
    pager: &PagerOptions,
    config: IvaConfig,
    domains: &[DomainPin],
    table_io: IoStats,
    index_io: IoStats,
) -> Result<Option<(Tid, Tid)>> {
    let base = segment_base(dir, id);
    let mut fresh = SwtTable::create_with_vfs(Arc::clone(vfs), &base, pager, table_io)?;
    fresh.adopt_catalog(catalog.clone());
    let watermark = sources
        .iter()
        .map(|s| s.file().next_tid())
        .max()
        .unwrap_or(0);
    fresh.reserve_tids_below(watermark);
    let mut range: Option<(Tid, Tid)> = None;
    for src in sources {
        for item in src.scan() {
            let (_, rec) = item?;
            if rec.deleted {
                continue;
            }
            fresh.insert_with_tid(rec.tid, &rec.tuple)?;
            range = Some(match range {
                None => (rec.tid, rec.tid),
                Some((lo, _)) => (lo, rec.tid),
            });
        }
    }
    if range.is_none() {
        drop(fresh);
        remove_segment_files(vfs.as_ref(), dir, id)?;
        return Ok(None);
    }
    fresh.flush()?;
    let mut index = build_index_with_domains(
        &fresh,
        IndexTarget::Vfs(Arc::clone(vfs), &segment_index_path(dir, id)),
        pager,
        index_io,
        config,
        Some(domains),
    )?;
    index.flush()?;
    Ok(range)
}

/// Remove every on-disk file of segment `id`, staged or live. Missing
/// files are fine — removal is the idempotent cleanup arm of both orphan
/// collection and post-compaction garbage collection.
pub fn remove_segment_files(vfs: &dyn Vfs, dir: &Path, id: u64) -> Result<()> {
    for path in segment_file_candidates(dir, id) {
        match vfs.remove(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(IvaError::Storage(StorageError::Io(e))),
        }
    }
    Ok(())
}

/// Whether any file of segment `id` exists (staged or live).
pub fn segment_files_exist(vfs: &dyn Vfs, dir: &Path, id: u64) -> bool {
    segment_file_candidates(dir, id)
        .iter()
        .any(|p| vfs.exists(p))
}

impl Segment {
    /// Open segment `id`, rebuilding its index — with the store's pinned
    /// `domains` — if a crash left it dirty or stale (the monolithic
    /// open-or-rebuild protocol, per segment).
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        id: u64,
        lo_tid: Tid,
        hi_tid: Tid,
        pager: &PagerOptions,
        config: IvaConfig,
        domains: &[DomainPin],
    ) -> Result<Self> {
        let table_io = IoStats::new();
        let index_io = IoStats::new();
        let table = SwtTable::open_with_vfs(
            Arc::clone(vfs),
            &segment_base(dir, id),
            pager,
            table_io.clone(),
        )?;
        let path = segment_index_path(dir, id);
        let reusable =
            match IvaIndex::open_with_vfs(Arc::clone(vfs), &path, pager, index_io.clone()) {
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
                let tmp = dir.join(format!("seg-{id:08}.rebuild.iva"));
                let mut index = build_index_with_domains(
                    &table,
                    IndexTarget::Vfs(Arc::clone(vfs), &tmp),
                    pager,
                    index_io.clone(),
                    config,
                    Some(domains),
                )?;
                index.flush()?;
                drop(index);
                vfs.rename(&tmp, &path)
                    .map_err(|e| IvaError::Storage(e.into()))?;
                IvaIndex::open_with_vfs(Arc::clone(vfs), &path, pager, index_io.clone())?
            }
        };
        index.set_runtime_knobs(config.search_threads, config.hot_tier_bytes);
        Ok(Self {
            id,
            lo_tid,
            hi_tid,
            table,
            index,
            table_io,
            index_io,
        })
    }

    /// The segment's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Smallest tid this segment covers.
    pub fn lo_tid(&self) -> Tid {
        self.lo_tid
    }

    /// Largest tid this segment covers (inclusive).
    pub fn hi_tid(&self) -> Tid {
        self.hi_tid
    }

    /// Whether `tid` falls in this segment's coverage range.
    pub fn covers(&self, tid: Tid) -> bool {
        (self.lo_tid..=self.hi_tid).contains(&tid)
    }

    /// The segment's table file.
    pub fn table(&self) -> &SwtTable {
        &self.table
    }

    /// The segment's index.
    pub fn index(&self) -> &IvaIndex {
        &self.index
    }

    /// Per-segment table-file I/O counters.
    pub fn table_io(&self) -> &IoStats {
        &self.table_io
    }

    /// Per-segment index-file I/O counters.
    pub fn index_io(&self) -> &IoStats {
        &self.index_io
    }

    /// Locate a live tid in this segment.
    pub fn lookup_ptr(&self, tid: Tid) -> Result<Option<RecordPtr>> {
        if !self.covers(tid) {
            return Ok(None);
        }
        self.index.lookup_ptr(tid)
    }

    /// Fetch the live tuple `tid`, if this segment holds it.
    pub fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        match self.lookup_ptr(tid)? {
            Some(ptr) => Ok(Some(self.table.get(ptr)?.tuple)),
            None => Ok(None),
        }
    }

    /// Tombstone `tid` in place if this segment holds it live (Sec. IV-B
    /// across tiers). Returns whether a record was deleted.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        match self.lookup_ptr(tid)? {
            Some(ptr) => {
                self.table.delete(ptr)?;
                self.index.delete(tid)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Live (non-tombstoned) records.
    pub fn live_records(&self) -> u64 {
        self.table.file().live_records()
    }

    /// Total records including tombstones.
    pub fn total_records(&self) -> u64 {
        self.table.file().total_records()
    }

    /// Persist in-place liveness patches: table flush, then index commit
    /// at the flushed watermark (clearing the dirty flag).
    pub fn flush(&mut self) -> Result<()> {
        self.table.flush()?;
        self.index.commit(self.table.file().data_len())
    }

    /// Whether the index has uncommitted in-place patches.
    pub fn is_dirty(&self) -> bool {
        self.index.is_dirty()
    }
}
