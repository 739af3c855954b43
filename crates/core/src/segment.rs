//! Immutable sealed segments of the segmented (LSM-style) write path.
//!
//! A segment is an [`IndexedTable`] over a frozen run of tuples — its own
//! table file (whose commit record carries the catalog) and index, with
//! its own I/O counters —
//! staged once by [`IndexedTable::stage`] (a seal or a merge) and named by
//! the store's manifest together with the tid range it covers.
//!
//! "Immutable" refers to segment *membership*: records never move between
//! segments outside a merge. Liveness is the segment table's tombstone
//! set — a cross-tier delete adds the tid to it through the pair's one
//! Sec. IV-B protocol, and the segment's next flush commits it in the
//! table's commit record; neither file is written in place. Segment
//! recovery is [`IndexedTable::open`], whose rebuild (if the index is
//! stale) quantises on the segment's live values like any build.
//!
//! A crash around a manifest commit leaves files the manifest does not
//! name — staged ones before the rename, superseded sources after it —
//! which [`collect_orphans`] removes at the next open.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_storage::vfs::Vfs;
use iva_storage::{sidecar_path, IoStats, Manifest, PagerOptions, SegmentMeta, StorageError};
use iva_swt::{table_file_path, Tid};

use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::indexed_table::IndexedTable;

/// Base path (no extension) of segment `id`'s table files.
pub fn segment_base(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}"))
}

/// Path of segment `id`'s index file.
pub fn segment_index_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.iva"))
}

/// Path segment `id`'s index is rebuilt into before it is renamed over
/// [`segment_index_path`].
fn segment_rebuild_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.rebuild.iva"))
}

/// Every file segment `id` may have on disk, including staging and
/// rebuild temporaries. Orphan collection removes them all.
pub fn segment_file_candidates(dir: &Path, id: u64) -> Vec<PathBuf> {
    let base = segment_base(dir, id);
    let tbl = table_file_path(&base);
    let iva = segment_index_path(dir, id);
    let rebuild = segment_rebuild_path(dir, id);
    let staged = |p: &Path| {
        let mut name = p.as_os_str().to_os_string();
        name.push(".new");
        PathBuf::from(name)
    };
    vec![
        staged(&sidecar_path(&tbl)),
        sidecar_path(&tbl),
        tbl,
        rebuild,
        iva,
    ]
}

/// One sealed, immutable-membership segment: a pair (which reads go
/// straight to) plus what the manifest records about it.
pub struct Segment {
    meta: SegmentMeta,
    pair: IndexedTable,
}

impl Deref for Segment {
    type Target = IndexedTable;

    fn deref(&self) -> &IndexedTable {
        &self.pair
    }
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

/// Remove every segment file not referenced by `manifest`: staged files
/// under `manifest.next_segment_id` (a seal or merge that crashed before
/// its manifest commit) and files of already-superseded ids (a merge that
/// crashed after its commit but before garbage collection). Returns the
/// ids that had files removed.
pub fn collect_orphans(vfs: &dyn Vfs, dir: &Path, manifest: &Manifest) -> Result<Vec<u64>> {
    let mut removed = Vec::new();
    for id in 0..=manifest.next_segment_id {
        if manifest.segments.iter().any(|s| s.id == id) {
            continue;
        }
        if segment_file_candidates(dir, id)
            .iter()
            .any(|p| vfs.exists(p))
        {
            remove_segment_files(vfs, dir, id)?;
            removed.push(id);
        }
    }
    Ok(removed)
}

impl Segment {
    /// Open the segment of the store in `dir` that the manifest records
    /// as `meta`, rebuilding its index if a crash left it dirty or stale.
    pub fn open(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        meta: SegmentMeta,
        pager: &PagerOptions,
        config: IvaConfig,
    ) -> Result<Self> {
        let pair = IndexedTable::open(
            (
                vfs,
                &segment_base(dir, meta.id),
                &segment_index_path(dir, meta.id),
            ),
            &segment_rebuild_path(dir, meta.id),
            pager,
            config,
            IoStats::new(),
            IoStats::new(),
        )?;
        Ok(Self { meta, pair })
    }

    /// What the manifest records about this segment.
    pub fn meta(&self) -> SegmentMeta {
        self.meta
    }

    /// The segment's id.
    pub fn id(&self) -> u64 {
        self.meta.id
    }

    /// Smallest tid this segment covers.
    pub fn lo_tid(&self) -> Tid {
        self.meta.lo_tid
    }

    /// Largest tid this segment covers (inclusive).
    pub fn hi_tid(&self) -> Tid {
        self.meta.hi_tid
    }

    /// Whether `tid` falls in this segment's coverage range.
    pub fn covers(&self, tid: Tid) -> bool {
        (self.meta.lo_tid..=self.meta.hi_tid).contains(&tid)
    }

    /// Tombstone `tid` if this segment holds it live (Sec. IV-B across
    /// tiers). Returns whether a record was deleted.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        self.pair.delete(tid)
    }

    /// Commit the segment's tombstone set ([`IndexedTable::flush`]).
    pub fn flush(&mut self) -> Result<()> {
        self.pair.flush()
    }
}
