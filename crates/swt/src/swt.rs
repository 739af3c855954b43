//! lint:scope(panic-reachability)
//! The sparse wide table: catalog + table file, with typed inserts and
//! compaction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_storage::vfs::{RealVfs, Vfs};
use iva_storage::{IoStats, PagerOptions};

use crate::error::{Result, SwtError};
use crate::schema::{AttrId, AttrType, Catalog};
use crate::table::{RecordBuf, RecordPtr, RecordRef, StoredRecord, TableFile, TableScan, Tid};
use crate::value::{Tuple, Value};

/// A sparse wide table: the data side of the system (the index lives in
/// `iva-core`). One file and one commit record: the catalog commits with
/// the records it describes, in the table file's own commit.
pub struct SwtTable {
    catalog: Catalog,
    file: TableFile,
}

/// The table file of the table at `base`: `<base>.tbl`. The suffix is
/// appended, never substituted for an extension `base` already has — a
/// staging base such as `data.rebuild` must not name the live `data.tbl`.
pub fn table_file_path(base: &Path) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".tbl");
    PathBuf::from(name)
}

impl SwtTable {
    /// Create a fresh disk-backed table. `base` is a path prefix: the table
    /// file lands at [`table_file_path`].
    pub fn create(base: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::create_with_vfs(Arc::new(RealVfs), base, opts, stats)
    }

    /// Create a fresh table on an explicit [`Vfs`].
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        base: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        let file = TableFile::create_with_vfs(vfs, &table_file_path(base), opts, stats)?;
        Ok(Self::with_file(file))
    }

    /// Create a fresh memory-backed table (tests, property checks).
    pub fn create_mem(opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Ok(Self::with_file(TableFile::create_mem(opts, stats)?))
    }

    fn with_file(file: TableFile) -> Self {
        Self {
            catalog: Catalog::new(),
            file,
        }
    }

    /// Open an existing disk-backed table created with [`SwtTable::create`].
    pub fn open(base: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), base, opts, stats)
    }

    /// Open an existing table on an explicit [`Vfs`]: the table file runs
    /// crash recovery, and the catalog is the one its commit carried.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        base: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        let file = TableFile::open_with_vfs(vfs, &table_file_path(base), opts, stats)?;
        let catalog = Catalog::decode(file.committed_catalog())?;
        Ok(Self { catalog, file })
    }

    /// Define (or look up) a text attribute.
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        self.catalog.define(name, AttrType::Text)
    }

    /// Define (or look up) a numerical attribute.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        self.catalog.define(name, AttrType::Numeric)
    }

    /// The attribute catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying table file.
    pub fn file(&self) -> &TableFile {
        &self.file
    }

    fn check_types(&self, tuple: &Tuple) -> Result<()> {
        for (attr, value) in tuple.iter() {
            match (self.catalog.attr_type(attr), value) {
                (None, _) => {
                    return Err(SwtError::UnknownAttribute(format!("{attr}")));
                }
                (Some(AttrType::Text), Value::Num(_)) => {
                    return Err(SwtError::TypeMismatch {
                        attr: self
                            .catalog
                            .def(attr)
                            .map_or_else(|| format!("{attr}"), |d| d.name.clone()),
                        expected: "text",
                    });
                }
                (Some(AttrType::Numeric), Value::Text(_)) => {
                    return Err(SwtError::TypeMismatch {
                        attr: self
                            .catalog
                            .def(attr)
                            .map_or_else(|| format!("{attr}"), |d| d.name.clone()),
                        expected: "numerical",
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Insert a tuple (validated against the catalog).
    pub fn insert(&mut self, tuple: &Tuple) -> Result<(Tid, RecordPtr)> {
        let tid = self.file.next_tid();
        Ok((tid, self.insert_with_tid(tid, tuple)?))
    }

    /// Insert a tuple under a caller-chosen tid (validated against the
    /// catalog): a copy must preserve the tids the original records were
    /// acknowledged under.
    fn insert_with_tid(&mut self, tid: Tid, tuple: &Tuple) -> Result<RecordPtr> {
        tuple.validate()?;
        self.check_types(tuple)?;
        self.file.append_with_tid(tid, tuple)
    }

    /// Never assign a tid below `tid`, even though no record carries it.
    /// A sealed segment reserves the global watermark so later inserts
    /// into a fresh memtable continue the same tid sequence.
    pub fn reserve_tids_below(&mut self, tid: Tid) {
        self.file.reserve_tids_below(tid);
    }

    /// Replace the catalog wholesale. The segmented write path keeps one
    /// global catalog (attributes are defined once, for every tier) and
    /// stamps it onto fresh memtables and merged segment tables.
    pub fn adopt_catalog(&mut self, catalog: Catalog) {
        self.catalog = catalog;
    }

    /// Tombstone the record of `tid` ([`TableFile::delete`]); whether it
    /// was live.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        self.file.delete(tid)
    }

    /// Fetch the record at `ptr`.
    pub fn get(&self, ptr: RecordPtr) -> Result<StoredRecord> {
        self.file.get(ptr)
    }

    /// [`SwtTable::get`] of every pointer, in input order.
    pub fn get_batch(&self, ptrs: &[RecordPtr]) -> Result<Vec<StoredRecord>> {
        ptrs.iter().map(|&ptr| self.get(ptr)).collect()
    }

    /// Read the record at `ptr` in place, without materializing its tuple
    /// (see [`TableFile::read`]).
    pub fn read<'a>(&'a self, ptr: RecordPtr, buf: &'a mut RecordBuf) -> Result<RecordRef<'a>> {
        self.file.read(ptr, buf)
    }

    /// Sequential scan of all records.
    pub fn scan(&self) -> TableScan<'_> {
        self.file.scan()
    }

    /// Copy every live record of `sources` (given oldest first) into this
    /// table under the tid it already carries, first reserving every tid
    /// any source ever assigned so that none is handed out again — the
    /// table-file half of the paper's periodic cleanup (Sec. IV-B), of a
    /// seal and of a merge. Returns the inclusive tid range copied, `None`
    /// when no live record survived.
    pub fn copy_live_from(&mut self, sources: &[&SwtTable]) -> Result<Option<(Tid, Tid)>> {
        let watermark = sources.iter().map(|s| s.file.next_tid()).max();
        self.file.reserve_tids_below(watermark.unwrap_or(0));
        let mut range: Option<(Tid, Tid)> = None;
        for src in sources {
            for item in src.scan() {
                let (_, rec) = item?;
                if rec.deleted {
                    continue;
                }
                self.insert_with_tid(rec.tid, &rec.tuple)?;
                range = Some((range.map_or(rec.tid, |(lo, _)| lo), rec.tid));
            }
        }
        Ok(range)
    }

    /// Commit the records and the catalog together, in the table file's
    /// one commit record: a crash leaves both as of the same flush.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush(&self.catalog.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iva_storage::{RealVfs, Vfs};

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 256,
            cache_bytes: 4096,
        }
    }

    fn camera_table() -> (SwtTable, AttrId, AttrId, AttrId) {
        let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let ty = t.define_text("Type").unwrap();
        let price = t.define_numeric("Price").unwrap();
        let company = t.define_text("Company").unwrap();
        (t, ty, price, company)
    }

    #[test]
    fn typed_insert_and_get() {
        let (mut t, ty, price, company) = camera_table();
        let tuple = Tuple::new()
            .with(ty, Value::text("Digital Camera"))
            .with(price, Value::num(230.0))
            .with(company, Value::text("Canon"));
        let (tid, ptr) = t.insert(&tuple).unwrap();
        assert_eq!(tid, 0);
        assert_eq!(t.get(ptr).unwrap().tuple, tuple);
    }

    #[test]
    fn get_batch_matches_serial_gets() {
        let (mut t, ty, price, _) = camera_table();
        let mut ptrs = Vec::new();
        for i in 0..60 {
            let tuple = Tuple::new()
                .with(ty, Value::text(format!("item number {i}")))
                .with(price, Value::num(i as f64 * 1.5));
            ptrs.push(t.insert(&tuple).unwrap().1);
        }
        t.delete(5).unwrap();
        // Scattered, unsorted, with a duplicate; includes a record in the
        // unflushed tail page.
        let req = [
            ptrs[41], ptrs[3], ptrs[59], ptrs[5], ptrs[3], ptrs[20], ptrs[33],
        ];
        let batch = t.get_batch(&req).unwrap();
        assert_eq!(batch.len(), req.len());
        for (p, rec) in req.iter().zip(&batch) {
            assert_eq!(rec, &t.get(*p).unwrap());
        }
        assert!(batch[3].deleted);
        assert!(t.get_batch(&[]).unwrap().is_empty());
        assert!(t.get_batch(&[ptrs[1], RecordPtr(u64::MAX - 1)]).is_err());
    }

    #[test]
    fn insert_rejects_type_mismatch_and_unknown_attr() {
        let (mut t, ty, price, _) = camera_table();
        let bad_type = Tuple::new().with(ty, Value::num(1.0));
        assert!(matches!(
            t.insert(&bad_type),
            Err(SwtError::TypeMismatch { .. })
        ));
        let bad_type2 = Tuple::new().with(price, Value::text("x"));
        assert!(matches!(
            t.insert(&bad_type2),
            Err(SwtError::TypeMismatch { .. })
        ));
        let unknown = Tuple::new().with(AttrId(99), Value::num(1.0));
        assert!(matches!(
            t.insert(&unknown),
            Err(SwtError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn copy_drops_tombstones_and_keeps_tids() {
        let (mut t, ty, price, _) = camera_table();
        for i in 0..10 {
            let tuple = Tuple::new()
                .with(ty, Value::text(format!("item {i}")))
                .with(price, Value::num(i as f64));
            t.insert(&tuple).unwrap();
        }
        for tid in [0, 3, 9] {
            assert!(t.delete(tid).unwrap());
        }

        let mut fresh = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        fresh.adopt_catalog(t.catalog().clone());
        assert_eq!(fresh.copy_live_from(&[&t]).unwrap(), Some((1, 8)));
        assert_eq!(fresh.file().total_records(), 7);
        assert_eq!(fresh.file().deleted_records(), 0);
        // Tid preserved; content matches.
        let copied: Vec<_> = fresh.scan().collect::<Result<Vec<_>>>().unwrap();
        let live: Vec<_> = t
            .scan()
            .map(|r| r.unwrap().1)
            .filter(|r| !r.deleted)
            .collect();
        assert_eq!(copied.into_iter().map(|(_, r)| r).collect::<Vec<_>>(), live);
        // Tid 9 was assigned once, so it is never assigned again.
        assert_eq!(fresh.file().next_tid(), 10);

        let mut empty = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        assert_eq!(empty.copy_live_from(&[]).unwrap(), None);
        assert_eq!(empty.file().next_tid(), 0);
    }

    #[test]
    fn disk_persistence_with_meta() {
        let dir = std::env::temp_dir().join(format!("iva-swt-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let base = dir.join("data");
        {
            let mut t = SwtTable::create(&base, &opts(), IoStats::new()).unwrap();
            let a = t.define_text("Name").unwrap();
            let b = t.define_numeric("Year").unwrap();
            t.insert(
                &Tuple::new()
                    .with(a, Value::text("Thriller"))
                    .with(b, Value::num(1982.0)),
            )
            .unwrap();
            t.flush().unwrap();
        }
        let t = SwtTable::open(&base, &opts(), IoStats::new()).unwrap();
        assert_eq!(t.catalog().len(), 2);
        assert_eq!(t.catalog().id_of("Year"), Some(AttrId(1)));
        let recs: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    /// A table whose commit record is in an earlier layout — untagged
    /// (the length, a fixed 32-byte user header of counters, no catalog),
    /// or tagged `IVBLOGv2` (a redo journal after the tail image) — is
    /// refused with a typed error naming that layout, not opened with an
    /// empty catalog or a guessed journal.
    #[test]
    fn earlier_commit_layout_is_refused_typed() {
        use iva_storage::commit::{read_commit_record, write_commit_record};
        use iva_storage::{sidecar_path, MemVfs, StorageError};
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let base = Path::new("old");
        let mut t =
            SwtTable::create_with_vfs(Arc::clone(&vfs), base, &opts(), IoStats::new()).unwrap();
        let name = t.define_text("Name").unwrap();
        for i in 0..9 {
            t.insert(&Tuple::new().with(name, Value::text(format!("row {i}"))))
                .unwrap();
        }
        t.flush().unwrap();
        drop(t);

        // Re-lay the committed payload `tag | len | user_len | tail_len |
        // user | tail` in each earlier layout: `len | 32-byte header |
        // tail_len | journal_count | tail` untagged, and `IVBLOGv2 | len |
        // user_len | tail_len | journal_count | user | tail`.
        let meta = sidecar_path(&table_file_path(base));
        let now = read_commit_record(vfs.as_ref(), &meta).unwrap();
        let user_len = u32::from_le_bytes(now[16..20].try_into().unwrap()) as usize;
        let mut untagged = now[8..16].to_vec();
        untagged.extend_from_slice(&now[24..24 + 24]);
        untagged.extend_from_slice(&[0u8; 8]);
        untagged.extend_from_slice(&now[20..24]);
        untagged.extend_from_slice(&[0u8; 4]);
        untagged.extend_from_slice(&now[24 + user_len..]);
        let mut journaled = b"IVBLOGv2".to_vec();
        journaled.extend_from_slice(&now[8..24]);
        journaled.extend_from_slice(&[0u8; 4]);
        journaled.extend_from_slice(&now[24..]);

        for (old, layout) in [
            (untagged, "fixed 32-byte user header"),
            (journaled, "redo journal"),
        ] {
            write_commit_record(vfs.as_ref(), &meta, &old).unwrap();
            match SwtTable::open_with_vfs(Arc::clone(&vfs), base, &opts(), IoStats::new()) {
                Err(SwtError::Storage(StorageError::Format { found, .. })) => {
                    assert!(found.contains(layout), "{found}")
                }
                Err(e) => panic!("untyped refusal: {e}"),
                Ok(t) => panic!("opened with {} attributes", t.catalog().len()),
            }
        }
    }
}
