//! lint:scope(panic-reachability)
//! The sparse wide table: catalog + statistics + table file, with typed
//! inserts and compaction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_storage::codec::le_u32;
use iva_storage::vfs::{RealVfs, Vfs};
use iva_storage::{commit, IoStats, PagerOptions};

use crate::error::{Result, SwtError};
use crate::schema::{AttrId, AttrType, Catalog};
use crate::stats::TableStats;
use crate::table::{RecordBuf, RecordPtr, RecordRef, StoredRecord, TableFile, TableScan, Tid};
use crate::value::{Tuple, Value};

const META_MAGIC: u32 = 0x4956_4D54; // "IVMT"

/// A sparse wide table: the data side of the system (the index lives in
/// `iva-core`).
pub struct SwtTable {
    catalog: Catalog,
    stats: TableStats,
    file: TableFile,
    vfs: Arc<dyn Vfs>,
    meta_path: Option<PathBuf>,
}

/// `<base><suffix>`: the suffix is appended, never substituted for an
/// extension `base` already has — a staging base such as `data.rebuild`
/// must not name the live `data.tbl`.
fn suffixed(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// The table file of the table at `base`: `<base>.tbl`.
pub fn table_file_path(base: &Path) -> PathBuf {
    suffixed(base, ".tbl")
}

/// The catalog/statistics sidecar of the table at `base`: `<base>.meta`.
pub fn catalog_path(base: &Path) -> PathBuf {
    suffixed(base, ".meta")
}

impl SwtTable {
    /// Create a fresh disk-backed table. `base` is a path prefix: the table
    /// file lands at [`table_file_path`] and catalog/statistics at
    /// [`catalog_path`].
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
        let file =
            TableFile::create_with_vfs(Arc::clone(&vfs), &table_file_path(base), opts, stats)?;
        Ok(Self {
            catalog: Catalog::new(),
            stats: TableStats::new(),
            file,
            vfs,
            meta_path: Some(catalog_path(base)),
        })
    }

    /// Create a fresh memory-backed table (tests, property checks). The
    /// table adopts its file's [`Vfs`] — under `IVA_VFS=fault` that is the
    /// pass-through fault injector, and everything the table ever writes
    /// (including meta sidecars of compaction targets) stays on it.
    pub fn create_mem(opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        let file = TableFile::create_mem(opts, stats)?;
        let vfs = file.vfs();
        Ok(Self {
            catalog: Catalog::new(),
            stats: TableStats::new(),
            file,
            vfs,
            meta_path: None,
        })
    }

    /// Open an existing disk-backed table created with [`SwtTable::create`].
    pub fn open(base: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), base, opts, stats)
    }

    /// Open an existing table on an explicit [`Vfs`]. The catalog sidecar
    /// is a checksummed commit record; the data file runs crash recovery.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        base: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        let file = TableFile::open_with_vfs(Arc::clone(&vfs), &table_file_path(base), opts, stats)?;
        let meta_path = catalog_path(base);
        let bytes = commit::read_commit_record(vfs.as_ref(), &meta_path)?;
        let (catalog, table_stats) = decode_meta(&bytes)?;
        Ok(Self {
            catalog,
            stats: table_stats,
            file,
            vfs,
            meta_path: Some(meta_path),
        })
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

    /// Table statistics (df / str / numeric domains).
    pub fn stats(&self) -> &TableStats {
        &self.stats
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
        let ptr = self.file.append_with_tid(tid, tuple)?;
        self.stats.ensure_attrs(self.catalog.len());
        self.stats.observe_insert(tuple);
        Ok(ptr)
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
        self.stats.ensure_attrs(self.catalog.len());
    }

    /// Tombstone the record at `ptr`.
    pub fn delete(&mut self, ptr: RecordPtr) -> Result<()> {
        self.file.mark_deleted(ptr)
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
    /// seal and of a merge. Statistics are recomputed. Returns the
    /// inclusive tid range copied, `None` when no live record survived.
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

    /// Persist data file and catalog/statistics sidecar. The sidecar is
    /// replaced atomically (write-new → fsync → rename), so a crash during
    /// flush leaves either the old or the new catalog, never a torn one.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush()?;
        if let Some(path) = &self.meta_path {
            commit::write_commit_record(
                self.vfs.as_ref(),
                path,
                &encode_meta(&self.catalog, &self.stats),
            )?;
        }
        Ok(())
    }
}

fn encode_meta(catalog: &Catalog, stats: &TableStats) -> Vec<u8> {
    let cat = catalog.encode();
    let st = stats.encode();
    let mut out = Vec::with_capacity(12 + cat.len() + st.len());
    out.extend_from_slice(&META_MAGIC.to_le_bytes());
    out.extend_from_slice(&(cat.len() as u32).to_le_bytes());
    out.extend_from_slice(&cat);
    out.extend_from_slice(&(st.len() as u32).to_le_bytes());
    out.extend_from_slice(&st);
    out
}

fn decode_meta(buf: &[u8]) -> Result<(Catalog, TableStats)> {
    let corrupt = |m: &str| SwtError::Corrupt(format!("meta: {m}"));
    if le_u32(buf, 0) != Some(META_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let cat_len = le_u32(buf, 4).ok_or_else(|| corrupt("truncated header"))? as usize;
    let cat_bytes = buf
        .get(8..8 + cat_len)
        .ok_or_else(|| corrupt("truncated catalog"))?;
    let catalog = Catalog::decode(cat_bytes)?;
    let st_off = 8 + cat_len;
    let st_len = le_u32(buf, st_off).ok_or_else(|| corrupt("truncated stats header"))? as usize;
    let st_bytes = buf
        .get(st_off + 4..st_off + 4 + st_len)
        .ok_or_else(|| corrupt("truncated stats"))?;
    let stats = TableStats::decode(st_bytes).ok_or_else(|| corrupt("bad stats"))?;
    Ok((catalog, stats))
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
        assert_eq!(t.stats().tuple_count, 1);
        assert_eq!(t.stats().attr(price).min, 230.0);
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
        t.delete(ptrs[5]).unwrap();
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
        let mut ptrs = Vec::new();
        for i in 0..10 {
            let tuple = Tuple::new()
                .with(ty, Value::text(format!("item {i}")))
                .with(price, Value::num(i as f64));
            ptrs.push(t.insert(&tuple).unwrap().1);
        }
        t.delete(ptrs[0]).unwrap();
        t.delete(ptrs[3]).unwrap();
        t.delete(ptrs[9]).unwrap();

        let mut fresh = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        fresh.adopt_catalog(t.catalog().clone());
        assert_eq!(fresh.copy_live_from(&[&t]).unwrap(), Some((1, 8)));
        assert_eq!(fresh.file().total_records(), 7);
        assert_eq!(fresh.file().deleted_records(), 0);
        assert_eq!(fresh.stats().tuple_count, 7);
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
        assert_eq!(t.stats().tuple_count, 1);
        assert_eq!(t.stats().attr(AttrId(1)).max, 1982.0);
        let recs: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
        RealVfs.remove_dir_all(&dir).unwrap();
    }
}
