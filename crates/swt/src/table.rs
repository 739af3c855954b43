//! lint:scope(no-panic-decode)
//! The table file: row-wise interpreted records in an append-only log.
//!
//! Matches Sec. IV-B of the paper: "the new tuple is appended to the end of
//! the table file for an insertion"; deletions are tombstoned and physically
//! reclaimed only by a periodic rebuild. Each stored record carries its
//! tuple id and a flags byte so the file is self-contained for full scans
//! (the DST baseline) and for rebuilds.
//!
//! Stored record layout: `[rec_len: u32][tid: u64][flags: u8][record bytes]`.
//!
//! Every read — point lookup, batch, sequential scan, and the query
//! spine's refine round — goes through one routine, [`TableFile::fetch`]:
//! it pins the pages the records start on (page-ordered and coalesced for
//! a batch), parses and bounds-checks each stored header once, and hands
//! the record out as a [`RecordView`] over the pinned page's own bytes
//! when header and payload share a page. Records that straddle a page
//! boundary are assembled in a caller-supplied scratch buffer instead.
//! [`TableFile::get`] / [`TableFile::get_batch`] materialize owned
//! [`StoredRecord`]s from those views.

use std::path::Path;
use std::sync::Arc;

use iva_storage::codec::{le_u32, le_u64};
use iva_storage::vfs::Vfs;
use iva_storage::{ByteLog, IoStats, PageRef, PagerOptions, PinnedPages, USER_HEADER_LEN};

use crate::error::{Result, SwtError};
use crate::record::{decode_record, encode_record, RecordView};
use crate::value::Tuple;

/// Tuple identifier. Monotonically increasing; never reused (updates are
/// delete + insert with a fresh id, per Sec. IV-B).
pub type Tid = u64;

/// Byte address of a stored record in the table file (the tuple list's
/// `ptr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordPtr(pub u64);

const FLAG_DELETED: u8 = 1;
const RECORD_HEADER: usize = 4 + 8 + 1;

/// A record fetched from the table file.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Tuple id.
    pub tid: Tid,
    /// Tombstone flag.
    pub deleted: bool,
    /// The tuple payload.
    pub tuple: Tuple,
}

/// A stored record read in place: borrowed from a pinned page (or the
/// fetch's scratch buffer), valid until the fetch moves on.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Tuple id.
    pub tid: Tid,
    /// Tombstone flag.
    pub deleted: bool,
    /// The encoded tuple payload.
    pub view: RecordView<'a>,
}

impl RecordRef<'_> {
    /// Decode into an owned [`StoredRecord`], insisting the payload is
    /// exactly one record.
    pub fn materialize(&self) -> Result<StoredRecord> {
        let (tuple, used) = decode_record(self.view.bytes())?;
        if used != self.view.bytes().len() {
            return Err(SwtError::Corrupt(format!(
                "record of tuple {} decoded {used} of {} bytes",
                self.tid,
                self.view.bytes().len()
            )));
        }
        Ok(StoredRecord {
            tid: self.tid,
            deleted: self.deleted,
            tuple,
        })
    }
}

/// Append-only table file of interpreted records.
pub struct TableFile {
    log: ByteLog,
    next_tid: Tid,
    total_records: u64,
    deleted_records: u64,
}

impl TableFile {
    /// Create a fresh disk-backed table file.
    pub fn create(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Ok(Self::from_log(ByteLog::create(path, opts, stats)?))
    }

    /// Create a fresh memory-backed table file.
    pub fn create_mem(opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Ok(Self::from_log(ByteLog::create_mem(opts, stats)?))
    }

    /// Create a fresh table file on an explicit [`Vfs`] (fault injection,
    /// in-memory crash replay).
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        Ok(Self::from_log(ByteLog::create_with_vfs(
            vfs, path, opts, stats,
        )?))
    }

    /// Open an existing table file on an explicit [`Vfs`], running the
    /// byte log's crash recovery (uncommitted tail pages are discarded).
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        Self::from_opened(ByteLog::open_with_vfs(vfs, path, opts, stats)?)
    }

    /// The [`Vfs`] the backing log lives on. [`SwtTable`](crate::SwtTable)
    /// writes its catalog sidecar through this same handle so the whole
    /// table — data and meta — shares one filesystem (and one fault
    /// injector, under `IVA_VFS=fault`).
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.log.vfs()
    }

    fn from_log(log: ByteLog) -> Self {
        Self {
            log,
            next_tid: 0,
            total_records: 0,
            deleted_records: 0,
        }
    }

    /// Open an existing table file.
    pub fn open(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::from_opened(ByteLog::open(path, opts, stats)?)
    }

    fn from_opened(log: ByteLog) -> Result<Self> {
        let h = log.user_header();
        let header = |o| le_u64(h, o).ok_or_else(|| SwtError::Corrupt("short user header".into()));
        let next_tid = header(0)?;
        let total_records = header(8)?;
        let deleted_records = header(16)?;
        if deleted_records > total_records || total_records > log.len() {
            return Err(SwtError::Corrupt(format!(
                "table header counters inconsistent: {total_records} records \
                 ({deleted_records} deleted) in a {}-byte file",
                log.len()
            )));
        }
        Ok(Self {
            log,
            next_tid,
            total_records,
            deleted_records,
        })
    }

    /// Append a tuple, returning its assigned tuple id and record pointer.
    pub fn append(&mut self, tuple: &Tuple) -> Result<(Tid, RecordPtr)> {
        let tid = self.next_tid;
        let ptr = self.append_with_tid(tid, tuple)?;
        Ok((tid, ptr))
    }

    /// Append a tuple under a caller-chosen tuple id (used by rebuilds to
    /// preserve ids). Advances `next_tid` past `tid` if needed.
    pub fn append_with_tid(&mut self, tid: Tid, tuple: &Tuple) -> Result<RecordPtr> {
        let mut payload = Vec::new();
        encode_record(tuple, &mut payload)?;
        self.next_tid = self.next_tid.max(tid + 1);
        self.total_records += 1;

        let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&tid.to_le_bytes());
        rec.push(0); // flags
        rec.extend_from_slice(&payload);
        let pos = self.log.append(&rec)?;
        Ok(RecordPtr(pos))
    }

    /// Random-access fetch of the record at `ptr`.
    pub fn get(&self, ptr: RecordPtr) -> Result<StoredRecord> {
        let (mut held, mut scratch) = (None, Vec::new());
        self.record_at(ptr, &PinnedPages::empty(), &mut held, &mut scratch)?
            .materialize()
    }

    /// Batched random-access fetch: results come back in input order, but
    /// the disk I/O happens in **page order** — see [`TableFile::fetch`].
    /// Duplicate pointers are fine and decode independently.
    pub fn get_batch(&self, ptrs: &[RecordPtr]) -> Result<Vec<StoredRecord>> {
        let mut scratch = Vec::new();
        let mut fetch = self.fetch(ptrs, &mut scratch)?;
        let mut out = Vec::with_capacity(ptrs.len());
        while let Some(rec) = fetch.next_record()? {
            out.push(rec.materialize()?);
        }
        Ok(out)
    }

    /// Start reading the records at `ptrs` in place. The records come out
    /// of [`RecordFetch::next_record`] in input order; the disk I/O of a
    /// batch happens up front in **page order** — the pages are sorted,
    /// deduplicated and coalesced into sequential runs, so several records
    /// on one page cost a single read and adjacent pages cost one seek
    /// (see [`Pager::read_batch`](iva_storage::Pager::read_batch)) — and
    /// each page is pinned once for the whole batch.
    ///
    /// Two passes, because record lengths are not known up front: pin the
    /// pages the stored headers sit on, then — from the now-readable
    /// lengths — the further pages that page-straddling records spill
    /// onto. A single pointer skips the pin set: its page is read through
    /// the pager when the record is asked for.
    ///
    /// `scratch` assembles the records that straddle a page boundary;
    /// pass the same buffer to successive fetches to reuse its capacity.
    pub fn fetch<'t>(
        &'t self,
        ptrs: &'t [RecordPtr],
        scratch: &'t mut Vec<u8>,
    ) -> Result<RecordFetch<'t>> {
        let mut pins = PinnedPages::empty();
        if ptrs.len() > 1 {
            // Pass 1: headers, page-coalesced.
            let mut ids = Vec::new();
            for &p in ptrs {
                self.check_header_in_bounds(p)?;
                self.log.pages_spanning(p.0, RECORD_HEADER, &mut ids);
            }
            pins = self.log.pin_pages(&ids)?;
            // Pass 2: the pages payloads spill onto. Header pages are
            // already pinned and are not asked for again.
            ids.clear();
            for &p in ptrs {
                let mut header = [0u8; RECORD_HEADER];
                self.log.read_at_pinned(p.0, &mut header, &pins)?;
                let (rec_len, _, _) = self.parse_record_header(p, &header)?;
                self.log
                    .pages_spanning(p.0 + RECORD_HEADER as u64, rec_len, &mut ids);
            }
            ids.retain(|&id| !pins.contains(id));
            if !ids.is_empty() {
                pins.merge(self.log.pin_pages(&ids)?);
            }
        }
        Ok(RecordFetch {
            file: self,
            ptrs: ptrs.iter(),
            pins,
            held: None,
            scratch,
        })
    }

    /// A stored header must lie inside the log before its pages are
    /// computed, let alone pinned.
    fn check_header_in_bounds(&self, ptr: RecordPtr) -> Result<()> {
        match ptr.0.checked_add(RECORD_HEADER as u64) {
            Some(end) if end <= self.log.len() => Ok(()),
            _ => Err(SwtError::Corrupt(format!(
                "record pointer {} beyond the {}-byte table file",
                ptr.0,
                self.log.len()
            ))),
        }
    }

    /// Parse a stored-record header `[rec_len: u32][tid: u64][flags: u8]`
    /// read at `ptr`. The length comes straight off disk: it is checked
    /// against the log **here**, before anything sizes a buffer or a page
    /// list from it.
    fn parse_record_header(
        &self,
        ptr: RecordPtr,
        header: &[u8; RECORD_HEADER],
    ) -> Result<(usize, Tid, u8)> {
        let corrupt = || SwtError::Corrupt(format!("record header at {} unreadable", ptr.0));
        let rec_len = le_u32(header, 0).ok_or_else(corrupt)?;
        let tid = le_u64(header, 4).ok_or_else(corrupt)?;
        let flags = *header.get(12).ok_or_else(corrupt)?;
        let end = ptr.0 + RECORD_HEADER as u64 + u64::from(rec_len);
        if end > self.log.len() {
            return Err(SwtError::Corrupt(format!(
                "record at {} claims {rec_len} bytes, past the {}-byte table file",
                ptr.0,
                self.log.len()
            )));
        }
        Ok((rec_len as usize, tid, flags))
    }

    /// Read the record at `ptr` in place: one page lookup (pin set, tail
    /// buffer, buffered overwrite, else one cached pager read parked in
    /// `held`), one header parse, and — when header and payload share the
    /// page — a view over that page's bytes. Otherwise the payload is
    /// assembled in `scratch`.
    fn record_at<'a>(
        &'a self,
        ptr: RecordPtr,
        pins: &'a PinnedPages,
        held: &'a mut Option<PageRef>,
        scratch: &'a mut Vec<u8>,
    ) -> Result<RecordRef<'a>> {
        self.check_header_in_bounds(ptr)?;
        let page = self.log.page_tail(ptr.0, pins, held)?;
        let (header, in_page) = match page.split_first_chunk::<RECORD_HEADER>() {
            Some((header, rest)) => (*header, Some(rest)),
            None => {
                // The header itself straddles the page boundary.
                let mut header = [0u8; RECORD_HEADER];
                self.log.read_at_pinned(ptr.0, &mut header, pins)?;
                (header, None)
            }
        };
        let (rec_len, tid, flags) = self.parse_record_header(ptr, &header)?;
        let payload = match in_page.and_then(|rest| rest.get(..rec_len)) {
            Some(payload) => payload,
            None => {
                scratch.resize(rec_len, 0);
                self.log
                    .read_at_pinned(ptr.0 + RECORD_HEADER as u64, scratch, pins)?;
                scratch
            }
        };
        Ok(RecordRef {
            tid,
            deleted: flags & FLAG_DELETED != 0,
            view: RecordView::new(payload),
        })
    }

    /// Tombstone the record at `ptr` (idempotent).
    pub fn mark_deleted(&mut self, ptr: RecordPtr) -> Result<()> {
        let mut header = [0u8; RECORD_HEADER];
        self.log.read_at(ptr.0, &mut header)?;
        let flags = header.last().copied().unwrap_or(0);
        if flags & FLAG_DELETED == 0 {
            self.log.write_at(ptr.0 + 12, &[flags | FLAG_DELETED])?;
            self.deleted_records += 1;
        }
        Ok(())
    }

    /// Sequential scan over all records (including tombstones).
    pub fn scan(&self) -> TableScan<'_> {
        TableScan {
            table: self,
            pos: 0,
        }
    }

    /// Next tuple id to be assigned.
    pub fn next_tid(&self) -> Tid {
        self.next_tid
    }

    /// Raise the tid floor (used by compaction so ids of tuples deleted
    /// before the rebuild are never reassigned).
    pub fn reserve_tids_below(&mut self, tid: Tid) {
        self.next_tid = self.next_tid.max(tid);
    }

    /// Total records ever appended (including tombstones).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Records currently tombstoned.
    pub fn deleted_records(&self) -> u64 {
        self.deleted_records
    }

    /// Live (non-tombstoned) records.
    pub fn live_records(&self) -> u64 {
        self.total_records - self.deleted_records
    }

    /// Logical data bytes in the file.
    pub fn data_len(&self) -> u64 {
        self.log.len()
    }

    /// Physical file size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.log.size_bytes()
    }

    /// I/O counters of the backing pager.
    pub fn io_stats(&self) -> &IoStats {
        self.log.pager().stats()
    }

    /// Drop all cached pages (cold-start experiments).
    pub fn clear_cache(&self) {
        self.log.pager().clear_cache();
    }

    /// Resize the buffer pool (experiments keep cache-to-data ratios
    /// constant across scales).
    pub fn resize_cache(&self, cache_bytes: usize) {
        self.log.pager().resize_cache(cache_bytes);
    }

    /// Toggle per-page checksum verification on reads (benchmarking hook;
    /// on by default).
    pub fn set_verify_checksums(&self, verify: bool) {
        self.log.pager().set_verify_checksums(verify);
    }

    /// Persist header and tail page.
    pub fn flush(&mut self) -> Result<()> {
        let mut h = [0u8; USER_HEADER_LEN];
        let words = [self.next_tid, self.total_records, self.deleted_records];
        for (dst, src) in h.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&src.to_le_bytes());
        }
        self.log.set_user_header(h);
        self.log.flush()?;
        Ok(())
    }
}

/// An in-progress [`TableFile::fetch`]: hands the requested records out
/// one at a time, in input order, each borrowed until the next call.
pub struct RecordFetch<'t> {
    file: &'t TableFile,
    ptrs: std::slice::Iter<'t, RecordPtr>,
    pins: PinnedPages,
    /// The page of the record last handed out, when no pin set holds it.
    held: Option<PageRef>,
    scratch: &'t mut Vec<u8>,
}

impl RecordFetch<'_> {
    /// The next requested record, or `None` after the last.
    pub fn next_record(&mut self) -> Result<Option<RecordRef<'_>>> {
        let Some(&ptr) = self.ptrs.next() else {
            return Ok(None);
        };
        self.file
            .record_at(ptr, &self.pins, &mut self.held, self.scratch)
            .map(Some)
    }
}

/// Iterator over `(ptr, record)` pairs in file order.
pub struct TableScan<'a> {
    table: &'a TableFile,
    pos: u64,
}

impl Iterator for TableScan<'_> {
    type Item = Result<(RecordPtr, StoredRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.table.log.len() {
            return None;
        }
        let ptr = RecordPtr(self.pos);
        let (mut held, mut scratch) = (None, Vec::new());
        let rec = self
            .table
            .record_at(ptr, &PinnedPages::empty(), &mut held, &mut scratch)
            .and_then(|rec| {
                // Advance past header + payload by the length the fetch
                // already parsed and bounds-checked.
                self.pos += (RECORD_HEADER + rec.view.bytes().len()) as u64;
                rec.materialize()
            });
        Some(rec.map(|rec| (ptr, rec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::value::Value;
    use iva_storage::{RealVfs, Vfs};

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 8,
        }
    }

    fn tuple(i: u64) -> Tuple {
        Tuple::new()
            .with(AttrId(0), Value::text(format!("item number {i}")))
            .with(AttrId(1), Value::num(i as f64 * 1.5))
    }

    #[test]
    fn append_get_roundtrip() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let (tid0, p0) = t.append(&tuple(0)).unwrap();
        let (tid1, p1) = t.append(&tuple(1)).unwrap();
        assert_eq!((tid0, tid1), (0, 1));
        assert_ne!(p0, p1);

        let r = t.get(p1).unwrap();
        assert_eq!(r.tid, 1);
        assert!(!r.deleted);
        assert_eq!(r.tuple, tuple(1));
    }

    #[test]
    fn tombstone_is_idempotent() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let (_, p) = t.append(&tuple(7)).unwrap();
        t.mark_deleted(p).unwrap();
        t.mark_deleted(p).unwrap();
        assert!(t.get(p).unwrap().deleted);
        assert_eq!(t.deleted_records(), 1);
        assert_eq!(t.live_records(), 0);
    }

    #[test]
    fn scan_returns_all_in_order() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..50 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.mark_deleted(ptrs[10]).unwrap();
        let scanned: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(scanned.len(), 50);
        for (i, (ptr, rec)) in scanned.iter().enumerate() {
            assert_eq!(*ptr, ptrs[i]);
            assert_eq!(rec.tid, i as u64);
            assert_eq!(rec.deleted, i == 10);
            assert_eq!(rec.tuple, tuple(i as u64));
        }
    }

    #[test]
    fn persistence() {
        let dir = std::env::temp_dir().join(format!("iva-tbl-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("t.tbl");
        let p;
        {
            let mut t = TableFile::create(&path, &opts(), IoStats::new()).unwrap();
            p = t.append(&tuple(0)).unwrap().1;
            t.append(&tuple(1)).unwrap();
            t.mark_deleted(p).unwrap();
            t.flush().unwrap();
        }
        let t = TableFile::open(&path, &opts(), IoStats::new()).unwrap();
        assert_eq!(t.next_tid(), 2);
        assert_eq!(t.total_records(), 2);
        assert_eq!(t.deleted_records(), 1);
        assert!(t.get(p).unwrap().deleted);
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_batch_matches_serial_gets() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..60 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.mark_deleted(ptrs[5]).unwrap();
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
    }

    /// A flipped length byte used to size a `vec![0u8; rec_len]` (and a
    /// page-id list) straight from the header before any bounds check.
    /// Every read path now rejects it at the one header parse.
    #[test]
    fn oversized_stored_length_is_corrupt_not_allocated() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..20 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.flush().unwrap();
        let bad = ptrs[7];
        t.log.write_at(bad.0, &u32::MAX.to_le_bytes()).unwrap();
        let corrupt = |r: Result<()>| matches!(r, Err(SwtError::Corrupt(_)));
        assert!(corrupt(t.get(bad).map(drop)));
        assert!(corrupt(t.get_batch(&[ptrs[2], bad, ptrs[11]]).map(drop)));
        assert!(corrupt(t.scan().collect::<Result<Vec<_>>>().map(drop)));
        // A length that is merely a few bytes too long for the file is
        // caught by the same check.
        let last = ptrs[19];
        let len = t.data_len() - last.0 - RECORD_HEADER as u64;
        t.log
            .write_at(last.0, &(len as u32 + 1).to_le_bytes())
            .unwrap();
        assert!(corrupt(t.get(last).map(drop)));
        // Neighbours are untouched.
        assert_eq!(t.get(ptrs[8]).unwrap().tuple, tuple(8));
    }

    #[test]
    fn fetch_reads_in_place_and_across_page_boundaries() {
        // 256-byte pages and ~45-byte records: some records sit inside a
        // page, some straddle two, the last ones are in the unflushed tail
        // and one is under a buffered overwrite (tombstone).
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..40 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.flush().unwrap();
        for i in 40..44 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.mark_deleted(ptrs[3]).unwrap();
        let straddlers = ptrs
            .iter()
            .filter(|p| p.0 / 256 != (p.0 + 44) / 256)
            .count();
        assert!(straddlers > 3 && straddlers < 40, "{straddlers}");

        let mut scratch = Vec::new();
        for batch in [&ptrs[..], &ptrs[5..6]] {
            let mut fetch = t.fetch(batch, &mut scratch).unwrap();
            for &p in batch {
                let rec = fetch.next_record().unwrap().unwrap();
                assert_eq!(rec.materialize().unwrap(), t.get(p).unwrap());
            }
            assert!(fetch.next_record().unwrap().is_none());
        }
        assert!(t.get(ptrs[3]).unwrap().deleted);
    }

    #[test]
    fn fetch_pins_each_resident_page_once() {
        let opts = PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 64,
        };
        let mut t = TableFile::create_mem(&opts, IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..40 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.flush().unwrap();
        let mut scratch = Vec::new();
        let fetched = t.get_batch(&ptrs).unwrap(); // warm
        let pages = t.size_bytes() / 256;
        let before = t.io_stats().snapshot();
        let mut fetch = t.fetch(&ptrs, &mut scratch).unwrap();
        let mut n = 0;
        while let Some(rec) = fetch.next_record().unwrap() {
            assert_eq!(rec.tid, fetched[n].tid);
            n += 1;
        }
        let d = t.io_stats().snapshot().since(&before);
        assert_eq!(n, 40);
        assert_eq!(d.disk_page_reads, 0);
        // One lookup per distinct page for the whole batch (the tail page
        // is served from memory and never asked of the pager) — not one
        // for the header pass and another for the payload pass.
        assert!(
            d.cache_hits <= pages,
            "{} hits, {pages} pages",
            d.cache_hits
        );
    }

    #[test]
    fn get_batch_reads_each_page_once() {
        let opts = PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 64,
        };
        let mut t = TableFile::create_mem(&opts, IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..60 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.flush().unwrap();
        t.clear_cache();
        let before = t.io_stats().snapshot();
        let batch = t.get_batch(&ptrs).unwrap();
        let d = t.io_stats().snapshot().since(&before);
        assert_eq!(batch.len(), 60);
        // Fetching every record must read each data page at most once;
        // pages form one adjacent run, so (almost) all of it sequential.
        let pages = t.size_bytes() / 256;
        assert!(
            d.disk_page_reads <= pages,
            "{} reads for a {}-page file",
            d.disk_page_reads,
            pages
        );
        assert!(d.random_seeks <= 2, "run not coalesced: {d:?}");
    }

    #[test]
    fn get_at_bad_ptr_fails() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        t.append(&tuple(0)).unwrap();
        assert!(t.get(RecordPtr(1_000_000)).is_err());
    }

    #[test]
    fn empty_tuple_storable() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let (_, p) = t.append(&Tuple::new()).unwrap();
        assert!(t.get(p).unwrap().tuple.is_empty());
    }
}
