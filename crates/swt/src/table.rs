//! lint:scope(panic-reachability)
//! The table file: row-wise interpreted records in an append-only log.
//!
//! Matches Sec. IV-B of the paper: "the new tuple is appended to the end of
//! the table file for an insertion"; deletions are tombstoned and physically
//! reclaimed only by a periodic rebuild. Each stored record carries its
//! tuple id so the file is self-contained for full scans (the DST
//! baseline) and for rebuilds.
//!
//! Stored record layout: `[rec_len: u32][tid: u64][record bytes]`, never
//! written again: a delete adds the tid to the file's one resident,
//! sorted tombstone set, which every read consults (liveness beside the
//! data, as SNIPPETS.md's Ixa keeps it). β's rebuild bounds the set.
//!
//! Every read — point lookup, sequential scan, and the query spine's
//! refine step — goes through one routine, [`TableFile::read`]: it looks
//! up the page the record starts on, parses and bounds-checks the stored
//! header once, and hands the record out as a [`RecordView`] over that
//! page's own bytes when header and payload share a page. Records that
//! straddle a page boundary are assembled in the caller's [`RecordBuf`]
//! instead. [`TableFile::get`] materializes an owned [`StoredRecord`]
//! from that view.
//!
//! The file has one commit record, its byte log's: [`TableFile::flush`]
//! commits the records together with the user bytes `next_tid (8) |
//! total_records (8) | n (8) | n deleted tids (8 each, ascending) |
//! catalog`, where the catalog is whatever encoded bytes the owner passes
//! ([`SwtTable`](crate::SwtTable)'s [`Catalog`](crate::Catalog)).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use iva_storage::codec::{le_u32, le_u64};
use iva_storage::vfs::Vfs;
use iva_storage::{ByteLog, IoStats, PageRef, PagerOptions};

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

const RECORD_HEADER: usize = 4 + 8;
/// The three counters that lead the committed user bytes.
const COUNTERS: usize = 3 * 8;

/// A record fetched from the table file.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Tuple id.
    pub tid: Tid,
    /// Whether the table's tombstone set holds the tid.
    pub deleted: bool,
    /// The tuple payload.
    pub tuple: Tuple,
}

/// What [`TableFile::read`] borrows a record from; pass the same one to
/// successive reads to reuse its capacity.
#[derive(Debug, Default)]
pub struct RecordBuf {
    /// The page of the record last read, when the pager served it.
    held: Option<PageRef>,
    /// Assembles a record that straddles a page boundary.
    scratch: Vec<u8>,
}

/// A stored record read in place: borrowed from its page (or the
/// [`RecordBuf`]'s scratch), valid until the buffer's next read.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Tuple id.
    pub tid: Tid,
    /// Whether the table's tombstone set holds the tid.
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

/// Append-only table file of interpreted records. Records, counters, the
/// tombstone set and the owner's catalog commit together, in its byte
/// log's one commit record ([`TableFile::flush`]).
pub struct TableFile {
    log: ByteLog,
    next_tid: Tid,
    total_records: u64,
    /// The deleted tids, each one a record's.
    deleted: BTreeSet<Tid>,
    /// Tombstones the last commit carried.
    committed_deletes: usize,
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

    fn from_log(log: ByteLog) -> Self {
        Self {
            log,
            next_tid: 0,
            total_records: 0,
            deleted: BTreeSet::new(),
            committed_deletes: 0,
        }
    }

    /// Open an existing table file.
    pub fn open(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::from_opened(ByteLog::open(path, opts, stats)?)
    }

    fn from_opened(log: ByteLog) -> Result<Self> {
        let (next_tid, total_records, deleted) = decode_user(log.user(), log.len())?;
        Ok(Self {
            log,
            next_tid,
            total_records,
            committed_deletes: deleted.len(),
            deleted,
        })
    }

    /// The catalog bytes the last commit carried (as recovered by open;
    /// empty for a file never flushed with one).
    pub fn committed_catalog(&self) -> &[u8] {
        let at = COUNTERS + 8 * self.committed_deletes;
        self.log.user().get(at..).unwrap_or_default()
    }

    /// Append a tuple, returning its assigned tuple id and record pointer.
    pub fn append(&mut self, tuple: &Tuple) -> Result<(Tid, RecordPtr)> {
        let tid = self.next_tid;
        let ptr = self.append_with_tid(tid, tuple)?;
        Ok((tid, ptr))
    }

    /// Append a tuple under a caller-chosen tuple id (used by rebuilds to
    /// preserve ids). Advances `next_tid` past `tid` if needed — only once
    /// the record is in: a failed append leaves no record counted.
    pub fn append_with_tid(&mut self, tid: Tid, tuple: &Tuple) -> Result<RecordPtr> {
        let mut payload = Vec::new();
        encode_record(tuple, &mut payload)?;
        let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&tid.to_le_bytes());
        rec.extend_from_slice(&payload);
        let pos = self.log.append(&rec)?;
        self.next_tid = self.next_tid.max(tid + 1);
        self.total_records += 1;
        Ok(RecordPtr(pos))
    }

    /// Random-access fetch of the record at `ptr`.
    pub fn get(&self, ptr: RecordPtr) -> Result<StoredRecord> {
        self.read(ptr, &mut RecordBuf::default())?.materialize()
    }

    /// A stored header must lie inside the log before its page is looked
    /// up.
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

    /// Parse a stored-record header `[rec_len: u32][tid: u64]` read at
    /// `ptr`. The length comes straight off disk: it is checked against
    /// the log **here**, before anything sizes a buffer from it.
    fn parse_record_header(
        &self,
        ptr: RecordPtr,
        header: &[u8; RECORD_HEADER],
    ) -> Result<(usize, Tid)> {
        let corrupt = || SwtError::Corrupt(format!("record header at {} unreadable", ptr.0));
        let rec_len = le_u32(header, 0).ok_or_else(corrupt)?;
        let tid = le_u64(header, 4).ok_or_else(corrupt)?;
        let end = ptr.0 + RECORD_HEADER as u64 + u64::from(rec_len);
        if end > self.log.len() {
            return Err(SwtError::Corrupt(format!(
                "record at {} claims {rec_len} bytes, past the {}-byte table file",
                ptr.0,
                self.log.len()
            )));
        }
        Ok((rec_len as usize, tid))
    }

    /// Read the record at `ptr` in place: one page lookup (the tail
    /// buffer, else one cached pager read parked in `buf`),
    /// one header parse, and — when header and payload share the page — a
    /// view over that page's bytes. Otherwise the payload is assembled in
    /// `buf`'s scratch.
    pub fn read<'a>(&'a self, ptr: RecordPtr, buf: &'a mut RecordBuf) -> Result<RecordRef<'a>> {
        self.check_header_in_bounds(ptr)?;
        let RecordBuf { held, scratch } = buf;
        let page = self.log.page_tail(ptr.0, held)?;
        let (header, in_page) = match page.split_first_chunk::<RECORD_HEADER>() {
            Some((header, rest)) => (*header, Some(rest)),
            None => {
                // The header itself straddles the page boundary.
                let mut header = [0u8; RECORD_HEADER];
                self.log.read_at(ptr.0, &mut header)?;
                (header, None)
            }
        };
        let (rec_len, tid) = self.parse_record_header(ptr, &header)?;
        let payload = match in_page.and_then(|rest| rest.get(..rec_len)) {
            Some(payload) => payload,
            None => {
                scratch.resize(rec_len, 0);
                self.log.read_at(ptr.0 + RECORD_HEADER as u64, scratch)?;
                scratch
            }
        };
        Ok(RecordRef {
            tid,
            deleted: self.deleted.contains(&tid),
            view: RecordView::new(payload),
        })
    }

    /// Tombstone the record of `tid`, a tid this table holds: it joins the
    /// tombstone set, and the next flush commits it. No stored byte
    /// changes. Returns whether `tid` was live; a tid at or past
    /// [`TableFile::next_tid`] is no record's.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        if tid >= self.next_tid {
            return Err(SwtError::InvalidArgument(format!(
                "delete of tuple {tid}, but no tid at or past {} was assigned",
                self.next_tid
            )));
        }
        Ok(self.deleted.insert(tid))
    }

    /// The tombstone set: every deleted tid, ascending.
    pub fn deleted(&self) -> &BTreeSet<Tid> {
        &self.deleted
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
        self.deleted.len() as u64
    }

    /// Live (non-tombstoned) records.
    pub fn live_records(&self) -> u64 {
        self.total_records.saturating_sub(self.deleted_records())
    }

    /// Fraction of the records that are tombstoned: the periodic
    /// cleanup's trigger input (Sec. V-C's β).
    pub fn deleted_fraction(&self) -> f64 {
        match self.total_records {
            0 => 0.0,
            n => self.deleted_records() as f64 / n as f64,
        }
    }

    /// Whether a flush has anything to commit besides the catalog:
    /// appended records or tombstones since the last commit.
    pub fn is_dirty(&self) -> bool {
        self.log.len() != self.log.committed_len() || self.deleted.len() != self.committed_deletes
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

    /// Commit the records, the counters, the tombstone set and `catalog`
    /// in one commit record.
    pub fn flush(&mut self, catalog: &[u8]) -> Result<()> {
        let n = self.deleted.len() as u64;
        let mut user = Vec::with_capacity(COUNTERS + 8 * n as usize + catalog.len());
        for word in [self.next_tid, self.total_records, n]
            .iter()
            .chain(&self.deleted)
        {
            user.extend_from_slice(&word.to_le_bytes());
        }
        user.extend_from_slice(catalog);
        self.log.set_user(user);
        self.log.flush()?;
        self.committed_deletes = self.deleted.len();
        Ok(())
    }
}

/// Decode committed user bytes into `(next_tid, total_records, tombstone
/// set)`. They come straight off disk, so the decode is total: counters
/// the file cannot hold, or a set that is short, not strictly ascending,
/// or names a tid no record could carry, are `Corrupt`.
fn decode_user(user: &[u8], file_len: u64) -> Result<(Tid, u64, BTreeSet<Tid>)> {
    let corrupt = |what: String| SwtError::Corrupt(format!("table commit record: {what}"));
    let word = |o: usize| le_u64(user, o).ok_or_else(|| corrupt("short user bytes".into()));
    let (next_tid, total_records, n) = (word(0)?, word(8)?, word(16)?);
    if total_records > file_len || n > total_records {
        return Err(corrupt(format!(
            "{n} tombstones of {total_records} records in a {file_len}-byte file"
        )));
    }
    // Each tid is read before the next is sought: a count the bytes do
    // not back fails at their end.
    let mut deleted = BTreeSet::new();
    for at in (COUNTERS..)
        .step_by(8)
        .take(usize::try_from(n).unwrap_or(usize::MAX))
    {
        let tid = word(at)?;
        if tid >= next_tid || deleted.last().is_some_and(|&last| last >= tid) {
            return Err(corrupt(format!(
                "tombstone {tid} out of order or past {next_tid}"
            )));
        }
        deleted.insert(tid);
    }
    Ok((next_tid, total_records, deleted))
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
        let mut buf = RecordBuf::default();
        let rec = self.table.read(ptr, &mut buf).and_then(|rec| {
            // Advance past header + payload by the length the read
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
        let (tid, p) = t.append(&tuple(7)).unwrap();
        assert!(t.delete(tid).unwrap());
        assert!(!t.delete(tid).unwrap());
        assert!(t.get(p).unwrap().deleted);
        assert_eq!(t.deleted_records(), 1);
        assert_eq!(t.live_records(), 0);
        assert!(
            t.delete(tid + 1).is_err(),
            "no record carries tid {}",
            tid + 1
        );
    }

    #[test]
    fn scan_returns_all_in_order() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..50 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.delete(10).unwrap();
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
        let (p0, p1);
        {
            let mut t = TableFile::create(&path, &opts(), IoStats::new()).unwrap();
            p0 = t.append(&tuple(0)).unwrap().1;
            p1 = t.append(&tuple(1)).unwrap().1;
            t.append(&tuple(2)).unwrap();
            t.delete(2).unwrap();
            t.delete(0).unwrap();
            assert!(t.is_dirty());
            t.flush(b"the owner's catalog").unwrap();
            assert!(!t.is_dirty());
            // Neither a delete nor a record after the last flush survives.
            t.delete(1).unwrap();
            t.append(&tuple(3)).unwrap();
        }
        let t = TableFile::open(&path, &opts(), IoStats::new()).unwrap();
        assert_eq!(t.committed_catalog(), b"the owner's catalog");
        assert_eq!(t.next_tid(), 3);
        assert_eq!(t.total_records(), 3);
        assert_eq!(t.deleted_records(), 2);
        assert_eq!(t.deleted().iter().copied().collect::<Vec<_>>(), [0, 2]);
        assert!(t.get(p0).unwrap().deleted);
        assert!(!t.get(p1).unwrap().deleted);
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    /// The committed set is decoded totally: every way its bytes can
    /// disagree with the counters before it is `Corrupt`, never a panic
    /// or a set that names no record.
    #[test]
    fn a_lying_tombstone_set_is_corrupt() {
        let user = |words: &[u64]| {
            words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<_>>()
        };
        let good = user(&[9, 5, 2, 3, 8]);
        let (next, total, set) = decode_user(&good, 1000).unwrap();
        assert_eq!((next, total), (9, 5));
        assert_eq!(set.into_iter().collect::<Vec<_>>(), [3, 8]);
        for (bad, why) in [
            (user(&[9, 5, 2, 8, 3]), "descending"),
            (user(&[9, 5, 2, 3, 3]), "repeated"),
            (user(&[9, 5, 2, 3, 9]), "a tid at next_tid"),
            (user(&[9, 1, 2, 3, 8]), "more tombstones than records"),
            (user(&[9, 5, 3, 3, 8]), "a set past the record's end"),
            (user(&[9, 5, u64::MAX, 3, 8]), "a count past any length"),
            (user(&[9, 2000, 0]), "more records than the file has bytes"),
            (good[..20].to_vec(), "short counters"),
        ] {
            let got = decode_user(&bad, 1000);
            assert!(matches!(got, Err(SwtError::Corrupt(_))), "{why}");
        }
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
        t.flush(&[]).unwrap();
        // A stored header claiming the most a u32 holds, laid down raw.
        let claim = |len: u32| [len.to_le_bytes().as_slice(), &99u64.to_le_bytes()].concat();
        let bad = RecordPtr(t.log.append(&claim(u32::MAX)).unwrap());
        let corrupt = |r: Result<()>| matches!(r, Err(SwtError::Corrupt(_)));
        assert!(corrupt(t.get(bad).map(drop)));
        assert!(corrupt(t.read(bad, &mut RecordBuf::default()).map(drop)));
        assert!(corrupt(t.scan().collect::<Result<Vec<_>>>().map(drop)));
        // A length that is merely a byte too long for the file is caught
        // by the same check.
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        t.append(&tuple(0)).unwrap();
        let last = RecordPtr(t.log.append(&claim(5)).unwrap());
        t.log.append(&[0u8; 4]).unwrap();
        assert!(corrupt(t.get(last).map(drop)));
        // Neighbours are untouched.
        assert_eq!(t.get(ptrs[0]).unwrap().tuple, tuple(0));
    }

    #[test]
    fn read_is_in_place_and_crosses_page_boundaries() {
        // 256-byte pages and ~45-byte records: some records sit inside a
        // page, some straddle two (header or payload), the last ones are
        // in the unflushed tail and one is tombstoned.
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..40 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.flush(&[]).unwrap();
        for i in 40..44 {
            ptrs.push(t.append(&tuple(i)).unwrap().1);
        }
        t.delete(3).unwrap();
        let straddles = |p: &&RecordPtr, bytes: u64| p.0 / 256 != (p.0 + bytes - 1) / 256;
        let split_header = ptrs
            .iter()
            .filter(|p| straddles(p, RECORD_HEADER as u64))
            .count();
        let split_record = ptrs.iter().filter(|p| straddles(p, 45)).count();
        assert!(split_header > 0 && split_record > split_header && split_record < 40);

        // One buffer across every read, in file order and back.
        let mut buf = RecordBuf::default();
        for (i, &p) in ptrs.iter().enumerate().chain(ptrs.iter().enumerate().rev()) {
            let rec = t.read(p, &mut buf).unwrap();
            assert_eq!((rec.tid, rec.deleted), (i as u64, i == 3));
            assert_eq!(rec.materialize().unwrap().tuple, tuple(i as u64));
        }
    }

    /// A pointer near `u64::MAX` used to overflow the bounds sum (a panic
    /// in debug builds).
    #[test]
    fn far_pointer_is_corrupt_for_get() {
        let mut t = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        t.append(&tuple(0)).unwrap();
        for far in [u64::MAX, u64::MAX - 1, u64::MAX - 11, u64::MAX - 12] {
            let ptr = RecordPtr(far);
            assert!(matches!(t.get(ptr), Err(SwtError::Corrupt(_))), "{far}");
        }
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
