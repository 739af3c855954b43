//! Append-only byte log over a paged file, with crash-consistent commits.
//!
//! The table file of the paper "adopts the row-wise storage structure" with
//! tuples located by a byte pointer (`ptr` in the tuple list) and new tuples
//! "appended to the end of the table file" (Sec. IV-B). A [`ByteLog`] is
//! exactly that: logical byte addresses over physically contiguous pages,
//! supporting fast sequential append/scan and random `read_at`.
//!
//! # Crash consistency
//!
//! The log's durable state lives in two files: the data file (page frames,
//! see [`BlockFile`](crate::BlockFile)) and a sidecar **commit record**
//! (`<path>.meta`, see [`commit`](crate::commit)) holding the committed
//! length, the owning layer's user bytes (any length: the table file keeps
//! its counters, its tombstone set and its catalog there) and a byte-exact
//! shadow of the committed tail page. No committed byte is ever written
//! again, so there is nothing to journal. [`ByteLog::flush`] is the
//! commit, in two steps:
//!
//! 1. write the tail page, fsync the data file — everything the new record
//!    will point at is durable *first*;
//! 2. atomically replace the commit record (write-new → fsync → rename) —
//!    **this rename is the commit point**.
//!
//! [`ByteLog::open`] replays that contract: it reads the committed record,
//! truncates the data file to the committed page count (dropping torn or
//! uncommitted appends) and restores the tail page from its shadow. A
//! crash before step 2 recovers the previous commit; after it, the new
//! one — never a mix, and every recovered page has a valid checksum.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::PageRef;
use crate::commit::{read_commit_record, write_commit_record};
use crate::error::{Result, StorageError};

use crate::page::PageId;
use crate::pager::{Pager, PagerOptions};
use crate::stats::IoStats;
use crate::vfs::{RealVfs, Vfs};

/// First bytes of a commit-record payload. Two earlier layouts are refused,
/// never guessed at: `IVBLOGv2` carried a redo journal of in-place page
/// rewrites after the tail image, and an untagged payload began with the
/// committed length and carried exactly 32 user bytes.
const PAYLOAD_TAG: [u8; 8] = *b"IVBLOGv3";

/// The tag of the journaled layout before [`PAYLOAD_TAG`].
const JOURNALED_TAG: [u8; 8] = *b"IVBLOGv2";

/// Fixed prefix of the commit-record payload: `tag (8) | len (8) |
/// user_len (4) | tail_len (4)`, followed by the user bytes and the tail
/// image.
const PAYLOAD_FIXED: usize = 8 + 8 + 4 + 4;

/// The sidecar commit-record path for a byte log at `path`.
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".meta");
    PathBuf::from(name)
}

/// Append-only byte log with random read access and atomic commits: one
/// commit record holds the data's committed state and the owner's user
/// bytes, so the two never disagree after a crash.
pub struct ByteLog {
    vfs: Arc<dyn Vfs>,
    meta_path: PathBuf,
    pager: Arc<Pager>,
    len: u64,
    /// Length as of the last successful [`ByteLog::flush`].
    committed_len: u64,
    tail_page: PageId,
    tail_buf: Vec<u8>,
    tail_dirty: bool,
    /// The owner's bytes, committed in the commit record.
    user: Vec<u8>,
    header_dirty: bool,
}

impl ByteLog {
    /// Create a new log backed by a fresh disk file.
    pub fn create(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::create_with_vfs(Arc::new(RealVfs), path, opts, stats)
    }

    /// Open an existing disk-backed log, running crash recovery.
    pub fn open(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), path, opts, stats)
    }

    /// Create a new log in memory. With `IVA_VFS=fault` the backing is a
    /// pass-through [`crate::FaultVfs`] (see [`crate::BlockFile::create_mem`]).
    pub fn create_mem(opts: &PagerOptions, stats: IoStats) -> Result<Self> {
        Self::create_with_vfs(
            crate::vfs::default_mem_vfs(),
            Path::new("mem.log"),
            opts,
            stats,
        )
    }

    /// Create a new log through an explicit [`Vfs`].
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        let pager = Pager::create_with_vfs(vfs.as_ref(), path, opts, stats)?;
        let tail_page = pager.allocate_page()?; // first data page
        debug_assert_eq!(tail_page, PageId(0));
        let tail_buf = vec![0u8; pager.page_size()];
        let mut log = Self {
            vfs,
            meta_path: sidecar_path(path),
            pager,
            len: 0,
            committed_len: 0,
            tail_page,
            tail_buf,
            tail_dirty: false,
            user: Vec::new(),
            header_dirty: true,
        };
        log.flush()?;
        Ok(log)
    }

    /// Open an existing log through an explicit [`Vfs`], running crash
    /// recovery: truncate uncommitted/torn appends and restore the tail
    /// page from its committed shadow.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Self> {
        let meta_path = sidecar_path(path);
        let payload = read_commit_record(vfs.as_ref(), &meta_path)?;
        let (len, user, tail_image) = parse_payload(&payload, opts.page_size)?;

        let (pager, _torn) = Pager::open_recovering(vfs.as_ref(), path, opts, stats)?;
        let page_size = pager.page_size() as u64;
        let tail_page = PageId(len / page_size);
        let needed = tail_page.0 + 1;
        if pager.num_pages() < needed {
            return Err(StorageError::Corrupt(format!(
                "byte log committed length {len} needs {needed} pages, data file has {}",
                pager.num_pages()
            )));
        }
        // Drop torn and uncommitted appended pages.
        pager.truncate_pages(needed)?;
        // Restore the committed tail page byte-for-byte from its shadow;
        // this also repairs a tail frame torn by a post-commit append.
        let mut tail_buf = vec![0u8; page_size as usize];
        tail_buf
            .get_mut(..tail_image.len())
            .ok_or_else(|| geometry("recovered tail image longer than a page"))?
            .copy_from_slice(&tail_image);
        pager.write_page(tail_page, tail_buf.clone())?;
        pager.sync()?;

        Ok(Self {
            vfs,
            meta_path,
            pager,
            len,
            committed_len: len,
            tail_page,
            tail_buf,
            tail_dirty: false,
            user,
            header_dirty: false,
        })
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Length as of the last successful flush — what a crash right now
    /// would recover to.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pager (for stats / size queries).
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Physical size in bytes (pages × page size).
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes()
    }

    /// The owning layer's user bytes, as last set or recovered.
    pub fn user(&self) -> &[u8] {
        &self.user
    }

    /// Replace the user bytes: committed with the next flush, in the same
    /// commit record as the data.
    pub fn set_user(&mut self, bytes: Vec<u8>) {
        self.user = bytes;
        self.header_dirty = true;
    }

    /// Append bytes, returning the logical start offset. The bytes are
    /// durable (and survive a crash) only once [`ByteLog::flush`] returns.
    /// On `Err` the log is as it was before the call: the same length and
    /// bytes, and the next append lands at the same offset.
    pub fn append(&mut self, data: &[u8]) -> Result<u64> {
        let start = self.len;
        let page_size = self.pager.page_size() as u64;
        // An append that fills the tail page writes it out and moves on,
        // and either step can fail part-way: keep what a rollback needs.
        // One that stays inside the tail page cannot fail after its copy,
        // so it keeps (and copies) nothing.
        let fills_tail = start % page_size + data.len() as u64 >= page_size;
        let saved = fills_tail.then(|| (self.tail_page, self.tail_buf.clone(), self.tail_dirty));
        match self.append_pages(data) {
            Ok(()) => {
                self.len = start + data.len() as u64;
                self.header_dirty = true;
                Ok(start)
            }
            Err(e) => {
                // Pages allocated before the failure stay in the file past
                // the log's end: the next append that fills the tail
                // reuses them, and recovery truncates them otherwise.
                if let Some((page, buf, dirty)) = saved {
                    self.tail_page = page;
                    self.tail_buf = buf;
                    self.tail_dirty = dirty;
                }
                Err(e)
            }
        }
    }

    /// The page work of [`ByteLog::append`]: copy `data` in at the log's
    /// end, writing out each tail page it fills. Leaves `len` to the
    /// caller.
    fn append_pages(&mut self, mut data: &[u8]) -> Result<()> {
        let page_size = self.pager.page_size();
        let mut len = self.len;
        while !data.is_empty() {
            let in_page = (len % page_size as u64) as usize;
            let n = data.len().min(page_size - in_page);
            let (chunk, rest) = data
                .split_at_checked(n)
                .ok_or_else(|| geometry("append chunk larger than remaining input"))?;
            self.tail_buf
                .get_mut(in_page..in_page + n)
                .ok_or_else(|| geometry("append range beyond the tail page"))?
                .copy_from_slice(chunk);
            self.tail_dirty = true;
            len += n as u64;
            data = rest;
            if len.is_multiple_of(page_size as u64) {
                // Page filled: write it out and move to the next page. If
                // this page holds committed bytes, a torn write here is
                // repaired at recovery from the commit record's tail
                // shadow.
                self.pager.write_page(
                    self.tail_page,
                    std::mem::replace(&mut self.tail_buf, vec![0u8; page_size]),
                )?;
                self.tail_dirty = false;
                // Page `i` holds bytes `i * page_size..`: the next page is
                // the tail's successor, already in the file if a failed
                // append allocated it.
                let next = PageId(self.tail_page.0 + 1);
                self.tail_page = if next.0 < self.pager.num_pages() {
                    next
                } else {
                    self.pager.allocate_page()?
                };
            }
        }
        Ok(())
    }

    /// Random read of `buf.len()` bytes at logical offset `pos`: the tail
    /// page from the in-memory tail buffer, anything else through the
    /// pager.
    pub fn read_at(&self, pos: u64, buf: &mut [u8]) -> Result<()> {
        // `pos` can come off disk (a record pointer): the sum must not wrap.
        if pos
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(StorageError::Corrupt(format!(
                "byte-log read [{pos}, +{}) beyond length {}",
                buf.len(),
                self.len
            )));
        }
        let page_size = self.pager.page_size() as u64;
        let mut filled = 0usize;
        let mut pos = pos;
        while filled < buf.len() {
            let page = PageId(pos / page_size);
            let in_page = (pos % page_size) as usize;
            let n = (buf.len() - filled).min(page_size as usize - in_page);
            let src_err = || geometry("read source range beyond its page");
            let dst = buf
                .get_mut(filled..filled + n)
                .ok_or_else(|| geometry("read destination range beyond the buffer"))?;
            if page == self.tail_page {
                dst.copy_from_slice(
                    self.tail_buf
                        .get(in_page..in_page + n)
                        .ok_or_else(src_err)?,
                );
            } else {
                let p = self.pager.read_page(page)?;
                dst.copy_from_slice(p.get(in_page..in_page + n).ok_or_else(src_err)?);
            }
            filled += n;
            pos += n as u64;
        }
        Ok(())
    }

    /// The bytes from logical offset `pos` to the end of its page, borrowed
    /// in place: from the tail buffer, or — for any other page — one cached
    /// pager read parked in `held` so the slice can outlive the call. The
    /// same source order as [`ByteLog::read_at`]. The slice may run past
    /// the log's length (a page is handed out whole); callers bound what
    /// they use.
    pub fn page_tail<'a>(&'a self, pos: u64, held: &'a mut Option<PageRef>) -> Result<&'a [u8]> {
        if pos >= self.len {
            return Err(StorageError::Corrupt(format!(
                "byte-log read at {pos} beyond length {}",
                self.len
            )));
        }
        let page_size = self.pager.page_size() as u64;
        let page = PageId(pos / page_size);
        let bytes: &[u8] = if page == self.tail_page {
            &self.tail_buf
        } else {
            held.insert(self.pager.read_page(page)?)
        };
        bytes
            .get((pos % page_size) as usize..)
            .ok_or_else(|| geometry("page shorter than the page size"))
    }

    /// Commit: make everything appended so far, and the user bytes,
    /// durable and recoverable. See the module docs for the two-step
    /// protocol. On `Ok`, the current state survives any crash; on `Err`,
    /// the previous commit does.
    pub fn flush(&mut self) -> Result<()> {
        if !self.tail_dirty && !self.header_dirty && self.len == self.committed_len {
            return Ok(());
        }
        // Step 1: data first. Appended full pages were written when they
        // filled; add the tail page and make it all durable.
        if self.tail_dirty {
            self.pager
                .write_page(self.tail_page, self.tail_buf.clone())?;
            self.tail_dirty = false;
        }
        self.pager.sync()?;

        // Step 2: the commit point — atomically replace the commit record.
        let tail_len = (self.len % self.pager.page_size() as u64) as usize;
        let mut payload = Vec::with_capacity(PAYLOAD_FIXED + self.user.len() + tail_len);
        payload.extend_from_slice(&PAYLOAD_TAG);
        payload.extend_from_slice(&self.len.to_le_bytes());
        payload.extend_from_slice(&(self.user.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(tail_len as u32).to_le_bytes());
        payload.extend_from_slice(&self.user);
        payload.extend_from_slice(
            self.tail_buf
                .get(..tail_len)
                .ok_or_else(|| geometry("tail length beyond the tail page"))?,
        );
        write_commit_record(self.vfs.as_ref(), &self.meta_path, &payload)?;
        self.committed_len = self.len;
        self.header_dirty = false;
        Ok(())
    }
}

/// Internal page-geometry invariant surfaced as an error instead of a
/// panic. The offset arithmetic in the read/write loops keeps every
/// range in bounds, so these paths are unreachable in practice — but
/// the byte log sits under `panic-reachability` scopes, so even the
/// "impossible" branches must stay total.
fn geometry(what: &str) -> StorageError {
    StorageError::Corrupt(format!("byte-log internal geometry error: {what}"))
}

/// Parse a commit-record payload into `(len, user, tail_image)`.
fn parse_payload(payload: &[u8], page_size: usize) -> Result<(u64, Vec<u8>, Vec<u8>)> {
    let corrupt = |msg: &str| StorageError::Corrupt(format!("byte-log commit record: {msg}"));
    let tag = payload.get(..PAYLOAD_TAG.len());
    if tag != Some(PAYLOAD_TAG.as_slice()) {
        let layout = match tag == Some(JOURNALED_TAG.as_slice()) {
            true => "tagged \"IVBLOGv2\": the earlier layout with a redo journal",
            false => "untagged: the earlier layout with a fixed 32-byte user header",
        };
        return Err(StorageError::Format {
            expected: "byte-log commit payload tagged \"IVBLOGv3\" (no journal)".into(),
            found: format!(
                "a {}-byte payload {layout}, which this build does not read",
                payload.len()
            ),
        });
    }
    // The payload comes straight off disk; every field read is total —
    // a record of any length yields `Corrupt`, never a panic.
    let short = || corrupt("shorter than fixed header");
    let len = payload
        .get(8..16)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(short)?;
    let le4 = |b: Option<&[u8]>| {
        b.and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(|b| u32::from_le_bytes(b) as usize)
    };
    let user_len = le4(payload.get(16..20)).ok_or_else(short)?;
    let tail_len = le4(payload.get(20..24)).ok_or_else(short)?;
    if tail_len >= page_size {
        return Err(corrupt("tail image longer than a page"));
    }
    if tail_len != (len % page_size as u64) as usize {
        return Err(corrupt(
            "tail image length inconsistent with committed length",
        ));
    }
    let (user, tail_image) = payload
        .get(PAYLOAD_FIXED..)
        .and_then(|rest| rest.split_at_checked(user_len))
        .ok_or_else(|| corrupt("truncated user bytes"))?;
    if tail_image.len() != tail_len {
        return Err(corrupt("tail image length disagrees with the record"));
    }
    Ok((len, user.to_vec(), tail_image.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use crate::vfs::{write_vec, RealVfs, Vfs};

    fn mem_log() -> ByteLog {
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 128 * 8,
        };
        ByteLog::create_mem(&opts, IoStats::new()).unwrap()
    }

    #[test]
    fn append_and_read_within_page() {
        let mut log = mem_log();
        let p1 = log.append(b"hello ").unwrap();
        let p2 = log.append(b"world").unwrap();
        assert_eq!(p1, 0);
        assert_eq!(p2, 6);
        let mut buf = vec![0u8; 11];
        log.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn append_spanning_pages() {
        let mut log = mem_log();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut offsets = Vec::new();
        for chunk in data.chunks(37) {
            offsets.push(log.append(chunk).unwrap());
        }
        assert_eq!(log.len(), 1000);
        // Whole-log read.
        let mut buf = vec![0u8; 1000];
        log.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Random chunk reads.
        for (i, chunk) in data.chunks(37).enumerate() {
            let mut b = vec![0u8; chunk.len()];
            log.read_at(offsets[i], &mut b).unwrap();
            assert_eq!(b, chunk);
        }
    }

    #[test]
    fn read_past_end_fails() {
        let mut log = mem_log();
        log.append(b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert!(log.read_at(0, &mut buf).is_err());
        assert!(log.read_at(3, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("iva-log-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("log.db");
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 1024,
        };
        let data: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        {
            let mut log = ByteLog::create(&path, &opts, IoStats::new()).unwrap();
            log.append(&data).unwrap();
            log.set_user(vec![7u8; 45]);
            log.flush().unwrap();
        }
        {
            let mut log = ByteLog::open(&path, &opts, IoStats::new()).unwrap();
            assert_eq!(log.len(), 500);
            assert_eq!(log.user(), &[7u8; 45]);
            let mut buf = vec![0u8; 500];
            log.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, data);
            // Appending after reopen lands after existing data.
            let off = log.append(b"tail").unwrap();
            assert_eq!(off, 500);
            log.flush().unwrap();
        }
        let log = ByteLog::open(&path, &opts, IoStats::new()).unwrap();
        assert_eq!(log.len(), 504);
        let mut buf = vec![0u8; 4];
        log.read_at(500, &mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_tail_is_readable() {
        let mut log = mem_log();
        log.append(b"not yet flushed").unwrap();
        let mut buf = vec![0u8; 15];
        log.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"not yet flushed");
    }

    #[test]
    fn exact_page_boundary_append() {
        let mut log = mem_log();
        // Exactly one page of data.
        log.append(&[9u8; 128]).unwrap();
        assert_eq!(log.len(), 128);
        log.append(b"x").unwrap();
        let mut b = [0u8; 1];
        log.read_at(128, &mut b).unwrap();
        assert_eq!(b[0], b'x');
        let mut b = [0u8; 1];
        log.read_at(127, &mut b).unwrap();
        assert_eq!(b[0], 9);
    }

    #[test]
    fn page_tail_follows_read_at_source_order() {
        let mut log = mem_log(); // page size 128
        let data: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8).collect();
        log.append(&data).unwrap(); // pages 0..2 full, tail = 3
        log.flush().unwrap();
        log.append(b"unflushed").unwrap();
        let mut held = None;
        for pos in [0u64, 100, 129, 255, 256, 390, 400, 408] {
            let tail = log.page_tail(pos, &mut held).unwrap();
            assert_eq!(tail.len(), 128 - (pos % 128) as usize, "pos {pos}");
            let n = tail.len().min((log.len() - pos) as usize);
            let mut plain = vec![0u8; n];
            log.read_at(pos, &mut plain).unwrap();
            assert_eq!(&tail[..n], &plain[..], "pos {pos}");
        }
        assert_eq!(log.page_tail(129, &mut held).unwrap()[0], 129);
        assert!(log.page_tail(log.len(), &mut held).is_err());
    }

    #[test]
    fn far_offsets_are_errors_not_overflows() {
        let mut log = mem_log();
        log.append(b"abc").unwrap();
        for pos in [u64::MAX, u64::MAX - 1, u64::MAX - 12] {
            assert!(log.read_at(pos, &mut [0u8; 13]).is_err());
        }
    }

    #[test]
    fn open_rejects_bad_magic() {
        let dir = std::env::temp_dir().join(format!("iva-log2-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("bad.db");
        write_vec(&RealVfs, &path, vec![0u8; 256]).unwrap();
        write_vec(&RealVfs, &sidecar_path(&path), vec![0u8; 64]).unwrap();
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 1024,
        };
        assert!(ByteLog::open(&path, &opts, IoStats::new()).is_err());
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_without_commit_record_is_format_error() {
        let dir = std::env::temp_dir().join(format!("iva-log4-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("orphan.db");
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 1024,
        };
        {
            ByteLog::create(&path, &opts, IoStats::new()).unwrap();
        }
        RealVfs.remove(&sidecar_path(&path)).unwrap();
        assert!(matches!(
            ByteLog::open(&path, &opts, IoStats::new()),
            Err(StorageError::Format { .. })
        ));
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_leaves_the_log_as_it_was() {
        use crate::fault::{FaultKind, FaultVfs, PlannedFault};
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 1024,
        };
        let path = Path::new("eio.log");
        let head: Vec<u8> = (0..100u8).collect();
        // Fills the rest of page 0 and all of page 1, ends inside page 2:
        // two page writes, each followed by an allocation.
        let body: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let setup = |vfs: &FaultVfs| {
            let mut log =
                ByteLog::create_with_vfs(Arc::new(vfs.clone()), path, &opts, IoStats::new())
                    .unwrap();
            log.append(&head).unwrap();
            log
        };

        let dry = FaultVfs::passthrough(1);
        let mut log = setup(&dry);
        let first = dry.op_count();
        log.append(&body).unwrap();
        let last = dry.op_count();
        assert!(last - first >= 4, "two page writes, two allocations");

        for at in first..last {
            let fault = PlannedFault {
                at,
                kind: FaultKind::Eio,
            };
            let vfs = FaultVfs::with_faults(1, vec![fault]);
            let mut log = setup(&vfs);
            assert!(log.append(&body).is_err(), "eio_at={at}: fault never fired");
            assert_eq!(log.len(), 100, "eio_at={at}: length moved");
            let mut buf = vec![0u8; 100];
            log.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, head, "eio_at={at}: bytes moved");

            assert_eq!(log.append(&body).unwrap(), 100, "eio_at={at}: next offset");
            log.flush().unwrap();
            drop(log);
            let log =
                ByteLog::open_with_vfs(Arc::new(vfs.clone()), path, &opts, IoStats::new()).unwrap();
            assert_eq!(log.len(), 400, "eio_at={at}: reopened length");
            let mut buf = vec![0u8; 400];
            log.read_at(0, &mut buf).unwrap();
            assert_eq!(buf[..100], head[..], "eio_at={at}: reopened head");
            assert_eq!(buf[100..], body[..], "eio_at={at}: reopened append");
        }
    }

    #[test]
    fn unflushed_appends_roll_back_on_reopen() {
        let vfs_shared: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let path = Path::new("roll.log");
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 1024,
        };
        {
            let mut log =
                ByteLog::create_with_vfs(Arc::clone(&vfs_shared), path, &opts, IoStats::new())
                    .unwrap();
            log.append(&[1u8; 200]).unwrap();
            log.flush().unwrap();
            log.append(&vec![2u8; 500]).unwrap(); // acked? no — never flushed
        }
        let log =
            ByteLog::open_with_vfs(Arc::clone(&vfs_shared), path, &opts, IoStats::new()).unwrap();
        assert_eq!(log.len(), 200, "unflushed appends must roll back");
        let mut buf = vec![0u8; 200];
        log.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
    }
}
