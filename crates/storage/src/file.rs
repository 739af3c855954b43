//! Counting block file: the lowest layer, superblock + checksummed frames.
//!
//! Every physical read is classified as *sequential* (the page directly
//! following the previously read page) or *random* (anything else, costing a
//! seek on spinning media). The classification feeds
//! [`IoStats`](crate::stats::IoStats) and ultimately the disk cost model.
//!
//! # On-disk layout
//!
//! All I/O goes through a [`Vfs`], and the format is self-validating:
//!
//! ```text
//! [ superblock: 64 bytes ][ frame 0 ][ frame 1 ] ...
//! superblock = magic "IVFB" | version | page_size | zeros | crc32c
//! frame      = page data (page_size bytes) | crc32c (4) | reserved (4)
//! ```
//!
//! Upper layers see only *logical* pages of `page_size` bytes — the frame
//! trailer and superblock are invisible to them, and I/O accounting stays
//! in logical page units so the disk cost model is unchanged. Every read
//! verifies the frame's CRC32C before a byte is interpreted; a mismatch is
//! [`StorageError::ChecksumMismatch`], never a wrong answer.
//!
//! # Reads are two steps
//!
//! A physical read is a positional read ([`BlockFile::read_frame`], which
//! needs `&mut self` for the stream classifier and so runs under whatever
//! lock guards the file) followed by verification ([`RawFrame::verify`],
//! which needs nothing but the bytes and so runs with no lock held). The
//! frame lands in the allocation that is handed out: it becomes its page
//! by truncating the trailer off. The bytes of a [`RawFrame`] are private,
//! so no page can reach a caller or the buffer pool before its frame
//! verified.

use std::path::Path;

use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::page::PageId;
use crate::stats::IoStats;
use crate::vfs::{read_full_at, write_full_at, RealVfs, Vfs, VfsFile};

/// Magic at byte 0 of every block file.
pub const SUPERBLOCK_MAGIC: [u8; 4] = *b"IVFB";
/// Current block-file format version.
pub const FORMAT_VERSION: u32 = 1;
/// Size of the superblock preceding the first page frame.
pub const SUPERBLOCK_LEN: u64 = 64;
/// Per-page frame trailer: 4 bytes CRC32C + 4 reserved.
pub const FRAME_TRAILER: usize = 8;

/// Number of concurrent sequential streams the read classifier tracks —
/// models OS readahead, which recognizes several interleaved sequential
/// scans (the iVA-file query plan scans the tuple list and a few vector
/// lists simultaneously; the paper notes "a small disk cache will avoid"
/// charging those as random accesses).
const READ_STREAMS: usize = 8;

/// A file of fixed-size pages with checksummed frames and I/O accounting.
pub struct BlockFile {
    file: Box<dyn VfsFile>,
    page_size: usize,
    num_pages: u64,
    /// Verify frame CRCs on read (on by default; the checksum-overhead
    /// bench toggles this to measure the cost).
    verify: bool,
    /// Last-read page per detected stream, for sequential classification.
    streams: [u64; READ_STREAMS],
    /// Round-robin replacement cursor for `streams`.
    stream_clock: usize,
    stats: IoStats,
    /// Reusable frame-sized scratch buffer for writes.
    scratch: Vec<u8>,
}

/// One frame exactly as the positional read returned it: **unverified**.
/// The bytes are reachable only through [`RawFrame::verify`].
pub(crate) struct RawFrame {
    id: u64,
    page_size: usize,
    verify: bool,
    bytes: Vec<u8>,
}

impl RawFrame {
    /// Check the frame (`data ‖ crc ‖ reserved`) against its trailer, in
    /// place, and hand out its page with no copy: the trailer is truncated
    /// off the allocation the read filled. Needs no access to the file, so
    /// callers drop the file lock first.
    pub(crate) fn verify(self) -> Result<Vec<u8>> {
        let mut page = self.bytes;
        if self.verify {
            let (data, trailer) = page
                .split_at_checked(self.page_size)
                .ok_or_else(short_frame)?;
            // The trailer read as one little-endian word: the CRC in the
            // low half, the reserved bytes — always written as zero — in
            // the high half, so a flip in either is caught by the one
            // comparison.
            let stored = <[u8; FRAME_TRAILER]>::try_from(trailer)
                .map(u64::from_le_bytes)
                .map_err(|_| short_frame())?;
            let computed = crc32c(data);
            if stored != u64::from(computed) {
                return Err(StorageError::ChecksumMismatch {
                    page: self.id,
                    expected: stored as u32,
                    found: computed,
                });
            }
        }
        page.truncate(self.page_size);
        Ok(page)
    }
}

impl BlockFile {
    fn frame_size(&self) -> usize {
        self.page_size + FRAME_TRAILER
    }

    fn frame_offset(&self, id: u64) -> u64 {
        SUPERBLOCK_LEN + id * self.frame_size() as u64
    }

    fn new(file: Box<dyn VfsFile>, page_size: usize, num_pages: u64, stats: IoStats) -> Self {
        Self {
            file,
            page_size,
            num_pages,
            verify: true,
            streams: [u64::MAX; READ_STREAMS],
            stream_clock: 0,
            stats,
            scratch: vec![0u8; page_size + FRAME_TRAILER],
        }
    }

    fn superblock(page_size: usize) -> [u8; SUPERBLOCK_LEN as usize] {
        let mut sb = [0u8; SUPERBLOCK_LEN as usize];
        let fields = SUPERBLOCK_MAGIC
            .into_iter()
            .chain(FORMAT_VERSION.to_le_bytes())
            .chain((page_size as u32).to_le_bytes());
        for (dst, src) in sb.iter_mut().zip(fields) {
            *dst = src;
        }
        if let Some((body, tail)) = sb.split_last_chunk_mut::<4>() {
            *tail = crc32c(body).to_le_bytes();
        }
        sb
    }

    /// Create (truncate) a file through `vfs`, writing the superblock.
    pub fn create_with(
        vfs: &dyn Vfs,
        path: &Path,
        page_size: usize,
        stats: IoStats,
    ) -> Result<Self> {
        check_page_size(page_size)?;
        let file = vfs.create(path)?;
        write_full_at(file.as_ref(), &Self::superblock(page_size), 0)?;
        Ok(Self::new(file, page_size, 0, stats))
    }

    /// Open an existing file through `vfs`, validating the superblock. The
    /// file body must be a whole number of frames.
    pub fn open_with(vfs: &dyn Vfs, path: &Path, page_size: usize, stats: IoStats) -> Result<Self> {
        let (file, torn) = Self::open_impl(vfs, path, page_size, stats)?;
        if torn {
            return Err(StorageError::Corrupt(
                "file body is not a whole number of page frames (torn tail)".into(),
            ));
        }
        Ok(file)
    }

    /// Crash-tolerant open: a trailing partial frame (a torn append) is
    /// *excluded* from the page count instead of rejected, and reported in
    /// the returned flag so the caller's recovery can truncate it away.
    pub fn open_recovering(
        vfs: &dyn Vfs,
        path: &Path,
        page_size: usize,
        stats: IoStats,
    ) -> Result<(Self, bool)> {
        Self::open_impl(vfs, path, page_size, stats)
    }

    fn open_impl(
        vfs: &dyn Vfs,
        path: &Path,
        page_size: usize,
        stats: IoStats,
    ) -> Result<(Self, bool)> {
        check_page_size(page_size)?;
        let file = vfs.open(path)?;
        let len = file.len()?;
        let expected =
            format!("iVA block file (magic \"IVFB\" v{FORMAT_VERSION}, page size {page_size})");
        if len < SUPERBLOCK_LEN {
            return Err(StorageError::Format {
                expected,
                found: format!("{len}-byte file, too short for a superblock"),
            });
        }
        let mut sb = [0u8; SUPERBLOCK_LEN as usize];
        read_full_at(file.as_ref(), &mut sb, 0)?;
        // Total little-endian word reads: `zip` stops at whichever side is
        // shorter, so an out-of-range field index yields zeros, never a
        // panic (the superblock is a fixed 64-byte array, so in practice
        // every field is in range).
        let sb_field = |at: usize| -> [u8; 4] {
            let mut w = [0u8; 4];
            for (dst, src) in w.iter_mut().zip(sb.iter().skip(at)) {
                *dst = *src;
            }
            w
        };
        if sb_field(0) != SUPERBLOCK_MAGIC {
            return Err(StorageError::Format {
                expected,
                found: format!("magic {:02x?}", sb_field(0)),
            });
        }
        let version = u32::from_le_bytes(sb_field(4));
        if version != FORMAT_VERSION {
            return Err(StorageError::Format {
                expected,
                found: format!("format version {version}"),
            });
        }
        let file_ps = u32::from_le_bytes(sb_field(8));
        if file_ps as usize != page_size {
            return Err(StorageError::Format {
                expected,
                found: format!("page size {file_ps}"),
            });
        }
        let crc = u32::from_le_bytes(sb_field(60));
        let computed = sb
            .split_last_chunk::<4>()
            .map(|(body, _)| crc32c(body))
            .unwrap_or(!crc);
        if crc != computed {
            return Err(StorageError::Corrupt(format!(
                "superblock checksum mismatch: stored {crc:#010x}, computed {computed:#010x}"
            )));
        }
        let body = len - SUPERBLOCK_LEN;
        let frame = (page_size + FRAME_TRAILER) as u64;
        let torn = !body.is_multiple_of(frame);
        let num_pages = body / frame;
        Ok((Self::new(file, page_size, num_pages, stats), torn))
    }

    /// Create (truncate) a disk-backed file.
    pub fn create(path: &Path, page_size: usize, stats: IoStats) -> Result<Self> {
        Self::create_with(&RealVfs, path, page_size, stats)
    }

    /// Open an existing disk-backed file.
    pub fn open(path: &Path, page_size: usize, stats: IoStats) -> Result<Self> {
        Self::open_with(&RealVfs, path, page_size, stats)
    }

    /// Create a memory-backed file (used in tests and property checks;
    /// accounting behaves identically to the disk backing). With
    /// `IVA_VFS=fault` in the environment the backing is a pass-through
    /// [`FaultVfs`](crate::FaultVfs) instead, proving the fault-injection
    /// seam is functionally free.
    pub fn create_mem(page_size: usize, stats: IoStats) -> Self {
        let path = Path::new("mem.blk");
        let f = crate::vfs::default_mem_vfs()
            .create(path)
            // lint:allow(panic-reachability, "MemVfs::create is infallible; FaultVfs passthrough injects no faults at create")
            .expect("in-memory vfs create cannot fail");
        write_full_at(f.as_ref(), &Self::superblock(page_size), 0)
            // lint:allow(panic-reachability, "in-memory write with no fault plan cannot fail")
            .expect("in-memory superblock write cannot fail");
        Self::new(f, page_size, 0, stats)
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages currently in the file.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Enable or disable CRC verification on reads (writes always stamp
    /// checksums). Used by the checksum-overhead bench.
    pub fn set_verify(&mut self, verify: bool) {
        self.verify = verify;
    }

    /// Drop pages `n..` from the file (crash recovery truncating torn or
    /// uncommitted appends). `n` past the current end is a no-op.
    pub fn truncate_pages(&mut self, n: u64) -> Result<()> {
        if n >= self.num_pages {
            return Ok(());
        }
        self.file.set_len(self.frame_offset(n))?;
        self.num_pages = n;
        Ok(())
    }

    /// Append a zeroed page, returning its id.
    pub fn grow(&mut self) -> Result<PageId> {
        let id = self.num_pages;
        self.scratch
            .get_mut(..self.page_size)
            .ok_or_else(scratch_short)?
            .fill(0);
        self.seal_scratch()?;
        write_full_at(self.file.as_ref(), &self.scratch, self.frame_offset(id))?;
        self.stats.record_disk_write(self.page_size as u64);
        self.num_pages += 1;
        Ok(PageId(id))
    }

    /// Stamp the CRC trailer over the page data currently in `scratch`.
    fn seal_scratch(&mut self) -> Result<()> {
        let (data, trailer) = self
            .scratch
            .split_at_mut_checked(self.page_size)
            .ok_or_else(scratch_short)?;
        let (crc_bytes, reserved) = trailer.split_at_mut_checked(4).ok_or_else(scratch_short)?;
        crc_bytes.copy_from_slice(&crc32c(data).to_le_bytes());
        reserved.fill(0);
        Ok(())
    }

    /// Stream-aware classification: the read extends a tracked stream
    /// (same page or the next one) => sequential; otherwise it costs a
    /// seek and starts/steals a stream slot.
    fn classify(&mut self, id: u64) -> bool {
        let hit = self
            .streams
            .iter()
            .position(|&s| s != u64::MAX && (s == id || s + 1 == id));
        match hit {
            Some(slot) => {
                if let Some(s) = self.streams.get_mut(slot) {
                    *s = id;
                }
                true
            }
            None => {
                if let Some(s) = self.streams.get_mut(self.stream_clock) {
                    *s = id;
                }
                self.stream_clock = (self.stream_clock + 1) % READ_STREAMS;
                false
            }
        }
    }

    /// The positional read every physical read goes through: the frame of
    /// page `id`, fetched with one read of the backing file into a fresh
    /// buffer, classified and accounted — and nothing else. The frame
    /// comes back unverified: [`RawFrame::verify`] is the only way to its
    /// bytes.
    pub(crate) fn read_frame(&mut self, id: PageId) -> Result<RawFrame> {
        if id.0 >= self.num_pages {
            return Err(StorageError::PageOutOfBounds {
                page: id.0,
                pages: self.num_pages,
            });
        }
        let mut bytes = vec![0u8; self.frame_size()];
        let sequential = self.classify(id.0);
        read_full_at(self.file.as_ref(), &mut bytes, self.frame_offset(id.0)).map_err(truncated)?;
        self.stats
            .record_disk_read(self.page_size as u64, sequential);
        Ok(RawFrame {
            id: id.0,
            page_size: self.page_size,
            verify: self.verify,
            bytes,
        })
    }

    /// Physically read a page into `buf` (which must be exactly one page),
    /// verifying its checksum before any of it is copied out.
    pub fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let page = self.read_frame(id)?.verify()?;
        buf.copy_from_slice(&page);
        Ok(())
    }

    /// Physically write a full page, stamping its checksum.
    pub fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        if id.0 >= self.num_pages {
            return Err(StorageError::PageOutOfBounds {
                page: id.0,
                pages: self.num_pages,
            });
        }
        self.scratch
            .get_mut(..self.page_size)
            .ok_or_else(scratch_short)?
            .copy_from_slice(buf);
        self.seal_scratch()?;
        write_full_at(self.file.as_ref(), &self.scratch, self.frame_offset(id.0))?;
        self.stats.record_disk_write(self.page_size as u64);
        Ok(())
    }

    /// Flush buffered writes to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }
}

/// Internal invariant surfaced as an error instead of a panic: the
/// scratch buffer is kept at exactly one frame between calls, so these
/// paths are unreachable in practice — but the block file serves
/// `panic-reachability` scopes and must stay total.
fn scratch_short() -> StorageError {
    StorageError::Corrupt("block-file scratch buffer smaller than a frame".into())
}

/// Same shape for the read side: a frame is read whole, so it always
/// splits into page data and a trailer.
fn short_frame() -> StorageError {
    StorageError::Corrupt("page frame shorter than its checksum trailer".into())
}

/// Page sizes below this are rejected: the list-page header, record
/// headers and the commit record's tail image all assume a minimally
/// useful page.
pub const MIN_PAGE_SIZE: usize = 64;

fn check_page_size(page_size: usize) -> Result<()> {
    if page_size < MIN_PAGE_SIZE || page_size > u32::MAX as usize {
        return Err(StorageError::InvalidArgument(format!(
            "page size {page_size} outside supported range [{MIN_PAGE_SIZE}, 2^32)"
        )));
    }
    Ok(())
}

/// Map an `UnexpectedEof` from a positioned read (the file ends inside a
/// frame that the page count says exists) to a corruption error.
fn truncated(e: std::io::Error) -> StorageError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StorageError::Corrupt("file truncated inside a page frame".into())
    } else {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use crate::vfs::{read_to_vec, write_vec, RealVfs, Vfs};

    fn roundtrip(mut f: BlockFile) {
        let p0 = f.grow().unwrap();
        let p1 = f.grow().unwrap();
        assert_eq!(p0, PageId(0));
        assert_eq!(p1, PageId(1));

        let mut a = vec![0u8; f.page_size()];
        a[0] = 0xAB;
        a[4095] = 0xCD;
        f.write_page(p0, &a).unwrap();

        let mut out = vec![0u8; f.page_size()];
        f.read_page(p0, &mut out).unwrap();
        assert_eq!(out, a);

        f.read_page(p1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_roundtrip() {
        roundtrip(BlockFile::create_mem(4096, IoStats::new()));
    }

    #[test]
    fn disk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("iva-bf-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("t.blk");
        let stats = IoStats::new();
        roundtrip(BlockFile::create(&path, 4096, stats.clone()).unwrap());

        let f = BlockFile::open(&path, 4096, stats).unwrap();
        assert_eq!(f.num_pages(), 2);
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_vs_random_classification() {
        let stats = IoStats::new();
        let mut f = BlockFile::create_mem(4096, stats.clone());
        for _ in 0..4 {
            f.grow().unwrap();
        }
        let mut buf = vec![0u8; 4096];
        // First-ever read: random (position unknown).
        f.read_page(PageId(0), &mut buf).unwrap();
        // Next page: sequential.
        f.read_page(PageId(1), &mut buf).unwrap();
        // Re-read same page: treated as sequential (no seek).
        f.read_page(PageId(1), &mut buf).unwrap();
        // Jump backwards: random.
        f.read_page(PageId(0), &mut buf).unwrap();
        // Jump forward by 3: random.
        f.read_page(PageId(3), &mut buf).unwrap();

        let s = stats.snapshot();
        assert_eq!(s.disk_page_reads, 5);
        assert_eq!(s.random_seeks, 3);
        assert_eq!(s.seq_bytes_read, 2 * 4096);
        assert_eq!(s.random_bytes_read, 3 * 4096);
    }

    #[test]
    fn interleaved_streams_classified_sequential() {
        // Two interleaved sequential scans (a tuple list + a vector list,
        // as in the iVA query plan) must not be charged seeks after their
        // first pages.
        let stats = IoStats::new();
        let mut f = BlockFile::create_mem(4096, stats.clone());
        for _ in 0..20 {
            f.grow().unwrap();
        }
        let mut buf = vec![0u8; 4096];
        for i in 0..8u64 {
            f.read_page(PageId(i), &mut buf).unwrap(); // stream A: 0..8
            f.read_page(PageId(10 + i), &mut buf).unwrap(); // stream B: 10..18
        }
        let s = stats.snapshot();
        assert_eq!(s.disk_page_reads, 16);
        assert_eq!(s.random_seeks, 2, "only the two stream starts seek: {s:?}");
    }

    #[test]
    fn out_of_bounds_read_is_error() {
        let mut f = BlockFile::create_mem(4096, IoStats::new());
        let mut buf = vec![0u8; 4096];
        assert!(matches!(
            f.read_page(PageId(0), &mut buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn open_rejects_garbage_files() {
        let dir = std::env::temp_dir().join(format!("iva-bf2-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();

        // Zero-length file: no superblock at all.
        let empty = dir.join("empty.blk");
        write_vec(&RealVfs, &empty, b"").unwrap();
        assert!(matches!(
            BlockFile::open(&empty, 4096, IoStats::new()),
            Err(StorageError::Format { .. })
        ));

        // Truncated superblock.
        let trunc = dir.join("trunc.blk");
        write_vec(&RealVfs, &trunc, vec![0u8; 40]).unwrap();
        assert!(matches!(
            BlockFile::open(&trunc, 4096, IoStats::new()),
            Err(StorageError::Format { .. })
        ));

        // Full-length garbage: wrong magic.
        let garbage = dir.join("garbage.blk");
        write_vec(&RealVfs, &garbage, vec![0x5Au8; 4096]).unwrap();
        let err = match BlockFile::open(&garbage, 4096, IoStats::new()) {
            Err(e) => e,
            Ok(_) => panic!("garbage file must not open"),
        };
        match err {
            StorageError::Format { expected, found } => {
                assert!(expected.contains("IVFB"), "{expected}");
                assert!(found.contains("magic"), "{found}");
            }
            other => panic!("expected Format error, got {other}"),
        }
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_wrong_version_and_page_size() {
        let dir = std::env::temp_dir().join(format!("iva-bf3-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("v.blk");
        {
            BlockFile::create(&path, 256, IoStats::new()).unwrap();
        }
        // Mismatched page size at open.
        assert!(matches!(
            BlockFile::open(&path, 512, IoStats::new()),
            Err(StorageError::Format { .. })
        ));
        // Bump the version field (and recompute the superblock CRC so only
        // the version is wrong).
        let mut bytes = read_to_vec(&RealVfs, &path).unwrap();
        bytes[4] = 99;
        let crc = crate::crc::crc32c(&bytes[0..60]);
        bytes[60..64].copy_from_slice(&crc.to_le_bytes());
        write_vec(&RealVfs, &path, &bytes).unwrap();
        assert!(matches!(
            BlockFile::open(&path, 256, IoStats::new()),
            Err(StorageError::Format { .. })
        ));
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_detected_at_read_time() {
        // One flipped bit anywhere in a frame — page data, the stored CRC,
        // or the reserved trailer bytes — must surface as a checksum
        // mismatch naming the page, and never as data.
        let dir = std::env::temp_dir().join(format!("iva-bf4-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("flip.blk");
        {
            let mut f = BlockFile::create(&path, 256, IoStats::new()).unwrap();
            for i in 0..3u8 {
                f.grow().unwrap();
                f.write_page(PageId(u64::from(i)), &[0xA5 ^ i; 256])
                    .unwrap();
            }
            f.sync().unwrap();
        }
        let clean = read_to_vec(&RealVfs, &path).unwrap();
        let frame1 = SUPERBLOCK_LEN as usize + 256 + FRAME_TRAILER;
        for (what, at) in [
            ("data", frame1 + 100),
            ("crc", frame1 + 256 + 2),
            ("reserved", frame1 + 256 + 5),
        ] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x08;
            write_vec(&RealVfs, &path, &bytes).unwrap();

            let mut f = BlockFile::open(&path, 256, IoStats::new()).unwrap();
            let mut one = vec![0u8; 256];
            assert!(
                matches!(
                    f.read_page(PageId(1), &mut one),
                    Err(StorageError::ChecksumMismatch { page: 1, .. })
                ),
                "{what} flip not caught by read_page"
            );
            assert!(
                one.iter().all(|&b| b == 0),
                "{what} flip: a bad frame handed out bytes"
            );
            // Its neighbours are intact and still read.
            f.read_page(PageId(0), &mut one).unwrap();
            f.read_page(PageId(2), &mut one).unwrap();
            // With verification off the flip goes unnoticed (bench mode only).
            f.set_verify(false);
            f.read_page(PageId(1), &mut one).unwrap();
        }
        RealVfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_final_frame_is_a_truncation_error() {
        // The page count says the frame exists but the file ends inside it
        // (truncated behind an open handle): a corruption error.
        let vfs = MemVfs::new();
        let path = Path::new("short.blk");
        let mut f = BlockFile::create_with(&vfs, path, 256, IoStats::new()).unwrap();
        for _ in 0..3 {
            f.grow().unwrap();
        }
        let whole = SUPERBLOCK_LEN + 3 * (256 + FRAME_TRAILER as u64);
        vfs.open(path).unwrap().set_len(whole - 5).unwrap();
        let truncation =
            |e: StorageError| matches!(&e, StorageError::Corrupt(m) if m.contains("truncated"));
        let mut one = vec![0u8; 256];
        assert!(truncation(f.read_page(PageId(2), &mut one).unwrap_err()));
        f.read_page(PageId(1), &mut one).unwrap();
        // Reopened, the same file has a torn tail and is rejected whole.
        assert!(matches!(
            BlockFile::open_with(&vfs, path, 256, IoStats::new()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncate_pages_drops_tail() {
        let mut f = BlockFile::create_mem(256, IoStats::new());
        for i in 0..5u8 {
            f.grow().unwrap();
            f.write_page(PageId(u64::from(i)), &[i; 256]).unwrap();
        }
        f.truncate_pages(2).unwrap();
        assert_eq!(f.num_pages(), 2);
        let mut buf = vec![0u8; 256];
        f.read_page(PageId(1), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        assert!(f.read_page(PageId(2), &mut buf).is_err());
        // Growing again reuses the dropped range cleanly.
        let id = f.grow().unwrap();
        assert_eq!(id, PageId(2));
        f.read_page(PageId(2), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn tiny_page_size_rejected() {
        assert!(matches!(
            BlockFile::create_with(&MemVfs::new(), Path::new("t"), 16, IoStats::new()),
            Err(StorageError::InvalidArgument(_))
        ));
    }
}
