//! The pager: cached page-granular access to one file.
//!
//! All higher layers (table file, iVA-file lists, inverted lists) go through
//! a [`Pager`]. Reads are served from the shared LRU buffer pool when
//! possible; writes are write-through (the cache is updated and the page is
//! immediately written to the backing file), which keeps crash behaviour
//! trivial for this reproduction.
//!
//! # Concurrency
//!
//! The buffer pool is split into shards, each behind its own mutex, with the
//! backing file behind a separate mutex. Cache hits on different shards
//! proceed fully in parallel, which is what the intra-query parallel filter
//! scan needs: worker threads streaming disjoint segments of the same lists
//! touch different pages, and page ids map round-robin onto shards.
//!
//! **Reads hold no pool lock across I/O.** [`Pager::read_page`] and
//! [`Pager::read_batch`] share one miss protocol:
//!
//! 1. *look up* under the shard lock; on a miss note the shard's write
//!    generation and release the lock (a hit is this one acquisition);
//! 2. *read* the frames under the file lock — the positional read and the
//!    stream classifier, nothing else;
//! 3. *verify* the frames' checksums with no lock held;
//! 4. *publish* under the shard lock: adopt a copy that appeared meanwhile,
//!    otherwise install ours — but only if the shard's write generation is
//!    still the one noted in step 1.
//!
//! Two threads missing the same page may both read it; whoever publishes
//! second adopts the first copy. The generation check is what keeps step 4
//! from installing a stale image: a write that lands between steps 2 and 4
//! leaves a fresher entry in the pool, but a small pool can evict that entry
//! again before the reader re-locks, and "the slot is empty" then says
//! nothing. Every write bumps its shard's generation under the shard lock,
//! after the file write, so a reader whose generation still matches read the
//! file no earlier than the last write to that shard finished. A reader that
//! loses the check keeps its private copy unpublished — still a correct pin
//! for a read that began before the write.
//!
//! **Writes** ([`Pager::write_page`], [`Pager::update_page`]) hold the shard
//! lock across the file write, which orders writers of one page identically
//! in the file and in the pool; lock order is shard → file.
//! [`Pager::append_page`] takes them sequentially (file released before the
//! shard is locked), never nested in the other direction.

use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::batch::PinnedPages;
use crate::cache::{LruCache, PageRef};
use crate::error::Result;
use crate::file::{BlockFile, Frames};
use crate::page::{PageId, DEFAULT_PAGE_SIZE};
use crate::stats::IoStats;
use crate::vfs::Vfs;

/// Upper bound on buffer-pool shards. Eight matches the widest intra-query
/// fan-out the engine defaults to; more shards than cached pages would leave
/// some shards permanently empty.
const MAX_CACHE_SHARDS: usize = 8;

/// Configuration for opening or creating a paged file.
#[derive(Debug, Clone)]
pub struct PagerOptions {
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer-pool capacity in *bytes* (converted to pages internally). The
    /// paper's default experimental setting is 10 MB shared across files.
    pub cache_bytes: usize,
}

impl Default for PagerOptions {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_PAGE_SIZE,
            cache_bytes: 10 * 1024 * 1024,
        }
    }
}

impl PagerOptions {
    /// Cache capacity expressed in pages.
    pub fn cache_pages(&self) -> usize {
        self.cache_bytes / self.page_size
    }
}

/// One buffer-pool shard: its pages and its write generation, both behind
/// the shard mutex.
struct Shard {
    pool: LruCache,
    /// Bumped by every write to a page of this shard (see the module doc's
    /// miss protocol); only ever compared for equality.
    write_gen: u64,
}

/// The sharded buffer pool. Swapped wholesale on [`Pager::resize_cache`],
/// hence the outer `RwLock` (readers only pin the current shard vector; the
/// per-shard mutex is what serializes cache state).
struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedCache {
    /// A pool of `total_pages` whose shards all start at write generation
    /// `first_gen`.
    fn new(total_pages: usize, first_gen: u64) -> Self {
        // Never more shards than pages, so small caches keep their full
        // capacity in one shard instead of rounding every shard down to zero.
        let n = total_pages.clamp(1, MAX_CACHE_SHARDS);
        let shards = (0..n)
            .map(|i| {
                let cap = total_pages / n + usize::from(i < total_pages % n);
                Mutex::new(Shard {
                    pool: LruCache::new(cap),
                    write_gen: first_gen,
                })
            })
            .collect();
        Self { shards }
    }

    fn shard(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[(id.0 % self.shards.len() as u64) as usize]
    }
}

/// What the pool said about a page: the resident copy, or on a miss the
/// shard's write generation to publish against.
enum Lookup {
    Hit(PageRef),
    Miss(u64),
}

/// Cached page-granular file. Cheap to share via [`Arc`]; all methods take
/// `&self` and are safe to call from multiple threads.
pub struct Pager {
    file: Mutex<BlockFile>,
    cache: RwLock<ShardedCache>,
    page_size: usize,
    stats: IoStats,
}

impl Pager {
    /// Create (truncate) a disk-backed paged file.
    pub fn create(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Arc<Self>> {
        let file = BlockFile::create(path, opts.page_size, stats.clone())?;
        Ok(Self::from_file(file, opts, stats))
    }

    /// Open an existing disk-backed paged file.
    pub fn open(path: &Path, opts: &PagerOptions, stats: IoStats) -> Result<Arc<Self>> {
        let file = BlockFile::open(path, opts.page_size, stats.clone())?;
        Ok(Self::from_file(file, opts, stats))
    }

    /// Create (truncate) a paged file through an explicit [`Vfs`].
    pub fn create_with_vfs(
        vfs: &dyn Vfs,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Arc<Self>> {
        let file = BlockFile::create_with(vfs, path, opts.page_size, stats.clone())?;
        Ok(Self::from_file(file, opts, stats))
    }

    /// Open an existing paged file through an explicit [`Vfs`].
    pub fn open_with_vfs(
        vfs: &dyn Vfs,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<Arc<Self>> {
        let file = BlockFile::open_with(vfs, path, opts.page_size, stats.clone())?;
        Ok(Self::from_file(file, opts, stats))
    }

    /// Crash-tolerant open: a torn trailing frame is excluded from the
    /// page count (and flagged) instead of rejected, so a recovery path
    /// can truncate it away. See [`BlockFile::open_recovering`].
    pub fn open_recovering(
        vfs: &dyn Vfs,
        path: &Path,
        opts: &PagerOptions,
        stats: IoStats,
    ) -> Result<(Arc<Self>, bool)> {
        let (file, torn) = BlockFile::open_recovering(vfs, path, opts.page_size, stats.clone())?;
        Ok((Self::from_file(file, opts, stats), torn))
    }

    /// Create a memory-backed paged file (tests, property checks).
    pub fn create_mem(opts: &PagerOptions, stats: IoStats) -> Arc<Self> {
        let file = BlockFile::create_mem(opts.page_size, stats.clone());
        Self::from_file(file, opts, stats)
    }

    fn from_file(file: BlockFile, opts: &PagerOptions, stats: IoStats) -> Arc<Self> {
        Arc::new(Self {
            page_size: opts.page_size,
            file: Mutex::new(file),
            cache: RwLock::new(ShardedCache::new(opts.cache_pages(), 0)),
            stats,
        })
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Largest hole (in pages) a batch read transfers *through* rather
    /// than seeks over: under the 2009 disk model a page transfers in
    /// ~0.05 ms while a seek costs ~8 ms, so reading up to 16 unrequested
    /// pages (≤ 0.8 ms) to stay in one sequential run is a large win, and
    /// the hole pages double as readahead for later batches.
    pub const RUN_GAP: u64 = 16;

    /// Cap on one spanning batch read, bounding the scratch buffer
    /// (1 MiB at 4 KiB pages).
    pub const MAX_RUN_PAGES: u64 = 256;

    /// Number of pages in the file.
    pub fn num_pages(&self) -> u64 {
        self.file.lock().num_pages()
    }

    /// Total file size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages() * self.page_size as u64
    }

    /// The I/O counters this pager reports into.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Append a zeroed page and return its id.
    pub fn allocate_page(&self) -> Result<PageId> {
        self.file.lock().grow()
    }

    /// Miss protocol step 1, accounted as a cache hit or miss.
    fn lookup(&self, id: PageId) -> Lookup {
        let cache = self.cache.read();
        let mut shard = cache.shard(id).lock();
        match shard.pool.get(id) {
            Some(page) => {
                self.stats.record_cache_hit();
                Lookup::Hit(page)
            }
            None => {
                self.stats.record_cache_miss();
                Lookup::Miss(shard.write_gen)
            }
        }
    }

    /// The write generation of the shard `id` maps to, for a page about to
    /// be read without having been looked up (a batch run's hole pages).
    fn write_gen(&self, id: PageId) -> u64 {
        self.cache.read().shard(id).lock().write_gen
    }

    /// Miss protocol steps 2 and 3: one positional read of `pages` frames
    /// under the file lock, then — the lock released — their verification.
    fn read_verified(&self, start: PageId, pages: usize) -> Result<Frames> {
        let raw = self.file.lock().read_frames(start, pages)?;
        raw.verify()
    }

    /// Miss protocol step 4: hand back the pool's copy if one appeared since
    /// the lookup, otherwise ours — installed only if no write touched the
    /// shard since `gen` was noted.
    fn publish(&self, id: PageId, page: PageRef, gen: u64) -> PageRef {
        let cache = self.cache.read();
        let mut shard = cache.shard(id).lock();
        if let Some(resident) = shard.pool.get(id) {
            return resident;
        }
        if shard.write_gen == gen {
            shard.pool.put(id, Arc::clone(&page));
        }
        page
    }

    /// Read a page through the cache.
    pub fn read_page(&self, id: PageId) -> Result<PageRef> {
        match self.lookup(id) {
            Lookup::Hit(page) => Ok(page),
            Lookup::Miss(gen) => {
                let page = Arc::new(self.read_verified(id, 1)?.into_page());
                Ok(self.publish(id, page, gen))
            }
        }
    }

    /// Read a set of pages as one coalesced batch, returning them pinned.
    ///
    /// The ids are sorted and deduplicated; pages already resident in the
    /// buffer pool are pinned as cache hits; the misses are merged into
    /// runs, each fetched with one positional read and costing at most one
    /// random seek (the rest of the run is accounted sequential — see
    /// [`BlockFile::read_run`]). Like an elevator I/O scheduler, a run
    /// reads *through* holes of up to [`Self::RUN_GAP`] pages between
    /// requested ids: transferring a few extra sequential pages is an
    /// order of magnitude cheaper than seeking over them, and the hole
    /// pages are published to the buffer pool as readahead. Each run is
    /// verified inside its read buffer and its pages are copied out of it
    /// once (a one-page run keeps the buffer as the page). Fetched pages
    /// are published to the cache, but the returned [`PinnedPages`] keeps
    /// the *requested* pages alive regardless of later evictions.
    pub fn read_batch(&self, ids: &[PageId]) -> Result<PinnedPages> {
        let mut sorted: Vec<PageId> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        // Step 1 for every requested page: serve what the pool holds.
        let mut pinned: Vec<(PageId, PageRef)> = Vec::with_capacity(sorted.len());
        let mut missing: Vec<(PageId, u64)> = Vec::new();
        for &id in &sorted {
            match self.lookup(id) {
                Lookup::Hit(page) => pinned.push((id, page)),
                Lookup::Miss(gen) => missing.push((id, gen)),
            }
        }

        // Steps 2 and 3 per run: nearby misses coalesced into one spanning
        // read (through holes of up to RUN_GAP pages). Requested pages will
        // be pinned; hole pages are readahead, published to the pool only.
        let mut fetched: Vec<(PageId, PageRef, u64)> = Vec::with_capacity(missing.len());
        let mut readahead: Vec<(PageId, PageRef, u64)> = Vec::new();
        let mut i = 0;
        while let Some(&(run_start, run_gen)) = missing.get(i) {
            let first = run_start.0;
            let mut last = first;
            let mut j = i + 1;
            // A hole was never looked up, so its shard's generation is
            // noted as the run grows over it — still before the read.
            let mut hole_gens: Vec<u64> = Vec::new();
            while let Some(&(next, _)) = missing.get(j) {
                if next.0 - last > Self::RUN_GAP + 1 || next.0 - first >= Self::MAX_RUN_PAGES {
                    break;
                }
                hole_gens.extend((last + 1..next.0).map(|id| self.write_gen(PageId(id))));
                last = next.0;
                j += 1;
            }
            let frames = self.read_verified(run_start, (last - first + 1) as usize)?;
            if last == first {
                fetched.push((run_start, Arc::new(frames.into_page()), run_gen));
            } else {
                let mut holes = hole_gens.into_iter();
                for (id, bytes) in (first..).map(PageId).zip(frames.pages()) {
                    let page: PageRef = Arc::new(bytes.to_vec());
                    match missing.get(i) {
                        Some(&(want, gen)) if want == id => {
                            fetched.push((id, page, gen));
                            i += 1;
                        }
                        _ => readahead.extend(holes.next().map(|gen| (id, page, gen))),
                    }
                }
            }
            i = j;
        }

        // Step 4, requested pages first so readahead cannot push them out
        // of a small pool before they were ever resident.
        pinned.extend(
            fetched
                .into_iter()
                .map(|(id, page, gen)| (id, self.publish(id, page, gen))),
        );
        for (id, page, gen) in readahead {
            self.publish(id, page, gen);
        }

        pinned.sort_unstable_by_key(|&(id, _)| id);
        Ok(PinnedPages::from_sorted(pinned))
    }

    /// Warm the buffer pool with a coalesced batch read of `ids`, without
    /// keeping pins. Returns the number of distinct pages touched. Note a
    /// pool smaller than the batch cannot retain every page — callers that
    /// must see all pages should hold the [`Pager::read_batch`] pins
    /// instead.
    pub fn prefetch(&self, ids: &[PageId]) -> Result<usize> {
        Ok(self.read_batch(ids)?.len())
    }

    /// Overwrite a whole page (write-through).
    pub fn write_page(&self, id: PageId, data: Vec<u8>) -> Result<()> {
        debug_assert_eq!(data.len(), self.page_size);
        let cache = self.cache.read();
        let mut shard = cache.shard(id).lock();
        self.file.lock().write_page(id, &data)?;
        shard.pool.put(id, Arc::new(data));
        shard.write_gen += 1;
        Ok(())
    }

    /// Read-modify-write a page in place.
    pub fn update_page(&self, id: PageId, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let cache = self.cache.read();
        let mut shard = cache.shard(id).lock();
        let mut buf = if let Some(p) = shard.pool.get(id) {
            self.stats.record_cache_hit();
            p.as_ref().clone()
        } else {
            self.stats.record_cache_miss();
            self.read_verified(id, 1)?.into_page()
        };
        // lint:allow(panic-reachability, "dynamic edge: callers pass in-crate header/flag editors over a full page buffer; not driven by on-disk data")
        f(&mut buf);
        self.file.lock().write_page(id, &buf)?;
        shard.pool.put(id, Arc::new(buf));
        shard.write_gen += 1;
        Ok(())
    }

    /// Allocate a page and write its initial contents in one step.
    pub fn append_page(&self, data: Vec<u8>) -> Result<PageId> {
        debug_assert_eq!(data.len(), self.page_size);
        // Grow and write under the file lock alone, then publish to the
        // cache. A reader racing between the two steps misses and re-reads
        // the freshly written page — same bytes, no lock-order inversion.
        let id = {
            let mut file = self.file.lock();
            let id = file.grow()?;
            file.write_page(id, &data)?;
            id
        };
        let cache = self.cache.read();
        let mut shard = cache.shard(id).lock();
        shard.pool.put(id, Arc::new(data));
        shard.write_gen += 1;
        Ok(id)
    }

    /// Drop all cached pages (used by experiments to cold-start a run).
    pub fn clear_cache(&self) {
        let cache = self.cache.read();
        for shard in &cache.shards {
            shard.lock().pool.clear();
        }
    }

    /// Replace the buffer pool with one of a new capacity (dropping the
    /// current contents). Experiments use this to keep the cache-to-data
    /// ratio constant across dataset scales, as the paper's fixed 10 MB
    /// cache is ~3 % of its 355.7 MB table file.
    pub fn resize_cache(&self, cache_bytes: usize) {
        let pages = cache_bytes / self.page_size;
        let mut cache = self.cache.write();
        // Start past every generation the old pool handed out, so a read
        // that began against the old pool can never publish into this one.
        let next_gen = cache
            .shards
            .iter()
            .map(|s| s.lock().write_gen)
            .max()
            .map_or(0, |g| g + 1);
        *cache = ShardedCache::new(pages, next_gen);
    }

    /// Drop pages `n..` from the file (crash recovery truncating torn or
    /// uncommitted appends), discarding the whole buffer pool so no stale
    /// copy of a dropped page survives.
    pub fn truncate_pages(&self, n: u64) -> Result<()> {
        let cache = self.cache.read();
        let mut file = self.file.lock();
        file.truncate_pages(n)?;
        for shard in &cache.shards {
            let mut shard = shard.lock();
            shard.pool.clear();
            shard.write_gen += 1;
        }
        Ok(())
    }

    /// Enable or disable CRC verification on physical reads (writes always
    /// stamp checksums). On by default; the checksum-overhead bench
    /// toggles this to measure the cost.
    pub fn set_verify_checksums(&self, verify: bool) {
        self.file.lock().set_verify(verify);
    }

    /// Flush the backing file.
    pub fn sync(&self) -> Result<()> {
        self.file.lock().sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoSnapshot;
    use crate::vfs::{RealVfs, Vfs};

    fn mem_pager(cache_bytes: usize) -> Arc<Pager> {
        let opts = PagerOptions {
            page_size: 256,
            cache_bytes,
        };
        Pager::create_mem(&opts, IoStats::new())
    }

    #[test]
    fn write_then_read_hits_cache() {
        let p = mem_pager(1024);
        let id = p.allocate_page().unwrap();
        let mut data = vec![0u8; 256];
        data[10] = 42;
        p.write_page(id, data).unwrap();
        let before = p.stats().snapshot();
        let page = p.read_page(id).unwrap();
        assert_eq!(page[10], 42);
        let after = p.stats().snapshot();
        assert_eq!(after.since(&before).cache_hits, 1);
        assert_eq!(after.since(&before).disk_page_reads, 0);
    }

    #[test]
    fn cold_read_goes_to_disk() {
        let p = mem_pager(1024);
        let id = p.allocate_page().unwrap();
        p.clear_cache();
        let before = p.stats().snapshot();
        p.read_page(id).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.disk_page_reads, 1);
    }

    #[test]
    fn update_page_modifies_persistently() {
        let p = mem_pager(0); // no cache: forces disk on every access
        let id = p.allocate_page().unwrap();
        p.update_page(id, |b| b[0] = 7).unwrap();
        p.update_page(id, |b| b[1] = b[0] + 1).unwrap();
        let page = p.read_page(id).unwrap();
        assert_eq!((page[0], page[1]), (7, 8));
    }

    #[test]
    fn append_page_roundtrip() {
        let p = mem_pager(1024);
        let mut data = vec![0u8; 256];
        data[0] = 0xEE;
        let id = p.append_page(data).unwrap();
        assert_eq!(p.read_page(id).unwrap()[0], 0xEE);
        assert_eq!(p.num_pages(), 1);
        assert_eq!(p.size_bytes(), 256);
    }

    #[test]
    fn tiny_cache_keeps_full_capacity_in_one_shard() {
        // 2 pages of capacity must not round down to zero across shards.
        let p = mem_pager(512);
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        p.clear_cache();
        p.read_page(a).unwrap();
        p.read_page(b).unwrap();
        let before = p.stats().snapshot();
        p.read_page(a).unwrap();
        p.read_page(b).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.cache_hits, 2, "both pages should be resident: {d:?}");
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let p = mem_pager(16 * 1024);
        let mut ids = Vec::new();
        for i in 0..64u8 {
            let mut data = vec![0u8; 256];
            data[0] = i;
            data[255] = i;
            ids.push(p.append_page(data).unwrap());
        }
        p.clear_cache();
        std::thread::scope(|s| {
            for t in 0..8 {
                let (p, ids) = (&p, &ids);
                s.spawn(move || {
                    // Each thread walks the pages from a different offset so
                    // hits and misses interleave across shards.
                    for k in 0..256 {
                        let i = (t * 8 + k) % ids.len();
                        let page = p.read_page(ids[i]).unwrap();
                        assert_eq!(page[0], i as u8);
                        assert_eq!(page[255], i as u8);
                    }
                });
            }
        });
        let s = p.stats().snapshot();
        assert_eq!(s.cache_hits + s.cache_misses, 8 * 256);
    }

    #[test]
    fn serial_sequence_io_counters_are_pinned() {
        // A fixed serial mix of every read and write entry point over a
        // pool much smaller than the file. The expected counters were
        // produced by the implementation that verified under the shard and
        // file locks: moving the read out of the locks must not change a
        // single one of them, nor the LRU state they depend on.
        let stats = IoStats::new();
        let p = Pager::create_mem(
            &PagerOptions {
                page_size: 256,
                cache_bytes: 12 * 256,
            },
            stats.clone(),
        );
        for i in 0..64u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        p.clear_cache();
        let ids = |v: &[u64]| v.iter().copied().map(PageId).collect::<Vec<_>>();
        let before = stats.snapshot();
        for i in 0..10 {
            assert_eq!(p.read_page(PageId(i)).unwrap()[0], i as u8);
        }
        let pins = p.read_batch(&ids(&[3, 5, 9, 30, 31, 40, 60, 12])).unwrap();
        assert_eq!(pins.len(), 8);
        p.read_page(PageId(7)).unwrap();
        p.read_page(PageId(31)).unwrap();
        p.write_page(PageId(5), vec![0xF5; 256]).unwrap();
        p.update_page(PageId(20), |b| b[1] = 0xEE).unwrap();
        p.update_page(PageId(5), |b| b[2] = 0xDD).unwrap();
        let pins = p.read_batch(&ids(&[4, 5, 6, 20, 21, 50])).unwrap();
        let five = pins.get(PageId(5)).unwrap();
        assert_eq!((five[0], five[2]), (0xF5, 0xDD));
        assert_eq!(pins.get(PageId(20)).unwrap()[..2], [20, 0xEE]);
        for i in [50, 51, 52, 20] {
            p.read_page(PageId(i)).unwrap();
        }
        let stride: Vec<PageId> = (0..64).step_by(3).map(PageId).collect();
        assert_eq!(p.read_batch(&stride).unwrap().len(), stride.len());
        for i in (0..64).rev().step_by(5) {
            p.read_page(PageId(i)).unwrap();
        }
        assert_eq!(p.prefetch(&ids(&[1, 2, 40, 41, 63])).unwrap(), 5);
        for i in [1, 2, 40, 41, 63, 0] {
            p.read_page(PageId(i)).unwrap();
        }
        assert_eq!(
            stats.snapshot().since(&before),
            IoSnapshot {
                disk_page_reads: 131,
                disk_page_writes: 3,
                cache_hits: 16,
                cache_misses: 62,
                random_seeks: 24,
                seq_bytes_read: 27_392,
                random_bytes_read: 6_144,
                bytes_written: 768,
                ..IoSnapshot::default()
            }
        );
    }

    #[test]
    fn read_overtaken_by_a_write_is_not_published() {
        // The miss protocol's steps driven by hand, with a write and the
        // eviction of its fresh entry slotted between the read and the
        // publish — the schedule `loom_prefetch` case 4 explores. The
        // one-page pool makes "the slot is empty" true again at publish.
        let p = mem_pager(256);
        let a = p.append_page(vec![1; 256]).unwrap();
        let b = p.append_page(vec![2; 256]).unwrap();
        p.clear_cache();
        let Lookup::Miss(gen) = p.lookup(a) else {
            panic!("cold page resident");
        };
        let stale: PageRef = Arc::new(p.read_verified(a, 1).unwrap().into_page());
        p.write_page(a, vec![9; 256]).unwrap();
        p.read_page(b).unwrap(); // evicts the written entry
        let pin = p.publish(a, stale, gen);
        // The reader began before the write: its private copy is a
        // correct pin, but the pool must not serve it to anyone else.
        assert_eq!(pin[0], 1);
        assert_eq!(p.read_page(a).unwrap()[0], 9);
    }

    #[test]
    fn threads_missing_the_same_cold_pages_agree() {
        // All eight threads start on the same cold pages at the same
        // moment, so several miss each page at once: each may read it (the
        // protocol allows the double read), every one must see the right
        // bytes, and every request is accounted exactly once.
        const THREADS: usize = 8;
        const PAGES: u64 = 48;
        let p = mem_pager(16 * 256);
        for i in 0..PAGES {
            p.append_page(vec![i as u8; 256]).unwrap();
        }
        p.clear_cache();
        let before = p.stats().snapshot();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (p, start) = (&p, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PAGES {
                        let page = p.read_page(PageId(i)).unwrap();
                        assert!(page.iter().all(|&b| b == i as u8), "thread {t} page {i}");
                    }
                    let all: Vec<PageId> = (0..PAGES).map(PageId).collect();
                    let pins = p.read_batch(&all).unwrap();
                    for (id, page) in pins.iter() {
                        assert!(page.iter().all(|&b| b == id.0 as u8), "thread {t} pin {id}");
                    }
                });
            }
        });
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.cache_hits + d.cache_misses, 2 * THREADS as u64 * PAGES);
        assert!(d.disk_page_reads >= PAGES, "{d:?}");
        assert!(d.disk_page_reads >= d.cache_misses, "{d:?}");
    }

    #[test]
    fn read_batch_dedups_and_coalesces_runs() {
        let p = mem_pager(128 * 256);
        for i in 0..64u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        p.clear_cache();
        let before = p.stats().snapshot();
        // Unsorted, with duplicates: {7, 5, 6} ∪ {11, 12} ∪ {20}, whose
        // holes are all within RUN_GAP, plus a distant {60}.
        let ids = [
            PageId(7),
            PageId(20),
            PageId(5),
            PageId(12),
            PageId(6),
            PageId(5),
            PageId(11),
            PageId(60),
        ];
        let pins = p.read_batch(&ids).unwrap();
        assert_eq!(pins.len(), 7);
        for (id, page) in pins.iter() {
            assert_eq!(page[0], id.0 as u8, "wrong contents for {id}");
        }
        let d = p.stats().snapshot().since(&before);
        // One spanning run [5..=20] (16 pages, holes read through) plus
        // the isolated [60]: the far page must NOT be merged.
        assert_eq!(d.disk_page_reads, 17, "expected one spanning run + one");
        assert_eq!(d.cache_misses, 7, "only requested pages count as misses");
        // Two seeks at most (a run start can also continue an existing
        // stream, hence ≤).
        assert!(d.random_seeks <= 2, "runs not coalesced: {d:?}");
        assert_eq!(d.seq_bytes_read + d.random_bytes_read, 17 * 256);
    }

    #[test]
    fn read_batch_holes_become_readahead_hits() {
        let p = mem_pager(128 * 256);
        for i in 0..32u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        p.clear_cache();
        // The run [5..=9] spans the unrequested holes 6..=8.
        p.read_batch(&[PageId(5), PageId(9)]).unwrap();
        let before = p.stats().snapshot();
        let page = p.read_page(PageId(7)).unwrap();
        assert_eq!(page[0], 7);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.cache_hits, 1, "hole page should be readahead: {d:?}");
        assert_eq!(d.disk_page_reads, 0);
    }

    #[test]
    fn read_batch_serves_resident_pages_from_cache() {
        let p = mem_pager(64 * 256);
        for i in 0..8u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        // All pages still resident from the appends: zero disk reads.
        let before = p.stats().snapshot();
        let pins = p.read_batch(&[PageId(1), PageId(3)]).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(pins.len(), 2);
        assert_eq!(d.disk_page_reads, 0);
        assert_eq!(d.cache_hits, 2);
    }

    #[test]
    fn pins_survive_cache_clear() {
        let p = mem_pager(4 * 256);
        for i in 0..16u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        p.clear_cache();
        let pins = p
            .read_batch(&(0..16).map(PageId).collect::<Vec<_>>())
            .unwrap();
        p.clear_cache();
        for i in 0..16u64 {
            assert_eq!(pins.get(PageId(i)).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let p = mem_pager(1024);
        let before = p.stats().snapshot();
        let pins = p.read_batch(&[]).unwrap();
        assert!(pins.is_empty());
        assert_eq!(p.stats().snapshot(), before);
    }

    #[test]
    fn prefetch_warms_cache() {
        let p = mem_pager(64 * 256);
        for i in 0..8u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        p.clear_cache();
        assert_eq!(p.prefetch(&[PageId(2), PageId(3), PageId(4)]).unwrap(), 3);
        let before = p.stats().snapshot();
        p.read_page(PageId(3)).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.disk_page_reads, 0);
    }

    #[test]
    fn disk_pager_reopen() {
        let dir = std::env::temp_dir().join(format!("iva-pg-{}", std::process::id()));
        RealVfs.create_dir_all(&dir).unwrap();
        let path = dir.join("p.db");
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 2048,
        };
        {
            let p = Pager::create(&path, &opts, IoStats::new()).unwrap();
            let id = p.allocate_page().unwrap();
            let mut d = vec![0u8; 512];
            d[511] = 9;
            p.write_page(id, d).unwrap();
            p.sync().unwrap();
        }
        let p = Pager::open(&path, &opts, IoStats::new()).unwrap();
        assert_eq!(p.num_pages(), 1);
        assert_eq!(p.read_page(PageId(0)).unwrap()[511], 9);
        RealVfs.remove_dir_all(&dir).unwrap();
    }
}
