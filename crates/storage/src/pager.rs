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
//! proceed fully in parallel, which is what the serving layer needs: a
//! query runs on one thread, but the `Server`'s workers each run one at
//! once against the same pager, and page ids map round-robin onto shards,
//! so concurrent queries reading different pages rarely share a lock.
//!
//! **Reads hold no pool lock across I/O.** [`Pager::read_page`]'s miss
//! protocol:
//!
//! 1. *look up* under the shard lock; on a miss note the shard's write
//!    generation and release the lock (a hit is this one acquisition);
//! 2. *read* the frame under the file lock — the positional read and the
//!    stream classifier, nothing else;
//! 3. *verify* the frame's checksum with no lock held;
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

use crate::cache::{LruCache, PageRef};
use crate::error::Result;
use crate::file::BlockFile;
use crate::page::{PageId, DEFAULT_PAGE_SIZE};
use crate::stats::IoStats;
use crate::vfs::Vfs;

/// Upper bound on buffer-pool shards: enough that the serving layer's
/// workers, each reading the same pager for its own query, seldom meet on
/// one shard lock; more shards than cached pages would leave some shards
/// permanently empty.
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

    /// Miss protocol steps 2 and 3: the positional read of the page's frame
    /// under the file lock, then — the lock released — its verification.
    fn read_verified(&self, id: PageId) -> Result<Vec<u8>> {
        let raw = self.file.lock().read_frame(id)?;
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
                let page = Arc::new(self.read_verified(id)?);
                Ok(self.publish(id, page, gen))
            }
        }
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
            self.read_verified(id)?
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
        // pool much smaller than the file. The counters are pinned: a
        // change to the miss path must not move a single one of them, nor
        // the LRU state they depend on.
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
        let read = |ids: &[u64]| {
            for &i in ids {
                assert_eq!(p.read_page(PageId(i)).unwrap().len(), 256);
            }
        };
        let before = stats.snapshot();
        for i in 0..10 {
            assert_eq!(p.read_page(PageId(i)).unwrap()[0], i as u8);
        }
        read(&[3, 5, 9, 30, 31, 40, 60, 12, 7, 31]);
        p.write_page(PageId(5), vec![0xF5; 256]).unwrap();
        p.update_page(PageId(20), |b| b[1] = 0xEE).unwrap();
        p.update_page(PageId(5), |b| b[2] = 0xDD).unwrap();
        read(&[4, 6, 21, 50]);
        let five = p.read_page(PageId(5)).unwrap();
        assert_eq!((five[0], five[2]), (0xF5, 0xDD));
        assert_eq!(p.read_page(PageId(20)).unwrap()[..2], [20, 0xEE]);
        read(&[50, 51, 52, 20]);
        read(&(0..64).step_by(3).collect::<Vec<_>>());
        read(&(0..64).rev().step_by(5).collect::<Vec<_>>());
        read(&[1, 2, 40, 41, 63, 1, 2, 40, 41, 63, 0]);
        assert_eq!(
            stats.snapshot().since(&before),
            IoSnapshot {
                disk_page_reads: 62,
                disk_page_writes: 3,
                cache_hits: 16,
                cache_misses: 62,
                random_seeks: 41,
                seq_bytes_read: 5_376,
                random_bytes_read: 10_496,
                bytes_written: 768,
                ..IoSnapshot::default()
            }
        );
    }

    #[test]
    fn read_overtaken_by_a_write_is_not_published() {
        // The miss protocol's steps driven by hand, with a write and the
        // eviction of its fresh entry slotted between the read and the
        // publish — the schedule `loom_pager` case 4 explores. The
        // one-page pool makes "the slot is empty" true again at publish.
        let p = mem_pager(256);
        let a = p.append_page(vec![1; 256]).unwrap();
        let b = p.append_page(vec![2; 256]).unwrap();
        p.clear_cache();
        let Lookup::Miss(gen) = p.lookup(a) else {
            panic!("cold page resident");
        };
        let stale: PageRef = Arc::new(p.read_verified(a).unwrap());
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
                    // Up and back down: the pool holds a third of the
                    // pages, so the second sweep misses again.
                    for i in (0..PAGES).chain((0..PAGES).rev()) {
                        let page = p.read_page(PageId(i)).unwrap();
                        assert!(page.iter().all(|&b| b == i as u8), "thread {t} page {i}");
                    }
                });
            }
        });
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.cache_hits + d.cache_misses, 2 * THREADS as u64 * PAGES);
        assert!(d.disk_page_reads >= PAGES, "{d:?}");
        assert_eq!(d.disk_page_reads, d.cache_misses, "{d:?}");
    }

    #[test]
    fn page_ref_outlives_cache_clear() {
        // What a caller holding a page across later reads relies on: the
        // `PageRef` keeps its bytes whatever the pool does afterwards.
        let p = mem_pager(4 * 256);
        for i in 0..16u8 {
            p.append_page(vec![i; 256]).unwrap();
        }
        p.clear_cache();
        let held: Vec<PageRef> = (0..16).map(|i| p.read_page(PageId(i)).unwrap()).collect();
        p.clear_cache();
        p.write_page(PageId(3), vec![0xFF; 256]).unwrap();
        for (i, page) in held.iter().enumerate() {
            assert!(page.iter().all(|&b| b == i as u8), "page {i}");
        }
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
