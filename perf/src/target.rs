//! What the harness needs from an engine beyond the serving traits, so
//! that one workload driver runs `IvaDb` and `LsmDb` alike. Public API
//! only: nothing here reaches past what `iva_file` exports.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_core::{segment_file_candidates, IvaConfig, Result};
use iva_file::serve::Writer;
use iva_file::{EngineWriter, IvaDb, IvaDbOptions, LsmDb, LsmOptions, SearchOutcome};
use iva_storage::{sidecar_path, IoStats, PagerOptions, Vfs};
use iva_swt::{AttrType, SwtTable, Tid, Tuple};
use iva_workload::Dataset;

/// Page size of every file the benchmark creates.
const PAGE_SIZE: usize = 4096;
/// A pool larger than any file here: the fully resident regime.
const RESIDENT_CACHE: usize = 64 << 20;
/// The paper's cache regime: 10 MB of cache against a 355.7 MB table
/// file, so ~2.8 % of a file is resident and the rest is misses.
const PAPER_CACHE_FRACTION: f64 = 10.0 / 355.7;
/// Floor of a paper-regime pool, so tiny files still get a few pages.
const MIN_CACHE: usize = 16 * PAGE_SIZE;
/// Paper-regime pool of every LSM tier file. Segments are reopened on
/// each seal and merge with the store's one `PagerOptions`, so the pool
/// cannot follow each file's size; this is 2.8 % of the ~9 MB table
/// file the 20,000-tuple dataset makes.
const PAPER_LSM_CACHE: usize = 256 << 10;
/// Sealed-segment count that triggers a full merge.
const COMPACT_FANOUT: usize = 4;

/// How a workload wants its engine built.
#[derive(Debug, Clone, Copy)]
pub struct LoadPlan {
    /// Packed v4 lists + packed directory, or the raw layout.
    pub compress_lists: bool,
    /// Hot-tier budget in bytes (0 = off).
    pub hot_tier_bytes: usize,
    /// Pager pools larger than the files, or the paper's 2.8 %.
    pub resident: bool,
    /// Dataset rows to load, from row 0.
    pub rows: usize,
    /// Memtable seal threshold (LSM only).
    pub memtable_limit: u64,
}

impl LoadPlan {
    fn config(&self) -> IvaConfig {
        IvaConfig {
            compress_lists: self.compress_lists,
            hot_tier_bytes: self.hot_tier_bytes,
            search_threads: 1,
            ..IvaConfig::default()
        }
    }
}

fn paper_cache(file_bytes: u64) -> usize {
    ((file_bytes as f64 * PAPER_CACHE_FRACTION) as usize).max(MIN_CACHE)
}

/// Name of dataset attribute `i` in the catalog.
fn attr_name(i: usize) -> String {
    format!("attr_{i}")
}

/// One table + index pair of an engine, with its I/O counters.
pub struct Tier<'a> {
    /// The tier's table file.
    pub table: &'a SwtTable,
    /// Whether the tier's files are on storage (the memtable's are not:
    /// its counters record page copies in RAM).
    pub durable: bool,
    /// Table-file counters (a shared handle: still readable after the
    /// engine drops the tier).
    pub table_io: IoStats,
    /// Index-file counters.
    pub index_io: IoStats,
}

/// An engine the benchmark can drive.
pub trait Target: EngineWriter<Id = Tid, Outcome = SearchOutcome> + Sized + 'static {
    /// Build the engine under `dir` on `vfs`, holding the first
    /// `plan.rows` dataset rows, tuple ids `0..rows` in row order.
    fn bench_load(
        vfs: Arc<dyn Vfs>,
        plan: &LoadPlan,
        dir: &Path,
        dataset: &Dataset,
    ) -> Result<Self>;
    /// Update = delete + insert under a fresh tid.
    fn bench_update(&mut self, tid: Tid, tuple: &Tuple) -> Result<Tid>;
    /// One round of background maintenance; whether any ran.
    fn bench_maintain(writer: &mut Writer<Self>) -> Result<bool>;
    /// Every tier, oldest first.
    fn bench_tiers(&self) -> Vec<Tier<'_>>;
    /// Store-level counters outside any tier: maintenance staging and
    /// manifest commits.
    fn bench_store_io(&self) -> Vec<IoStats>;
    /// Every file the store may hold under `dir` right now.
    fn bench_files(&self, dir: &Path) -> Vec<PathBuf>;
    /// Sealed segments (0 for the monolith).
    fn bench_segments(&self) -> usize;
    /// Records in the mutable tier, tombstones included (0 for the
    /// monolith).
    fn bench_memtable_records(&self) -> u64;
}

impl Target for IvaDb {
    /// Table file first, then one bulk index build over it (the open
    /// path rebuilds a missing iVA-file from the table): contiguous
    /// lists in the encoding the plan asks for.
    fn bench_load(
        vfs: Arc<dyn Vfs>,
        plan: &LoadPlan,
        dir: &Path,
        dataset: &Dataset,
    ) -> Result<Self> {
        let pager = PagerOptions {
            page_size: PAGE_SIZE,
            cache_bytes: RESIDENT_CACHE,
        };
        {
            let mut table = SwtTable::create_with_vfs(
                Arc::clone(&vfs),
                &dir.join("data"),
                &pager,
                IoStats::new(),
            )?;
            for (i, ty) in dataset.attr_types.iter().enumerate() {
                match ty {
                    AttrType::Text => table.define_text(&attr_name(i))?,
                    AttrType::Numeric => table.define_numeric(&attr_name(i))?,
                };
            }
            for tuple in dataset.tuples.iter().take(plan.rows) {
                table.insert(tuple)?;
            }
            table.flush()?;
        }
        let db = IvaDb::open_with_vfs(
            vfs,
            dir,
            IvaDbOptions {
                pager,
                config: plan.config(),
                ..IvaDbOptions::default()
            },
        )?;
        if !plan.resident {
            let table = db.table().file();
            table.resize_cache(paper_cache(table.size_bytes()));
            db.index()
                .resize_cache(paper_cache(db.index().size_bytes()));
        }
        Ok(db)
    }
    fn bench_update(&mut self, tid: Tid, tuple: &Tuple) -> Result<Tid> {
        self.update(tid, tuple)
    }
    fn bench_maintain(_writer: &mut Writer<Self>) -> Result<bool> {
        Ok(false)
    }
    fn bench_tiers(&self) -> Vec<Tier<'_>> {
        vec![Tier {
            table: self.table(),
            durable: true,
            table_io: self.table_io().clone(),
            index_io: self.index_io().clone(),
        }]
    }
    fn bench_store_io(&self) -> Vec<IoStats> {
        Vec::new()
    }
    fn bench_files(&self, dir: &Path) -> Vec<PathBuf> {
        let tbl = dir.join("data.tbl");
        vec![
            sidecar_path(&tbl),
            tbl,
            dir.join("data.meta"),
            dir.join("index.iva"),
        ]
    }
    fn bench_segments(&self) -> usize {
        0
    }
    fn bench_memtable_records(&self) -> u64 {
        0
    }
}

impl Target for LsmDb {
    /// Every row goes through the write path (`insert` then `maintain`),
    /// so the store starts with sealed, already-merged segments.
    fn bench_load(
        vfs: Arc<dyn Vfs>,
        plan: &LoadPlan,
        dir: &Path,
        dataset: &Dataset,
    ) -> Result<Self> {
        let mut db = LsmDb::create_with_vfs(
            vfs,
            dir,
            LsmOptions {
                pager: PagerOptions {
                    page_size: PAGE_SIZE,
                    cache_bytes: if plan.resident {
                        RESIDENT_CACHE
                    } else {
                        PAPER_LSM_CACHE
                    },
                },
                config: plan.config(),
                memtable_limit: plan.memtable_limit,
                compact_fanout: COMPACT_FANOUT,
                ..LsmOptions::default()
            },
        )?;
        for (i, ty) in dataset.attr_types.iter().enumerate() {
            match ty {
                AttrType::Text => db.define_text(&attr_name(i))?,
                AttrType::Numeric => db.define_numeric(&attr_name(i))?,
            };
        }
        for tuple in dataset.tuples.iter().take(plan.rows) {
            db.insert(tuple)?;
            db.maintain()?;
        }
        Ok(db)
    }
    fn bench_update(&mut self, tid: Tid, tuple: &Tuple) -> Result<Tid> {
        self.update(tid, tuple)
    }
    fn bench_maintain(writer: &mut Writer<Self>) -> Result<bool> {
        writer.maintain()
    }
    fn bench_tiers(&self) -> Vec<Tier<'_>> {
        let mut tiers: Vec<Tier<'_>> = self
            .segments()
            .iter()
            .map(|s| Tier {
                table: s.table(),
                durable: true,
                table_io: s.table_io().clone(),
                index_io: s.index_io().clone(),
            })
            .collect();
        let mem = self.memtable();
        tiers.push(Tier {
            table: mem.table(),
            durable: false,
            table_io: mem.table().file().io_stats().clone(),
            index_io: mem.index().io_stats().clone(),
        });
        tiers
    }
    fn bench_store_io(&self) -> Vec<IoStats> {
        vec![self.maintenance_io().clone(), self.manifest_io().clone()]
    }
    fn bench_files(&self, dir: &Path) -> Vec<PathBuf> {
        let mut files = vec![dir.join("manifest.ivls")];
        for seg in self.segments() {
            files.extend(segment_file_candidates(dir, seg.id()));
        }
        files
    }
    fn bench_segments(&self) -> usize {
        self.segments().len()
    }
    fn bench_memtable_records(&self) -> u64 {
        self.memtable().total_records()
    }
}
