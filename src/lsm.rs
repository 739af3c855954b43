//! `LsmDb`: the segmented (LSM-style) write path — an in-memory mutable
//! tier (the memtable) in front of immutable sealed [`Segment`]s, merged
//! by a background compactor, all tracked by an atomically-committed
//! manifest.
//!
//! ## Tiers
//!
//! Every tier is an [`IndexedTable`] — the monolithic engine's table +
//! iVA-file pair and its one Sec. IV-B protocol. Inserts land in the
//! memtable: a pair created in memory at the store's tid watermark,
//! quantising exactly like the monolithic engine (the numeric codec
//! domains are pinned store-wide, see [`DomainPin`]). Sealing stages its
//! live records as an on-disk segment with its own files and
//! [`IoStats`]; compaction stages several segments' live records as one.
//! Deletes tombstone in whichever tier holds the record, in place.
//!
//! ## Commit protocol
//!
//! A seal is a merge whose one source is the memtable, so both are one
//! [`MaintenancePlan`] run in two phases:
//!
//! 1. **Prepare** (`&self`) — [`IndexedTable::stage`] the sources' live
//!    records under the next unallocated segment id. Nothing references
//!    the staged files; readers are unaffected.
//! 2. **Publish** (`&mut self`) — swap the in-memory tier list and
//!    commit the manifest through the storage layer's atomic commit
//!    record. The manifest rename is the *only* commit point: a crash on
//!    either side of it leaves every segment fully merged or fully
//!    intact, any half-staged files collected as orphans at the next open.
//!
//! A mutation is acknowledged by [`LsmDb::flush`] (which seals); a crash
//! loses at most unacknowledged operations — the acked-or-pending
//! contract shared with the monolithic engine's torture suite.
//!
//! ## Query equivalence
//!
//! A query scans the tiers oldest-first (segments in tid order, then the
//! memtable), threading one [`ScanCarry`] — the shared candidate pool
//! and counters — through every per-tier scan under one λ, resolved across
//! all tiers. The pool keeps the k smallest `(dist, tid)` of whatever it
//! is offered, in any order, so the answer is the exact top-k of the live
//! tuples under that λ (DESIGN.md §14). Under EQU that is the single-file
//! engine's answer, bit for bit. Under ITF it need not be: `df` counts
//! tombstones until a seal or merge drops them, so each engine's λ follows
//! its own tombstones. `table_accesses` differs too: each tier drains its
//! own candidates, against a pool the earlier tiers already tightened.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_core::{
    collect_orphans, remove_segment_files, segment_base, segment_index_path, IndexedTable,
    IvaConfig, IvaError, Metric, MetricKind, Query, QueryOutcome, Result, ScanCarry, Segment,
    WeightScheme,
};
use iva_storage::vfs::{MemVfs, RealVfs, Vfs};
use iva_storage::{
    read_manifest, write_manifest, DomainPin, IoStats, Manifest, PagerOptions, SegmentMeta,
};
use iva_swt::{AttrId, Catalog, SwtTable, Tid, Tuple, Value};

use crate::db::{SearchHit, SearchOutcome};
use crate::search::{QueryBuilder, SearchRequest};

/// Options for creating an [`LsmDb`].
///
/// The layering contract of [`crate::IvaDbOptions`] carries over
/// unchanged: structural parameters in `config` shape segment bytes and
/// are persisted per segment; runtime knobs (`metric` and `weights`) are
/// never persisted; per-request overrides win for one call;
/// `config.search_threads`, `config.hot_tier_bytes` and
/// `config.compress_lists` are accepted and ignored.
/// The two thresholds below only
/// steer *when* maintenance runs — under EQU any schedule yields
/// bit-identical answers; under ITF λ follows the tombstones a schedule
/// has not yet dropped.
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Pager/page-cache options (shared shape for every tier's files).
    pub pager: PagerOptions,
    /// Index configuration (α, n, ndf penalty...), applied to every
    /// tier's iVA-file.
    pub config: IvaConfig,
    /// Default metric for [`LsmDb::execute`].
    pub metric: MetricKind,
    /// Default weight scheme for [`LsmDb::execute`].
    pub weights: WeightScheme,
    /// Record count of the memtable (tombstones included) at which
    /// [`LsmDb::plan_maintenance`] proposes a seal. `0` disables the
    /// automatic trigger; [`LsmDb::seal`] always works.
    pub memtable_limit: u64,
    /// Sealed-segment count at which [`LsmDb::plan_maintenance`]
    /// proposes a full merge. `0` disables the automatic trigger;
    /// [`LsmDb::compact`] always works.
    pub compact_fanout: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            pager: PagerOptions::default(),
            config: IvaConfig::default(),
            metric: MetricKind::L2,
            weights: WeightScheme::Equal,
            memtable_limit: 4096,
            compact_fanout: 8,
        }
    }
}

/// One staged (prepared but unpublished) unit of maintenance — a merge
/// of sealed segments, or a seal: the same with the memtable as its one
/// source. [`LsmDb::plan_maintenance`] proposes it,
/// [`LsmDb::publish_maintenance`] commits it.
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    /// Id the new segment's files are staged under.
    new_id: u64,
    /// Its tid range; `None`: no live record, only sources to drop.
    range: Option<(Tid, Tid)>,
    /// Ids of the segments the new one replaces, oldest first.
    source_ids: Vec<u64>,
    /// A seal: the tid the memtable restarts at, past the sealed ones.
    restart_memtable_at: Option<Tid>,
    /// The mutation count the plan was prepared at.
    ops: u64,
}

/// The segmented store: memtable + sealed segments + manifest.
pub struct LsmDb {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    opts: LsmOptions,
    /// Store-wide numeric codec domains, indexed by attribute. Pinned at
    /// the first inserted value of each numeric attribute (exactly the
    /// monolithic engine's degenerate first-value domain) and never
    /// widened, so every tier quantises every value identically.
    domains: Vec<DomainPin>,
    /// Sealed segments in ascending tid order (oldest first — scan order).
    segments: Vec<Segment>,
    /// The mutable tier: every tuple inserted since the last seal, in
    /// memory, under tids from `memtable_base` up.
    memtable: IndexedTable,
    memtable_base: Tid,
    next_segment_id: u64,
    /// Mutation counter fencing prepare/publish pairs: a plan prepared
    /// at one count publishes only at the same count.
    ops: u64,
    manifest_io: IoStats,
    maintenance_io: IoStats,
    /// Catalog or domain pins changed since the last manifest write.
    meta_dirty: bool,
}

/// Path of the store's manifest inside `dir`.
fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.ivls")
}

impl LsmDb {
    /// Create an in-memory store (tests, examples, experiments). Sealed
    /// segments live on a private [`MemVfs`].
    pub fn create_mem(opts: LsmOptions) -> Result<Self> {
        Self::create_with_vfs(Arc::new(MemVfs::new()), Path::new("/lsm"), opts)
    }

    /// Create a disk-backed store inside directory `dir` (created if
    /// missing): a manifest plus `seg-NNNNNNNN.{tbl,meta,iva}` files as
    /// segments are sealed.
    pub fn create(dir: &Path, opts: LsmOptions) -> Result<Self> {
        Self::create_with_vfs(Arc::new(RealVfs), dir, opts)
    }

    /// [`LsmDb::create`] on an explicit [`Vfs`] (fault injection, crash
    /// replay).
    pub fn create_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, opts: LsmOptions) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| IvaError::Storage(e.into()))?;
        let empty = Manifest::default();
        let mut db = Self::assemble(vfs, dir, opts, empty, &Catalog::new(), IoStats::new())?;
        db.write_manifest()?; // make the directory openable immediately
        Ok(db)
    }

    /// Open an existing store.
    pub fn open(dir: &Path, opts: LsmOptions) -> Result<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), dir, opts)
    }

    /// [`LsmDb::open`] on an explicit [`Vfs`], with crash recovery.
    ///
    /// The manifest's commit record picks the last committed tier set;
    /// any segment files it does not reference (a seal or compaction
    /// that crashed around its commit point) are collected as orphans.
    /// Each referenced segment then recovers exactly like the monolithic
    /// engine ([`IndexedTable::open`], on the store's pinned domains).
    /// The memtable is volatile — recovery restarts it empty at the
    /// manifest's tid watermark.
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, opts: LsmOptions) -> Result<Self> {
        let manifest_io = IoStats::new();
        let manifest = read_manifest(vfs.as_ref(), &manifest_path(dir), &manifest_io)?;
        let catalog = Catalog::decode(&manifest.catalog)?;
        collect_orphans(vfs.as_ref(), dir, &manifest)?;
        Self::assemble(vfs, dir, opts, manifest, &catalog, manifest_io)
    }

    /// The store `manifest` describes, with an empty memtable.
    fn assemble(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        opts: LsmOptions,
        manifest: Manifest,
        catalog: &Catalog,
        manifest_io: IoStats,
    ) -> Result<Self> {
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for &meta in &manifest.segments {
            segments.push(Segment::open(
                &vfs,
                dir,
                meta,
                &opts.pager,
                opts.config,
                &manifest.domains,
            )?);
        }
        let memtable = IndexedTable::create(
            None,
            catalog,
            manifest.next_tid,
            &opts.pager,
            opts.config,
            Some(&manifest.domains),
        )?;
        Ok(Self {
            vfs,
            dir: dir.to_path_buf(),
            opts,
            domains: manifest.domains,
            segments,
            memtable,
            memtable_base: manifest.next_tid,
            next_segment_id: manifest.next_segment_id,
            ops: 0,
            manifest_io,
            maintenance_io: IoStats::new(),
            meta_dirty: false,
        })
    }

    fn catalog(&self) -> &Catalog {
        self.memtable.table().catalog()
    }

    fn write_manifest(&mut self) -> Result<()> {
        let m = Manifest {
            next_segment_id: self.next_segment_id,
            next_tid: self.memtable_base,
            segments: self.segments.iter().map(Segment::meta).collect(),
            domains: self.domains.clone(),
            catalog: self.catalog().encode(),
        };
        write_manifest(
            self.vfs.as_ref(),
            &manifest_path(&self.dir),
            &m,
            &self.manifest_io,
        )?;
        self.meta_dirty = false;
        Ok(())
    }

    /// Define (or look up) a text attribute.
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        let id = self.memtable.define_text(name)?;
        self.sync_domains();
        Ok(id)
    }

    /// Define (or look up) a numerical attribute.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        let id = self.memtable.define_numeric(name)?;
        self.sync_domains();
        Ok(id)
    }

    /// Attribute id by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.catalog().id_of(name)
    }

    fn sync_domains(&mut self) {
        if self.domains.len() < self.catalog().len() {
            self.domains
                .resize(self.catalog().len(), DomainPin::unpinned());
            self.ops += 1;
            self.meta_dirty = true;
        }
    }

    /// Pin the codec domain of any numeric attribute `tuple` defines for
    /// the first time store-wide. The memtable's index just fixed the
    /// degenerate first-value domain (the monolithic engine's rule);
    /// recording it makes every later tier quantise identically.
    fn observe_domains(&mut self, tuple: &Tuple) {
        for (attr, value) in tuple.iter() {
            if !matches!(value, Value::Num(_)) {
                continue;
            }
            let i = attr.index();
            if self.domains.get(i).is_some_and(|d| d.is_pinned()) {
                continue;
            }
            if let Some(e) = self.memtable.index().attr_entry(attr) {
                if e.min <= e.max {
                    self.domains[i] = DomainPin {
                        min: e.min,
                        max: e.max,
                    };
                    self.meta_dirty = true;
                }
            }
        }
    }

    /// Insert a tuple; returns its tuple id (globally unique across
    /// tiers). Volatile until the next [`LsmDb::flush`].
    pub fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        let tid = self.memtable.insert(tuple)?;
        self.observe_domains(tuple);
        self.ops += 1;
        Ok(tid)
    }

    /// Delete a tuple by id, tombstoning whichever tier holds it.
    /// Returns false if absent/already deleted.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        self.ops += 1;
        if tid >= self.memtable_base {
            return self.memtable.delete(tid);
        }
        match self.segments.iter_mut().find(|s| s.covers(tid)) {
            Some(seg) => seg.delete(tid),
            None => Ok(false),
        }
    }

    /// Update = delete + insert under a fresh tuple id (Sec. IV-B).
    /// Returns the new tuple id.
    ///
    /// If inserting `new_tuple` fails, the old tuple is reinserted —
    /// under a fresh id, like any update — so the data survives the
    /// failed attempt.
    pub fn update(&mut self, tid: Tid, new_tuple: &Tuple) -> Result<Tid> {
        crate::engine::update(self, tid, new_tuple)
    }

    /// Fetch a live tuple by id from whichever tier holds it.
    pub fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        self.tier_of(tid).get(tid)
    }

    /// Live tuple count across every tier.
    pub fn len(&self) -> u64 {
        self.tiers().map(IndexedTable::live_records).sum()
    }

    /// True if no live tuples exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sealed segments, oldest first (advanced/testing surface).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The mutable tier (advanced/testing surface).
    pub fn memtable(&self) -> &IndexedTable {
        &self.memtable
    }

    /// Manifest read/write accounting.
    pub fn manifest_io(&self) -> &IoStats {
        &self.manifest_io
    }

    /// Seal/compaction build accounting (staging I/O).
    pub fn maintenance_io(&self) -> &IoStats {
        &self.maintenance_io
    }

    /// Every tier in scan order: segments by tid, then the memtable.
    fn tiers(&self) -> impl Iterator<Item = &IndexedTable> {
        let segments = self.segments.iter().map(|s| &**s);
        segments.chain([&self.memtable])
    }

    /// The tier that holds `tid` if any does: tiers cover disjoint tid
    /// ranges, and what no segment covers can only be in the memtable.
    fn tier_of(&self, tid: Tid) -> &IndexedTable {
        match self.segments.iter().find(|s| s.covers(tid)) {
            Some(seg) => seg,
            None => &self.memtable,
        }
    }

    /// The staging half of maintenance (`&self` — readers keep scanning
    /// the sources): stage the live records of `sources` (oldest first)
    /// as the next segment, on the store's pinned domains, charged to
    /// [`LsmDb::maintenance_io`]; if none survived, remove the files again.
    fn prepare(
        &self,
        sources: &[&SwtTable],
        source_ids: Vec<u64>,
        restart_memtable_at: Option<Tid>,
    ) -> Result<MaintenancePlan> {
        let new_id = self.next_segment_id;
        let (staged, range) = IndexedTable::stage(
            sources,
            Some((
                &self.vfs,
                &segment_base(&self.dir, new_id),
                &segment_index_path(&self.dir, new_id),
            )),
            self.catalog(),
            &self.opts.pager,
            self.opts.config,
            Some(&self.domains),
            self.maintenance_io.clone(),
            self.maintenance_io.clone(),
        )?;
        drop(staged);
        if range.is_none() {
            remove_segment_files(self.vfs.as_ref(), &self.dir, new_id)?;
        }
        Ok(MaintenancePlan {
            new_id,
            range,
            source_ids,
            restart_memtable_at,
            ops: self.ops,
        })
    }

    /// Stage a seal of the memtable, or `None` when it was never used.
    fn plan_seal(&self) -> Result<Option<MaintenancePlan>> {
        let table = self.memtable.table();
        let next_tid = table.file().next_tid();
        if next_tid == self.memtable_base {
            return Ok(None);
        }
        self.prepare(&[table], Vec::new(), Some(next_tid)).map(Some)
    }

    /// Stage a merge of all segments into one, or `None` with fewer than two.
    fn plan_merge(&self) -> Result<Option<MaintenancePlan>> {
        if self.segments.len() < 2 {
            return Ok(None);
        }
        let sources: Vec<&SwtTable> = self.segments.iter().map(|s| s.table()).collect();
        let ids = self.segments.iter().map(Segment::id).collect();
        self.prepare(&sources, ids, None).map(Some)
    }

    /// Seal the memtable into a fresh segment (prepare + publish in
    /// one). Returns whether anything was sealed.
    pub fn seal(&mut self) -> Result<bool> {
        match self.plan_seal()? {
            Some(plan) => self.publish_maintenance(plan),
            None => Ok(false),
        }
    }

    /// Merge every sealed segment into one (prepare + publish in one).
    /// Returns whether a merge ran.
    pub fn compact(&mut self) -> Result<bool> {
        match self.plan_merge()? {
            Some(plan) => self.publish_maintenance(plan),
            None => Ok(false),
        }
    }

    /// Propose the next unit of maintenance under the configured
    /// thresholds: a seal once the memtable reaches
    /// [`LsmOptions::memtable_limit`] records, else a merge once the
    /// store reaches [`LsmOptions::compact_fanout`] segments. `&self` —
    /// this is the expensive staging half, safe under concurrent reads.
    pub fn plan_maintenance(&self) -> Result<Option<MaintenancePlan>> {
        if self.opts.memtable_limit > 0 && self.memtable.total_records() >= self.opts.memtable_limit
        {
            if let Some(plan) = self.plan_seal()? {
                return Ok(Some(plan));
            }
        }
        if self.opts.compact_fanout > 0 && self.segments.len() >= self.opts.compact_fanout {
            return self.plan_merge();
        }
        Ok(None)
    }

    /// Commit a staged maintenance plan (`&mut self` — the cheap swap):
    /// the new segment (if any record survived) replaces its sources, a
    /// seal restarts the memtable past the sealed tids, the manifest
    /// commit is the single atomic point, and only then are the source
    /// files removed. A plan made stale by an interleaved mutation errors.
    pub fn publish_maintenance(&mut self, plan: MaintenancePlan) -> Result<bool> {
        if plan.new_id != self.next_segment_id || plan.ops != self.ops {
            return Err(IvaError::InvalidArgument(
                "stale maintenance plan: mutations interleaved with the prepare phase".into(),
            ));
        }
        let staged = match plan.range {
            Some((lo_tid, hi_tid)) => Some(Segment::open(
                &self.vfs,
                &self.dir,
                SegmentMeta {
                    id: plan.new_id,
                    lo_tid,
                    hi_tid,
                },
                &self.opts.pager,
                self.opts.config,
                &self.domains,
            )?),
            None => None,
        };
        self.segments.retain(|s| !plan.source_ids.contains(&s.id()));
        self.segments.extend(staged);
        self.segments.sort_by_key(Segment::lo_tid);
        self.next_segment_id = plan.new_id + 1;
        if let Some(base) = plan.restart_memtable_at {
            self.memtable = IndexedTable::create(
                None,
                self.catalog(),
                base,
                &self.opts.pager,
                self.opts.config,
                Some(&self.domains),
            )?;
            self.memtable_base = base;
        }
        self.write_manifest()?;
        for &sid in &plan.source_ids {
            remove_segment_files(self.vfs.as_ref(), &self.dir, sid)?;
        }
        Ok(true)
    }

    /// Run one round of threshold-driven maintenance synchronously.
    /// Returns whether any work ran.
    pub fn maintain(&mut self) -> Result<bool> {
        match self.plan_maintenance()? {
            Some(plan) => self.publish_maintenance(plan),
            None => Ok(false),
        }
    }

    /// Persist everything durably — the acknowledgement point. Dirty
    /// segments commit their in-place tombstones; the memtable (if used)
    /// seals into a segment; metadata-only changes (new attributes,
    /// freshly pinned domains) rewrite the manifest.
    pub fn flush(&mut self) -> Result<()> {
        for seg in &mut self.segments {
            if seg.is_dirty() {
                seg.flush()?;
            }
        }
        if !self.seal()? && self.meta_dirty {
            self.write_manifest()?;
        }
        Ok(())
    }

    /// Build a [`Query`] from attribute names resolved through this
    /// store's catalog.
    pub fn query_builder(&self) -> QueryBuilder<'_> {
        QueryBuilder::new(self.catalog())
    }

    /// Resolve the weight `λ` of each query attribute under `scheme`,
    /// aggregated across every tier: `|T|` is the store's live tuple
    /// count and `|T|_A` sums the attribute's document frequency over
    /// all tiers (tombstones a tier still holds included), so λ is one
    /// global vector — every tier scan lower-bounds the same weighted
    /// metric (a per-tier λ would break the carried pool's admission
    /// bound).
    pub fn resolve_weights(&self, query: &Query, scheme: WeightScheme) -> Vec<f64> {
        let total = self
            .tiers()
            .map(|t| t.index().n_tuples() - t.index().n_deleted())
            .sum();
        query
            .iter()
            .map(|(attr, _)| {
                let df = self
                    .tiers()
                    .map(|t| t.index().attr_entry(attr).map_or(0, |e| e.df))
                    .sum();
                scheme.weight(total, df)
            })
            .collect()
    }

    /// Run one top-k search as described by `request` — the single entry
    /// point every other search method wraps.
    pub fn execute(&self, query: &Query, request: &SearchRequest) -> Result<SearchOutcome> {
        let metric = request.metric_override().unwrap_or(self.opts.metric);
        self.execute_metric(query, &metric, request)
    }

    /// [`LsmDb::execute`] under a caller-supplied [`Metric`]
    /// implementation.
    pub fn execute_metric<M: Metric>(
        &self,
        query: &Query,
        metric: &M,
        request: &SearchRequest,
    ) -> Result<SearchOutcome> {
        let scheme = request.weights_override().unwrap_or(self.opts.weights);
        let lambda = self.resolve_weights(query, scheme);
        // One kernel per text value for every tier, built under the
        // store's codec (the memtable's) and charged once.
        let matchers = self.memtable.index().query_matchers(query);
        let mut carry = ScanCarry::new(request.k());
        carry.stats.filter_nanos += matchers.build_nanos();
        for tier in self.tiers() {
            let (index, table) = tier.searchable()?;
            index.query_carry(table, query, &matchers, metric, &lambda, &mut carry)?;
        }
        self.materialize(carry.finish())
    }

    /// Turn a raw carried outcome into a [`SearchOutcome`] by fetching
    /// each hit's tuple from the tier that holds it.
    fn materialize(&self, out: QueryOutcome) -> Result<SearchOutcome> {
        let hits = out
            .results
            .into_iter()
            .map(|e| SearchHit::materialize(e, self.tier_of(e.tid).table()))
            .collect::<Result<Vec<_>>>()?;
        Ok(SearchOutcome {
            hits,
            stats: out.stats,
        })
    }

    /// The metric used when a request carries no override.
    pub fn default_metric(&self) -> MetricKind {
        self.opts.metric
    }
}
