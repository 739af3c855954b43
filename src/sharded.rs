//! Horizontally partitioned iVA-files.
//!
//! The paper closes by noting that, "being a non-hierarchical index, the
//! iVA-file is suitable for indexing horizontally or vertically partitioned
//! datasets in a distributed and parallel system architecture which is
//! widely adopted for implementing the community systems" (Sec. VI). This
//! module makes that concrete for the horizontal case: a [`ShardedIvaDb`]
//! hash-partitions tuples across N independent table+index shards, fans a
//! query out to every shard in parallel (scan-based indexes need no
//! cross-shard coordination), and merges the per-shard top-k pools.
//!
//! Exactness is preserved: each shard's result is its exact local top-k,
//! and the global top-k is contained in the union of local top-ks.

use iva_core::{
    BatchItem, IvaConfig, IvaError, Metric, MetricKind, PoolEntry, Query, QueryOptions,
    QueryOutcome, QueryStats, Result, WeightScheme,
};
use iva_swt::{AttrId, AttrType, Tid, Tuple};

use crate::db::{IvaDb, IvaDbOptions, SearchHit};
use crate::search::{QueryBuilder, SearchRequest};

/// A horizontally partitioned collection of [`IvaDb`] shards.
pub struct ShardedIvaDb {
    shards: Vec<IvaDb>,
    /// Tuples inserted so far (drives round-robin placement and global ids).
    inserted: u64,
    opts: IvaDbOptions,
}

/// A globally unique tuple handle: `(shard, local tid)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardedTid {
    /// Which shard holds the tuple.
    pub shard: u32,
    /// The tuple id within that shard.
    pub tid: Tid,
}

/// One ranked answer from a sharded search.
#[derive(Debug, Clone)]
pub struct ShardedHit {
    /// Global handle of the tuple.
    pub id: ShardedTid,
    /// Distance to the query.
    pub dist: f64,
    /// The tuple.
    pub tuple: Tuple,
}

/// Everything one sharded search run produces.
#[derive(Debug, Clone)]
pub struct ShardedSearchOutcome {
    /// The global top-k in ascending distance order (ties broken by tid,
    /// then shard — deterministic regardless of shard completion order).
    pub hits: Vec<ShardedHit>,
    /// Counters summed across shards; phase timings take the slowest
    /// shard (the shards run concurrently).
    pub stats: QueryStats,
}

/// What [`ShardedIvaDb::fan_out`] asks of every shard — data, because
/// `panic-reachability` cannot follow a callable parameter.
enum ShardWork<'a> {
    /// One top-k search ([`iva_core::IvaIndex::query_opts`]).
    Query(&'a Query, usize, WeightScheme),
    /// One admission batch ([`iva_core::IvaIndex::query_batch`]).
    Batch(&'a [BatchItem<'a>]),
}

impl ShardedIvaDb {
    /// Create `n_shards` in-memory shards.
    pub fn create_mem(n_shards: usize, opts: IvaDbOptions) -> Result<Self> {
        if n_shards == 0 {
            return Err(IvaError::InvalidArgument("need at least one shard".into()));
        }
        let shards = (0..n_shards)
            .map(|_| IvaDb::create_mem(opts.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            inserted: 0,
            opts,
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total live tuples across shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(IvaDb::len).sum()
    }

    /// True if no live tuples exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Define an attribute on every shard, which must all hand out the
    /// same id.
    fn define(&mut self, name: &str, ty: AttrType) -> Result<AttrId> {
        let mut id = None;
        for s in &mut self.shards {
            let got = match ty {
                AttrType::Text => s.define_text(name)?,
                AttrType::Numeric => s.define_numeric(name)?,
            };
            if *id.get_or_insert(got) != got {
                return Err(IvaError::Corrupt("shards disagree on attribute ids".into()));
            }
        }
        id.ok_or_else(|| IvaError::Corrupt("sharded table has no shards".into()))
    }

    /// Define a text attribute on every shard (same id everywhere as long
    /// as definitions happen through this method, in order).
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        self.define(name, AttrType::Text)
    }

    /// Define a numerical attribute on every shard.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        self.define(name, AttrType::Numeric)
    }

    /// Insert a tuple (round-robin placement), returning its global handle.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<ShardedTid> {
        let shard = (self.inserted % self.shards.len() as u64) as u32;
        self.inserted += 1;
        let tid = self.shards[shard as usize].insert(tuple)?;
        Ok(ShardedTid { shard, tid })
    }

    /// Delete by global handle.
    pub fn delete(&mut self, id: ShardedTid) -> Result<bool> {
        let Some(shard) = self.shards.get_mut(id.shard as usize) else {
            return Ok(false);
        };
        shard.delete(id.tid)
    }

    /// Fetch by global handle.
    pub fn get(&self, id: ShardedTid) -> Result<Option<Tuple>> {
        match self.shards.get(id.shard as usize) {
            Some(shard) => shard.get(id.tid),
            None => Ok(None),
        }
    }

    /// Build a [`Query`] from attribute names resolved through the shared
    /// catalog (see [`IvaDb::query_builder`]).
    pub fn query_builder(&self) -> QueryBuilder<'_> {
        QueryBuilder::new(self.shards[0].table().catalog())
    }

    /// Run one top-k search as described by `request` — the single entry
    /// point every other sharded search method wraps.
    ///
    /// Shard- and segment-level parallelism compose: each shard runs on
    /// its own scoped thread, and the request's thread budget (or the
    /// configured [`crate::IvaConfig::search_threads`]) is split evenly
    /// across shards to bound the total filter-worker count.
    pub fn execute(&self, query: &Query, request: &SearchRequest) -> Result<ShardedSearchOutcome> {
        let metric = request.metric_override().unwrap_or(self.opts.metric);
        self.execute_metric(query, &metric, request)
    }

    /// [`ShardedIvaDb::execute`] under a caller-supplied [`Metric`]
    /// implementation.
    pub fn execute_metric<M: Metric + Sync>(
        &self,
        query: &Query,
        metric: &M,
        request: &SearchRequest,
    ) -> Result<ShardedSearchOutcome> {
        let k = request.k();
        let weights = request.weights_override().unwrap_or(self.opts.weights);
        let qopts = self.shard_options(SearchRequest::query_options([request]));

        let work = ShardWork::Query(query, k, weights);
        let locals = self.fan_out(&work, metric, &qopts)?;
        self.merge_locals(k, locals.into_iter().flatten().collect())
    }

    /// Run `work` on every shard — inline on a single shard, else one
    /// scoped thread each — and collect the shards' outcomes (one per
    /// batch item; one for a single search) in shard order.
    fn fan_out<M: Metric + Sync>(
        &self,
        work: &ShardWork<'_>,
        metric: &M,
        qopts: &QueryOptions,
    ) -> Result<Vec<Vec<QueryOutcome>>> {
        let run = |shard: &IvaDb| {
            let (index, table) = shard.pair().searchable()?;
            match *work {
                ShardWork::Query(query, k, weights) => Ok(vec![
                    index.query_opts(table, query, k, metric, weights, qopts)?
                ]),
                ShardWork::Batch(items) => index.query_batch(table, items, metric, qopts),
            }
        };
        if let [only] = self.shards.as_slice() {
            return Ok(vec![run(only)?]);
        }
        let what = match work {
            ShardWork::Query(..) => "query",
            ShardWork::Batch(_) => "batch",
        };
        let mut slots: Vec<Option<Result<Vec<QueryOutcome>>>> = Vec::new();
        slots.resize_with(self.shards.len(), || None);
        crossbeam::thread::scope(|scope| {
            for (shard, slot) in self.shards.iter().zip(slots.iter_mut()) {
                let run = &run;
                scope.spawn(move |_| *slot = Some(run(shard)));
            }
        })
        .map_err(|_| IvaError::Corrupt(format!("shard {what} thread panicked")))?;
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| Err(IvaError::Corrupt(format!("shard {what} slot unfilled"))))
            })
            .collect()
    }

    /// Split the request's thread budget (or the configured
    /// [`crate::IvaConfig::search_threads`]) evenly across shards.
    fn shard_options(&self, opts: QueryOptions) -> QueryOptions {
        // A request's `0` means what the configured `0` means.
        let budget = IvaConfig {
            search_threads: opts.threads.unwrap_or(self.opts.config.search_threads),
            ..self.opts.config
        }
        .resolved_search_threads();
        QueryOptions {
            threads: Some((budget / self.shards.len()).max(1)),
            ..opts
        }
    }

    /// Merge per-shard local top-k outcomes (in shard order) into the
    /// global top-k: take the k smallest across shards (deterministic
    /// ordering: distance, then tid, then shard), then materialize.
    /// Counters sum across shards; phase timings take the slowest shard.
    fn merge_locals(&self, k: usize, locals: Vec<QueryOutcome>) -> Result<ShardedSearchOutcome> {
        let mut stats = QueryStats::default();
        let mut merged: Vec<(u32, PoolEntry)> = Vec::new();
        for (i, out) in locals.into_iter().enumerate() {
            stats.tuples_scanned += out.stats.tuples_scanned;
            stats.table_accesses += out.stats.table_accesses;
            stats.hot_tier_attrs += out.stats.hot_tier_attrs;
            stats.cold_tier_attrs += out.stats.cold_tier_attrs;
            stats.hot_tier_bytes_scanned += out.stats.hot_tier_bytes_scanned;
            stats.cold_tier_bytes_scanned += out.stats.cold_tier_bytes_scanned;
            stats.list_bytes_logical += out.stats.list_bytes_logical;
            stats.list_bytes_physical += out.stats.list_bytes_physical;
            stats.filter_nanos = stats.filter_nanos.max(out.stats.filter_nanos);
            stats.refine_nanos = stats.refine_nanos.max(out.stats.refine_nanos);
            for e in out.results {
                merged.push((i as u32, e));
            }
        }
        merged.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        merged.truncate(k);
        let hits = merged
            .into_iter()
            .map(|(shard, e)| {
                let owner = self
                    .shards
                    .get(shard as usize)
                    .ok_or_else(|| IvaError::Corrupt("merged hit names an unknown shard".into()))?;
                let SearchHit { tid, dist, tuple } = SearchHit::materialize(e, owner.table())?;
                Ok(ShardedHit {
                    id: ShardedTid { shard, tid },
                    dist,
                    tuple,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedSearchOutcome { hits, stats })
    }

    /// Run several searches as one admission batch: every shard scans its
    /// tuple list once for the whole batch (see
    /// [`iva_core::IvaIndex::query_batch`]), then the per-shard local
    /// top-ks merge per entry exactly as in [`ShardedIvaDb::execute`].
    /// Every entry's result is bit-identical to executing it alone.
    ///
    /// Entries are grouped by resolved metric as in
    /// [`crate::IvaDb::execute_batch`]; weights and `k` are honored per
    /// entry.
    pub fn execute_batch(
        &self,
        batch: &[(Query, SearchRequest)],
    ) -> Result<Vec<ShardedSearchOutcome>> {
        let mut answered = Vec::with_capacity(batch.len());
        for g in SearchRequest::metric_groups(batch, self.opts.metric, self.opts.weights) {
            let (metric, items) = (g.metric, &g.items);
            let qopts = self.shard_options(g.opts);

            let per_shard = self.fan_out(&ShardWork::Batch(items), &metric, &qopts)?;
            for (j, (&slot, item)) in g.slots.iter().zip(items).enumerate() {
                let locals: Vec<QueryOutcome> = per_shard
                    .iter()
                    .map(|shard_outs| {
                        shard_outs
                            .get(j)
                            .cloned()
                            .ok_or_else(|| IvaError::Corrupt("shard batch came up short".into()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                answered.push((slot, self.merge_locals(item.k, locals)?));
            }
        }
        SearchRequest::in_batch_order(batch.len(), answered)
    }

    /// Run the β-cleanup check on every shard.
    pub fn maybe_clean(&mut self) -> Result<()> {
        for s in &mut self.shards {
            s.maybe_clean()?;
        }
        Ok(())
    }

    /// Persist every shard durably (table first, then index, per shard —
    /// see [`IvaDb::flush`]).
    pub fn flush(&mut self) -> Result<()> {
        for s in &mut self.shards {
            s.flush()?;
        }
        Ok(())
    }

    /// The default metric configured for this database.
    pub fn default_metric(&self) -> MetricKind {
        self.opts.metric
    }

    /// Access a shard (diagnostics, tests).
    pub fn shard(&self, i: usize) -> Option<&IvaDb> {
        self.shards.get(i)
    }
}
