//! lint:scope(panic-reachability)
//! The scan spine: the one walk of Algorithm 1 (Sec. IV-A) and the one
//! refine step every execution shape runs.
//!
//! [`IvaIndex::scan`] walks tuple-list positions `[lo, hi)` once, a block
//! of at most [`BLOCK`] elements at a time, in step with the vector lists
//! of every [`Lane`] riding it. A lane is one query: its per-attribute
//! [`AttrScan`] positions and the block of lower bounds they fill
//! ([`Bounds`]), its top-k pool and counters (a [`ScanCarry`]), and
//! `pending` — every candidate `(est, tid, ptr)` the live pool admitted
//! during the walk. Per block, each attribute fills its column of bounds
//! once; admission then runs per element, in scan order, so a drain inside
//! a block tightens the pool for the rest of it. The walk fetches nothing:
//! a tuple whose distance it already knows exactly — *ndf* on every query
//! attribute, or a dictionary string's exact distance (below) — goes
//! straight into the pool, and any other admitted one into `pending`. When
//! a lane's range ends (or it holds a window of `drain_at` candidates) the
//! lane **drains**, fetching by need rather than by scan position:
//!
//! 1. **probe** — the k candidates with the smallest `(est, tid)` are
//!    refined first, in table order. They are the likeliest answers, so
//!    after them the pool's threshold is at or near its final value;
//! 2. **sweep** — the rest of `pending`, in scan order, each tested
//!    against the now-tight pool *before* it is fetched.
//!
//! Both passes run the same routine, Algorithm 1's refine step: a
//! candidate the pool still admits costs one [`SwtTable::read`] of its
//! pointer, and its distance is computed from the record's bytes in the
//! page that read holds ([`bounded_distance`], see "Refine on bytes"
//! below). Table order inside a pass keeps the cold path's reads
//! ascending — strict best-first order would seek backwards for every
//! record.
//!
//! **A threshold before the walk.** A 1-value text query on a packed list
//! whose dictionary holds strings is seeded ([`Seed`]):
//! the dictionary's exact edit distances, in ascending estimate order,
//! give a bound `B` with at least `k` + the index's tombstones counted
//! values at or below it — so at least k live tuples lie at or below
//! `limit = combine(λ·B)`. The walk then skips every tuple with
//! `est > limit`, and reads each string's bound from the probe's per-code
//! table, where a distance `≤ B` that no unvisited estimate undercuts is
//! exact.
//!
//! **Order-independence lemma.** The pool keeps the k smallest
//! `(dist, tid)` of what was inserted, whatever the order (see
//! [`crate::pool`]). A candidate is skipped — at walk time or before its
//! fetch — only when `(est, tid)` is at or above the pool's worst entry,
//! or when `est > limit`, where at least k live tuples lie at or below
//! `limit`; `est ≤ dist`, and the worst entry only falls, so a skipped
//! candidate is not among the k smallest `(dist, tid)` of the tuples
//! visited. Every entry inserted is at its exact distance. Hence
//! *any* visiting order, window size or partition into lanes leaves the
//! pool holding exactly those k, and because every tuple list is
//! tid-ascending that is Algorithm 1's "strictly smaller distance, first
//! arrival wins" answer. What the order changes is only how many records
//! are fetched ([`crate::QueryStats::table_accesses`]); every fetch is of
//! a candidate the pool admitted at that moment.
//!
//! **Refine on bytes.** The refine step hands [`bounded_distance`] the
//! pool's [`refine_cap`](crate::ResultPool::refine_cap) for the candidate's tid
//! and gets back the exact distance if that is below the cap and otherwise
//! *some* value at or above it. The cap is the pool's threshold, stepped
//! up one ulp when the tid would win a tie against the worst entry — so
//! the distance is exact up to *and including* the threshold exactly when
//! a tie can be admitted, and every value `insert_at` admits is exact.
//! Whatever it rejects it would have rejected at its exact value too.
//!
//! The three execution shapes are arguments of the one function:
//!
//! * **serial** — one lane over `0..n` on the caller's carried pool
//!   ([`IvaIndex::scan_serial`]); a pool carried across LSM tiers is
//!   simply already tight when the next tier's walk starts;
//! * **segmented-parallel** — per worker, one lane over its `[lo, hi)` on
//!   a private pool; [`crate::parallel`] fans out and unions the pools;
//! * **batch** — N lanes over `0..n` sharing the tuple-list read
//!   ([`IvaIndex::query_batch`]); each lane drains on its own count, so
//!   its numbers are those of its solo run.

use std::ops::Range;

use iva_swt::{FieldLoc, RecordBuf, RecordPtr, SwtTable};
use iva_text::{PreparedMatcher, SigCodec};

use crate::error::{IvaError, Result};
use crate::index::{IvaIndex, QueryMatchers, ScanCarry, SharedAttr};
use crate::layout::{ListEncoding, TOMBSTONE_PTR};
use crate::metric::Metric;
use crate::numeric::NumericCodec;
use crate::packed::{Seed, EXACT_BIAS};
use crate::pool::{PoolEntry, ResultPool};
use crate::query::{bounded_distance, Query, QueryValue};
use crate::timing::{monotonic_nanos, thread_cpu_time};
use crate::veclist::{NumListCursor, TextListCursor};

/// One worker's scan position over one query attribute: borrows the
/// immutable per-query state ([`SharedAttr`]) and owns the position.
pub(crate) enum AttrScan<'a> {
    Text {
        cur: TextListCursor,
        codec: &'a SigCodec,
        matcher: &'a PreparedMatcher,
        /// A [`Seed`]'s per-code table.
        seeded: Option<&'a [f64]>,
    },
    Num {
        cur: NumListCursor,
        codec: &'a NumericCodec,
        q: f64,
    },
    /// No tuple in the index defines the attribute.
    AlwaysNdf,
}

impl<'a> AttrScan<'a> {
    /// Open at the head of the attribute's list.
    fn open(
        index: &'a IvaIndex,
        sa: &'a SharedAttr<'a>,
        seeded: Option<&'a [f64]>,
    ) -> Result<Self> {
        Ok(match sa {
            SharedAttr::Text { matcher, entry } => AttrScan::Text {
                cur: index.open_text_cursor(entry)?,
                codec: index.sig_codec(),
                matcher,
                seeded,
            },
            SharedAttr::Num { q, codec, entry } => AttrScan::Num {
                cur: index.open_num_cursor(entry, codec)?,
                codec,
                q: *q,
            },
            SharedAttr::AlwaysNdf => AttrScan::AlwaysNdf,
        })
    }

    /// Position a freshly opened scan past the first `n` tuple-list
    /// elements.
    fn seek(&mut self, n: u64) -> Result<()> {
        match self {
            AttrScan::Text { cur, codec, .. } => cur.seek_elements(n, codec),
            AttrScan::Num { cur, codec, .. } => cur.seek_elements(n, codec),
            AttrScan::AlwaysNdf => Ok(()),
        }
    }

    /// Whether the scan walks a raw list element by element.
    fn walks(&self) -> bool {
        match self {
            AttrScan::Text { cur, .. } => cur.walks(),
            AttrScan::Num { cur, .. } => cur.walks(),
            AttrScan::AlwaysNdf => false,
        }
    }

    /// The fill contract: move over `tids`, the block of tuple-list
    /// elements after the last one, writing each one's lower bound on its
    /// difference to the query value into `out` — `NaN` for *ndf*, and an
    /// exact difference `d` as `d −` [`EXACT_BIAS`] (below zero, where no
    /// bound is); bounds themselves are never `NaN`. Tombstoned elements
    /// are filled like any other (the spine never admits them).
    fn fill(&mut self, tids: &[u32], out: &mut [f64]) -> Result<()> {
        match self {
            AttrScan::Text {
                cur,
                codec,
                matcher,
                seeded,
            } => cur.fill_seeded(tids, codec, matcher, *seeded, out),
            AttrScan::Num { cur, codec, q } => cur.fill_block(tids, codec, *q, out),
            AttrScan::AlwaysNdf => {
                out.fill(f64::NAN);
                Ok(())
            }
        }
    }
}

/// Tuple-list elements per step of the walk: one `fill` per attribute, then
/// one admission loop. A block never spans two directory frames (1,024
/// elements). Blocks of 128 to 1,024 measured alike and 64 slower
/// (EXPERIMENTS.md); 256 keeps the bounds at 2 KiB per attribute.
pub(crate) const BLOCK: usize = 256;

/// How many elements the next block of a walk with `left` to go takes.
pub(crate) fn block_len(left: u64) -> usize {
    usize::try_from(left).map_or(BLOCK, |l| l.min(BLOCK))
}

/// One walk's per-attribute scan positions and the block of lower bounds
/// they fill: a column of [`BLOCK`] slots per query attribute.
pub(crate) struct Bounds<'a> {
    attrs: Vec<AttrScan<'a>>,
    lbs: Vec<f64>,
}

impl<'a> Bounds<'a> {
    /// One scan per query attribute, each at the head of its list, under
    /// the 1-value query's [`Seed`] table `seeded` if it has one.
    pub(crate) fn open(
        index: &'a IvaIndex,
        shared: &'a [SharedAttr<'a>],
        seeded: Option<&'a [f64]>,
    ) -> Result<Self> {
        let attrs = shared.iter().map(|sa| AttrScan::open(index, sa, seeded));
        let attrs = attrs.collect::<Result<Vec<_>>>()?;
        let lbs = vec![f64::NAN; attrs.len() * BLOCK];
        Ok(Self { attrs, lbs })
    }

    /// Fill every attribute's column for the next block (≤ [`BLOCK`]), a
    /// column at a time — except that the raw lists of a query, which are
    /// walked element by element, go position by position together: their
    /// page reads (and so a cold query's seeks) keep the order an
    /// element-by-element scan gave them.
    pub(crate) fn fill(&mut self, tids: &[u32]) -> Result<()> {
        let too_long = || IvaError::InvalidArgument("block too long".into());
        for (a, col) in self.attrs.iter_mut().zip(self.lbs.chunks_exact_mut(BLOCK)) {
            if !a.walks() {
                a.fill(tids, col.get_mut(..tids.len()).ok_or_else(too_long)?)?;
            }
        }
        if self.attrs.iter().any(AttrScan::walks) {
            for (i, tid) in tids.chunks(1).enumerate() {
                for (a, col) in self.attrs.iter_mut().zip(self.lbs.chunks_exact_mut(BLOCK)) {
                    if a.walks() {
                        a.fill(tid, col.get_mut(i..=i).ok_or_else(too_long)?)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// `diffs[a] = λₐ · (block position i's bound on attribute a, its
    /// exact difference, or the ndf penalty)`; whether every entry is
    /// exact — the ndf penalty is — so `combine(diffs)` is the distance.
    #[inline]
    pub(crate) fn weigh(&self, i: usize, lambda: &[f64], ndf: f64, diffs: &mut [f64]) -> bool {
        let mut exact = true;
        let cols = self.lbs.chunks_exact(BLOCK);
        for ((d, &lam), col) in diffs.iter_mut().zip(lambda).zip(cols) {
            let lb = col.get(i).copied().unwrap_or(f64::NAN);
            let (diff, known) = match lb {
                _ if lb.is_nan() => (ndf, true),
                _ if lb < 0.0 => (lb + EXACT_BIAS, true),
                _ => (lb, false),
            };
            exact &= known;
            *d = lam * diff;
        }
        exact
    }
}

/// Pending candidates at which a lane drains mid-range (1.5 MiB of
/// them). A window's probe can only be as good as the window is
/// wide, so this is sized to hold a whole scan's candidates in practice;
/// [`IvaIndex::scan`] takes it as an argument only so tests can shrink it.
pub(crate) const DRAIN_AT: usize = 65_536;

/// One query riding a scan.
pub(crate) struct Lane<'a> {
    query: &'a Query,
    lambda: &'a [f64],
    bounds: Bounds<'a>,
    carry: &'a mut ScanCarry,
    /// One slot per query value: the filter's weighted lower bounds
    /// during the walk, the refine step's weighted differences in a drain.
    diffs: Vec<f64>,
    /// Where a fetched record keeps the query's attributes (refine only).
    locs: Vec<FieldLoc>,
    /// Admitted by the live pool during the walk and not refined yet, in
    /// scan order — entries whose `dist` is the *estimate*. Grown on
    /// demand and reused across drains.
    pending: Vec<PoolEntry>,
    /// A tuple with `est > limit` is skipped: the [`Seed`]'s, `+∞` without
    /// one.
    limit: f64,
}

impl<'a> Lane<'a> {
    /// A lane for `query` under the resolved weights `lambda`, filling
    /// `carry` — under `seed`, the query's on this index if it has one. This is the spine's entry for every shape, so the weight
    /// vector is checked here, once.
    pub(crate) fn open(
        index: &'a IvaIndex,
        query: &'a Query,
        lambda: &'a [f64],
        shared: &'a [SharedAttr<'a>],
        seed: Option<&'a Seed>,
        carry: &'a mut ScanCarry,
    ) -> Result<Self> {
        if lambda.len() != query.len() {
            return Err(IvaError::InvalidArgument(format!(
                "weight vector has {} entries for a {}-attribute query",
                lambda.len(),
                query.len()
            )));
        }
        // A negative weight turns the filter's lower bound into an upper
        // one; a non-finite one poisons every distance.
        if let Some(bad) = lambda.iter().find(|l| !(l.is_finite() && **l >= 0.0)) {
            return Err(IvaError::InvalidArgument(format!(
                "attribute weight {bad} is not a finite number ≥ 0"
            )));
        }
        let seeded = seed.map(|s| s.table.as_slice());
        Ok(Self {
            query,
            lambda,
            bounds: Bounds::open(index, shared, seeded)?,
            carry,
            diffs: vec![0.0; query.len()],
            locs: Vec::with_capacity(query.len()),
            pending: Vec::new(),
            limit: seed.map_or(f64::INFINITY, |s| s.limit),
        })
    }
}

/// Per-thread CPU time one [`IvaIndex::scan`] call spent in each phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseNanos {
    pub(crate) filter: u64,
    pub(crate) refine: u64,
}

impl IvaIndex {
    /// [`IvaIndex::prepare_query`], and a 1-value text query's [`Seed`]
    /// for `carry`'s k where its packed list's dictionary holds strings
    /// (see the module doc), with the CPU nanos both took. The probe needs
    /// k + this index's tombstones counted values: a counted value may
    /// since have been deleted, and RAW tail inserts only add values.
    /// Preparation is filter work — any matcher `matchers` could not lend,
    /// and the probe — so
    /// every execution shape's entry charges it to `filter_nanos` (and
    /// whoever built `matchers` charges their build once).
    pub(crate) fn prepare_query_timed<'a, M: Metric>(
        &'a self,
        query: &Query,
        matchers: &'a QueryMatchers,
        (lambda, metric): (&[f64], &M),
        carry: &mut ScanCarry,
    ) -> Result<(Vec<SharedAttr<'a>>, Option<Seed>, u64)> {
        let (start, k) = (thread_cpu_time(), carry.pool.capacity());
        let shared = self.prepare_query(query, matchers)?;
        let seed = match (query.iter().next(), shared.as_slice(), lambda) {
            (Some((_, QueryValue::Text(q))), [SharedAttr::Text { matcher, entry }], &[lam])
                if entry.encoding == ListEncoding::Packed && k > 0 =>
            {
                let counts = (k as u64, self.n_deleted(), entry.df);
                let mut reader = self.packed_text_reader(entry)?;
                reader.probe(matcher, q.as_bytes(), counts, (lam, metric))?
            }
            _ => None,
        };
        carry.stats.dict_distances += seed.as_ref().map_or(0, |s| s.distances);
        Ok((shared, seed, thread_cpu_time().saturating_sub(start)))
    }

    /// Walk tuple-list positions `range` once for every lane, draining
    /// each lane at `drain_at` pending candidates and at the end of the
    /// range (see the module doc). Lanes must be freshly opened.
    pub(crate) fn scan<M: Metric>(
        &self,
        table: &SwtTable,
        lanes: &mut [Lane<'_>],
        range: Range<u64>,
        drain_at: usize,
        metric: &M,
    ) -> Result<PhaseNanos> {
        let ndf = self.config().ndf_penalty;
        let mut tsrc = self.open_tuple_source()?;
        tsrc.skip_entries(range.start)?;
        for lane in lanes.iter_mut() {
            for a in &mut lane.bounds.attrs {
                a.seek(range.start)?;
            }
        }
        let mut refiner = Refiner {
            table,
            metric,
            ndf,
            buf: RecordBuf::default(),
        };
        // The thread-CPU clock is a real syscall (~0.2 µs), so it is read
        // twice per scan; the scan's CPU time is split between the phases
        // by the share of the (vDSO, ~25 ns) monotonic clock the drains
        // took.
        let mut refine_wall = 0u64;
        let (cpu_start, wall_start) = (thread_cpu_time(), monotonic_nanos());
        let (mut tids, mut ptrs) = (Vec::with_capacity(BLOCK), Vec::with_capacity(BLOCK));
        let mut left = range.end.saturating_sub(range.start);
        while left > 0 {
            tids.clear();
            ptrs.clear();
            tsrc.next_block(block_len(left), &mut tids, &mut ptrs)?;
            left = left.saturating_sub(tids.len() as u64);
            for lane in lanes.iter_mut() {
                lane.carry.stats.tuples_scanned += tids.len() as u64;
                lane.bounds.fill(&tids)?;
                // Admission stays per element, in scan order: a drain
                // inside the block tightens the pool for the rest of it.
                for (i, (&tid, &ptr)) in tids.iter().zip(&ptrs).enumerate() {
                    if ptr == TOMBSTONE_PTR {
                        continue;
                    }
                    let exact = lane.bounds.weigh(i, lane.lambda, ndf, &mut lane.diffs);
                    let est = metric.combine(&lane.diffs);
                    if est > lane.limit {
                        continue;
                    }
                    let (tid, dist, ptr) = (u64::from(tid), est, RecordPtr(ptr));
                    let ScanCarry { pool, stats } = &mut *lane.carry;
                    if exact {
                        stats.walk_admits += u64::from(pool.insert_at(tid, dist, ptr));
                    } else if pool.admits_at(est, tid) {
                        lane.pending.push(PoolEntry { tid, dist, ptr });
                        if lane.pending.len() >= drain_at {
                            refine_wall += refiner.drain(lane)?;
                        }
                    }
                }
            }
        }
        for lane in lanes.iter_mut() {
            refine_wall += refiner.drain(lane)?;
        }
        let cpu = thread_cpu_time().saturating_sub(cpu_start);
        let wall = monotonic_nanos().saturating_sub(wall_start).max(1);
        let refine = (u128::from(cpu) * u128::from(refine_wall) / u128::from(wall)) as u64;
        let refine = refine.min(cpu);
        Ok(PhaseNanos {
            filter: cpu - refine,
            refine,
        })
    }

    /// The serial shape: one lane over the whole tuple list on the carried
    /// pool. `lambda` is the resolved per-query-attribute weight vector; a
    /// segmented store resolves it once, globally, so every tier admits
    /// under the one λ its distances are computed with — and builds the
    /// query's `matchers` once, too.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_serial<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        matchers: &QueryMatchers,
        metric: &M,
        lambda: &[f64],
        drain_at: usize,
        carry: &mut ScanCarry,
    ) -> Result<()> {
        let (shared, seed, prepare_nanos) =
            self.prepare_query_timed(query, matchers, (lambda, metric), carry)?;
        let mut lanes = [Lane::open(
            self,
            query,
            lambda,
            &shared,
            seed.as_ref(),
            carry,
        )?];
        let nanos = self.scan(table, &mut lanes, 0..self.n_tuples(), drain_at, metric)?;
        carry.stats.filter_nanos += prepare_nanos + nanos.filter;
        carry.stats.refine_nanos += nanos.refine;
        self.list_bytes_into(&shared, &mut carry.stats);
        Ok(())
    }
}

/// The refine step of one [`IvaIndex::scan`] call: what every drain
/// needs besides the lane, and the record buffer reused across fetches.
struct Refiner<'a, M> {
    table: &'a SwtTable,
    metric: &'a M,
    ndf: f64,
    buf: RecordBuf,
}

impl<M: Metric> Refiner<'_, M> {
    /// Drain `lane.pending`: probe the k smallest `(est, tid)`, then sweep
    /// the rest, both in scan order (see the module doc). Returns the
    /// monotonic-clock nanos it took.
    fn drain(&mut self, lane: &mut Lane<'_>) -> Result<u64> {
        if lane.pending.is_empty() {
            return Ok(0);
        }
        let start = monotonic_nanos();
        let pending = std::mem::take(&mut lane.pending);
        // Bounded-heap selection: a pool keyed by estimate keeps exactly
        // the probe set, and its worst entry is the cut between probe and
        // sweep. With k or fewer candidates the probe is everything.
        let mut best = ResultPool::new(lane.carry.pool.capacity());
        for c in &pending {
            best.insert_at(c.tid, c.dist, c.ptr);
        }
        let cut = best.worst().copied();
        let mut probe = best.into_sorted();
        probe.sort_unstable_by_key(|c| c.tid); // back into table order
        self.pass(lane, probe.into_iter(), None)?;
        if cut.is_some() {
            self.pass(lane, pending.iter().copied(), cut)?;
        }
        lane.pending = pending;
        lane.pending.clear();
        Ok(monotonic_nanos().saturating_sub(start))
    }

    /// Algorithm 1's refine step over `cands` (`dist` holds the estimate):
    /// every candidate the lane's pool still admits — and that lies above
    /// `cut`, if the probe already took everything at or below it — is
    /// fetched, read in place and offered to the pool at its distance.
    fn pass(
        &mut self,
        lane: &mut Lane<'_>,
        cands: impl Iterator<Item = PoolEntry>,
        cut: Option<PoolEntry>,
    ) -> Result<()> {
        let ScanCarry { pool, stats } = &mut *lane.carry;
        for c in cands {
            if !pool.admits_at(c.dist, c.tid) || cut.is_some_and(|cut| c <= cut) {
                continue;
            }
            let rec = self.table.read(c.ptr, &mut self.buf)?;
            stats.table_accesses += 1;
            let actual = bounded_distance(
                &rec.view,
                lane.query,
                lane.lambda,
                self.metric,
                self.ndf,
                pool.refine_cap(c.tid),
                &mut lane.diffs,
                &mut lane.locs,
            )?;
            pool.insert_at(c.tid, actual, c.ptr);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, IndexTarget};
    use crate::config::IvaConfig;
    use crate::metric::MetricKind;
    use crate::parallel::QueryOptions;
    use iva_storage::{IoStats, PagerOptions};
    use iva_swt::{AttrId, Tuple, Value};

    /// The scan reads the CPU clock twice and apportions it by the
    /// drains' monotonic share: both phases are charged, and together they
    /// are the scan's CPU time.
    #[test]
    fn phase_nanos_split_one_cpu_reading() {
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 64 * 1024,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let name = table.define_text("name").unwrap();
        for i in 0..2_000u32 {
            let tup = Tuple::new().with(name, Value::text(format!("item number {i}")));
            table.insert(&tup).unwrap();
        }
        let cfg = IvaConfig::default();
        let index = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), cfg).unwrap();
        let q = Query::new().text(AttrId(0), "item number 77");
        let matchers = index.query_matchers(&q);
        let shared = index.prepare_query(&q, &matchers).unwrap();
        let mut carry = ScanCarry::new(10);
        let mut lanes = [Lane::open(&index, &q, &[1.0], &shared, None, &mut carry).unwrap()];
        let before = crate::timing::thread_cpu_time();
        let nanos = index
            .scan(
                &table,
                &mut lanes,
                0..index.n_tuples(),
                DRAIN_AT,
                &MetricKind::L2,
            )
            .unwrap();
        let spent = crate::timing::thread_cpu_time() - before;
        assert!(nanos.filter > 0 && nanos.refine > 0, "{nanos:?}");
        assert!(nanos.filter + nanos.refine <= spent, "{nanos:?} > {spent}");
    }

    /// A weight vector shorter than the query used to be zipped away
    /// silently by the parallel shape; every shape now rejects it.
    #[test]
    fn short_weight_vector_is_rejected_by_every_shape() {
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 64 * 1024,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let name = table.define_text("name").unwrap();
        let price = table.define_numeric("price").unwrap();
        for i in 0..200u32 {
            let tup = Tuple::new()
                .with(name, Value::text(format!("item {i}")))
                .with(price, Value::num(f64::from(i)));
            table.insert(&tup).unwrap();
        }
        let cfg = IvaConfig::default();
        let index = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), cfg).unwrap();
        let q = Query::new().text(AttrId(0), "item 7").num(AttrId(1), 7.0);
        let (good, short) = ([1.0, 1.0], [1.0]);
        let matchers = index.query_matchers(&q);
        let rejected = |r: Result<()>| matches!(r, Err(IvaError::InvalidArgument(_)));

        // Serial and 2-thread segmented-parallel.
        for threads in [1usize, 2] {
            let o = QueryOptions {
                threads: Some(threads),
            };
            let mut carry = ScanCarry::new(3);
            let m = &matchers;
            let r = index.query_carry_opts(&table, &q, m, &MetricKind::L2, &short, &o, &mut carry);
            assert!(rejected(r), "threads={threads}");
            index
                .query_carry_opts(&table, &q, m, &MetricKind::L2, &good, &o, &mut carry)
                .unwrap();
        }
        // Batch of two: one well-formed lane does not excuse the other.
        let shared = index.prepare_query(&q, &matchers).unwrap();
        let (mut a, mut b) = (ScanCarry::new(3), ScanCarry::new(3));
        assert!(Lane::open(&index, &q, &good, &shared, None, &mut a).is_ok());
        let second = Lane::open(&index, &q, &short, &shared, None, &mut b);
        assert!(rejected(second.map(|_| ())));
        // A weight that is not a number poisons every distance, and a
        // negative one voids the lower bound: rejected at the same door.
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let weights = [1.0, bad];
            let third = Lane::open(&index, &q, &weights, &shared, None, &mut b);
            assert!(rejected(third.map(|_| ())), "{bad}");
        }
    }
}
