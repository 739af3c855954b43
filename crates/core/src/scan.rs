//! lint:scope(no-panic-decode)
//! The scan spine: the one walk of Algorithm 1 (Sec. IV-A) and the one
//! fetch-and-replay round every execution shape runs.
//!
//! [`IvaIndex::scan`] walks tuple-list positions `[lo, hi)` once, in step
//! with the vector lists of every [`Lane`] riding it. A lane is one query:
//! its per-attribute [`AttrScan`] positions, its top-k pool and counters
//! (a [`ScanCarry`]), and the candidates its pool admitted at scan time
//! but has not fetched yet. Once the lanes together hold `refine_batch`
//! pending candidates, one page-coalesced [`SwtTable::fetch`] pins them
//! all and each lane's admission test is replayed in scan order, the
//! distance of every admitted candidate computed from the record's bytes
//! in the pinned page ([`bounded_distance`], cut off at the pool's
//! threshold — see "Refine on bytes" below).
//!
//! **Replay lemma.** A lane's scan-time test runs against a pool that is
//! missing, at most, the inserts of its own still-pending candidates — a
//! threshold never tighter than the one-at-a-time scan's at the same
//! position — so `pending` is a superset of what that scan fetches.
//! Replaying the exact test in scan order against the now-current pool
//! admits, by induction, exactly the one-at-a-time scan's candidates with
//! exactly its pool after each; rejects are surplus fetches, counted in
//! [`crate::QueryStats::speculative_accesses`]. The argument never uses
//! *when* a flush happens, so it holds for every `refine_batch` (at 1 the
//! replay is trivially true) and for flush schedules driven by other
//! lanes.
//!
//! **Refine on bytes.** The replay hands [`bounded_distance`] the pool's
//! [`threshold`](crate::ResultPool::threshold) and gets back the exact
//! distance if that is below it and otherwise *some* value at or above
//! it. `insert_at` admits on strict `<`, so the pool cannot tell the
//! difference: every pool, threshold, admission and counter is what the
//! full distance would have produced. That is immediate for a lane's own
//! pool and for a pool carried across LSM tiers (the same pool); for the
//! candidate log a segmented-parallel worker hands to the merge it needs
//! one more step — the merged pool is never looser than the worker's was
//! — argued once, next to the replay lemma, in DESIGN.md §15.
//!
//! The three execution shapes are arguments of the one function:
//!
//! * **serial** — one lane over `0..n` on the caller's carried pool
//!   ([`IvaIndex::scan_serial`]);
//! * **segmented-parallel** — per worker, one lane over its `[lo, hi)` on
//!   a private pool with the candidate log on; [`crate::parallel`] fans
//!   out and applies the lemma once more to merge the logs;
//! * **batch** — N lanes over `0..n` sharing the tuple-list read and the
//!   fetch rounds ([`IvaIndex::query_batch`]).

use std::ops::Range;
use std::sync::Arc;

use iva_storage::ListReader;
use iva_swt::{FieldLoc, RecordFetch, RecordPtr, RecordRef, SwtTable};
use iva_text::{PreparedMatcher, SigCodec};

use crate::error::{IvaError, Result};
use crate::index::{IvaIndex, ScanCarry, SharedAttr};
use crate::layout::{AttrEntry, ListEncoding, TOMBSTONE_PTR};
use crate::metric::Metric;
use crate::numeric::NumericCodec;
use crate::packed::PackedReader;
use crate::query::{bounded_distance, Query};
use crate::tier::NumColumn;
use crate::timing::{monotonic_nanos, thread_cpu_time};
use crate::veclist::{NumListCursor, TextListCursor};

/// One worker's scan position over one query attribute: borrows the
/// immutable per-query state ([`SharedAttr`]) and owns the position.
pub(crate) enum AttrScan<'a> {
    Text {
        cur: TextListCursor,
        codec: &'a SigCodec,
        matcher: &'a PreparedMatcher,
    },
    Num {
        cur: NumListCursor,
        codec: &'a NumericCodec,
        q: f64,
    },
    /// Hot tier: prefolded per-position lower bounds (`NaN` = *ndf*).
    TextHot { pos_lb: &'a [f64], pos: usize },
    /// Hot tier: positionalized codes.
    NumHot {
        col: &'a NumColumn,
        codec: &'a NumericCodec,
        q: f64,
        pos: usize,
    },
    /// No tuple in the index defines the attribute.
    AlwaysNdf,
}

impl<'a> AttrScan<'a> {
    /// Open at the head of the attribute's list (or column).
    fn open(index: &'a IvaIndex, sa: &'a SharedAttr<'a>) -> Result<Self> {
        let reader = |e: &AttrEntry| ListReader::open(Arc::clone(index.pager_ref()), e.vlist);
        Ok(match sa {
            SharedAttr::Text { matcher, entry } => {
                let (codec, ty) = (index.sig_codec(), entry.list_type);
                let cur = match entry.encoding {
                    ListEncoding::Raw => TextListCursor::new(reader(entry)?, ty),
                    ListEncoding::Packed => TextListCursor::new_packed(
                        PackedReader::new_text(reader(entry)?, ty, codec)?,
                        ty,
                    ),
                };
                AttrScan::Text {
                    cur,
                    codec,
                    matcher,
                }
            }
            SharedAttr::Num { q, codec, entry } => {
                let ty = entry.list_type;
                let cur = match entry.encoding {
                    ListEncoding::Raw => NumListCursor::new(reader(entry)?, ty),
                    ListEncoding::Packed => NumListCursor::new_packed(
                        PackedReader::new_num(reader(entry)?, ty, codec)?,
                        ty,
                    ),
                };
                AttrScan::Num { cur, codec, q: *q }
            }
            SharedAttr::TextHot { pos_lb, .. } => AttrScan::TextHot { pos_lb, pos: 0 },
            SharedAttr::NumHot { q, codec, col, .. } => AttrScan::NumHot {
                col,
                codec,
                q: *q,
                pos: 0,
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
            AttrScan::TextHot { pos, .. } | AttrScan::NumHot { pos, .. } => {
                *pos = n as usize;
                Ok(())
            }
            AttrScan::AlwaysNdf => Ok(()),
        }
    }

    /// Move past a tombstoned tuple without estimating.
    fn skip(&mut self, tid: u32) -> Result<()> {
        match self {
            AttrScan::Text { cur, codec, .. } => cur.skip(tid, codec),
            AttrScan::Num { cur, codec, .. } => cur.skip(tid, codec),
            AttrScan::TextHot { pos, .. } | AttrScan::NumHot { pos, .. } => {
                *pos += 1;
                Ok(())
            }
            AttrScan::AlwaysNdf => Ok(()),
        }
    }

    /// Move to `tid` and lower-bound its difference to the query value
    /// (`None` = *ndf*). Once per live tuple-list element, in tid order.
    #[inline]
    fn lower_bound(&mut self, tid: u32) -> Result<Option<f64>> {
        match self {
            AttrScan::Text {
                cur,
                codec,
                matcher,
            } => cur.advance(tid, codec, matcher),
            AttrScan::Num { cur, codec, q } => Ok(cur
                .advance(tid, codec)?
                .map(|code| codec.lower_bound_dist(code, *q))),
            AttrScan::TextHot { pos_lb, pos } => {
                let lb = pos_lb.get(*pos).copied().filter(|v| !v.is_nan());
                *pos += 1;
                Ok(lb)
            }
            AttrScan::NumHot { col, codec, q, pos } => {
                let lb = col
                    .code_at(*pos)
                    .map(|code| codec.lower_bound_dist(code, *q));
                *pos += 1;
                Ok(lb)
            }
            AttrScan::AlwaysNdf => Ok(None),
        }
    }
}

/// Open one scan per query attribute, each at the head of its list.
pub(crate) fn open_attr_scans<'a>(
    index: &'a IvaIndex,
    shared: &'a [SharedAttr<'a>],
) -> Result<Vec<AttrScan<'a>>> {
    shared.iter().map(|sa| AttrScan::open(index, sa)).collect()
}

/// Advance every scan past a tombstoned tuple.
pub(crate) fn skip_all(attrs: &mut [AttrScan<'_>], tid: u32) -> Result<()> {
    attrs.iter_mut().try_for_each(|a| a.skip(tid))
}

/// Fill `diffs` with the weighted per-attribute lower bounds for `tid`;
/// returns true if any query attribute is defined on the tuple. Callers
/// guarantee `lambda`, `diffs` and `attrs` have the query's length.
#[inline]
pub(crate) fn weighted_bounds(
    attrs: &mut [AttrScan<'_>],
    tid: u32,
    lambda: &[f64],
    ndf_penalty: f64,
    diffs: &mut [f64],
) -> Result<bool> {
    let mut any_defined = false;
    for (a, (d, &lam)) in attrs.iter_mut().zip(diffs.iter_mut().zip(lambda)) {
        let lb = a.lower_bound(tid)?;
        any_defined |= lb.is_some();
        *d = lam * lb.unwrap_or(ndf_penalty);
    }
    Ok(any_defined)
}

/// One candidate a lane fetched and admitted, in scan order — the input
/// of the segmented-parallel merge replay.
pub(crate) struct Candidate {
    pub(crate) tid: u64,
    pub(crate) ptr: u64,
    pub(crate) est: f64,
    /// The lane's [`bounded_distance`]: exact if below the lane's pool
    /// threshold at the time, otherwise only known to be at or above it.
    pub(crate) actual: f64,
}

/// One query riding a scan.
pub(crate) struct Lane<'a> {
    query: &'a Query,
    lambda: &'a [f64],
    attrs: Vec<AttrScan<'a>>,
    carry: &'a mut ScanCarry,
    /// One slot per query value: the filter's weighted lower bounds
    /// during the walk, the refine step's weighted differences in a flush.
    diffs: Vec<f64>,
    /// Where a fetched record keeps the query's attributes (refine only).
    locs: Vec<FieldLoc>,
    /// Admitted at scan time, not yet fetched: `(ptr, est)` in scan order.
    pending: Vec<(u64, f64)>,
    /// Every candidate the flush replay admitted, if asked for.
    log: Option<Vec<Candidate>>,
}

impl<'a> Lane<'a> {
    /// A lane for `query` under the resolved weights `lambda`, filling
    /// `carry`. This is the spine's entry for every shape, so the weight
    /// vector is checked here, once.
    pub(crate) fn open(
        index: &'a IvaIndex,
        query: &'a Query,
        lambda: &'a [f64],
        shared: &'a [SharedAttr<'a>],
        carry: &'a mut ScanCarry,
        log_candidates: bool,
    ) -> Result<Self> {
        if lambda.len() != query.len() {
            return Err(IvaError::InvalidArgument(format!(
                "weight vector has {} entries for a {}-attribute query",
                lambda.len(),
                query.len()
            )));
        }
        Ok(Self {
            query,
            lambda,
            attrs: open_attr_scans(index, shared)?,
            carry,
            diffs: vec![0.0; query.len()],
            locs: Vec::with_capacity(query.len()),
            pending: Vec::new(),
            log: log_candidates.then(Vec::new),
        })
    }

    /// The candidate log (empty unless the lane was opened with it on).
    pub(crate) fn into_log(self) -> Vec<Candidate> {
        self.log.unwrap_or_default()
    }
}

/// Per-thread CPU time one [`IvaIndex::scan`] call spent in each phase;
/// zero when unmeasured.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PhaseNanos {
    pub(crate) filter: u64,
    pub(crate) refine: u64,
}

impl IvaIndex {
    /// [`IvaIndex::prepare_query`] with the CPU nanos it took (0 if
    /// unmeasured). Preparation is filter work — the matcher build and, on
    /// the hot tier, the whole block-estimate prefold — so every
    /// execution shape's entry charges it to `filter_nanos`.
    pub(crate) fn prepare_query_timed(
        &self,
        query: &Query,
        measured: bool,
    ) -> Result<(Vec<SharedAttr<'_>>, u64)> {
        let start = measured.then(thread_cpu_time);
        let shared = self.prepare_query(query)?;
        Ok((
            shared,
            start.map_or(0, |t| thread_cpu_time().saturating_sub(t)),
        ))
    }

    /// Walk tuple-list positions `range` once for every lane (see the
    /// module doc). Lanes must be freshly opened. With `measured` false no
    /// clock is read.
    pub(crate) fn scan<M: Metric>(
        &self,
        table: &SwtTable,
        lanes: &mut [Lane<'_>],
        range: Range<u64>,
        refine_batch: usize,
        metric: &M,
        measured: bool,
    ) -> Result<PhaseNanos> {
        let ndf = self.config().ndf_penalty;
        let mut tsrc = self.open_tuple_source()?;
        tsrc.skip_entries(range.start)?;
        for lane in lanes.iter_mut() {
            for a in &mut lane.attrs {
                a.seek(range.start)?;
            }
        }
        let batch = refine_batch.max(1);
        // Fetch buffers, reused across flushes.
        let mut ptrs: Vec<RecordPtr> = Vec::new();
        let mut scratch: Vec<u8> = Vec::new();
        let mut n_pending = 0usize;
        // The thread-CPU clock is a real syscall (~0.2 µs), so it is read
        // twice per scan, not twice per flush; the scan's CPU time is
        // split between the phases by the share of the (vDSO, ~25 ns)
        // monotonic clock each flush took.
        let mut refine_wall = 0u64;
        let start = measured.then(|| (thread_cpu_time(), monotonic_nanos()));
        for _ in range {
            let (tid, ptr) = tsrc.next_entry()?;
            for lane in lanes.iter_mut() {
                lane.carry.stats.tuples_scanned += 1;
                if ptr == TOMBSTONE_PTR {
                    skip_all(&mut lane.attrs, tid)?;
                    continue;
                }
                weighted_bounds(&mut lane.attrs, tid, lane.lambda, ndf, &mut lane.diffs)?;
                let est = metric.combine(&lane.diffs);
                if lane.carry.pool.admits(est) {
                    lane.pending.push((ptr, est));
                    n_pending += 1;
                }
            }
            if n_pending >= batch {
                refine_wall += flush(table, lanes, metric, ndf, &mut ptrs, &mut scratch, measured)?;
                n_pending = 0;
            }
        }
        if n_pending > 0 {
            refine_wall += flush(table, lanes, metric, ndf, &mut ptrs, &mut scratch, measured)?;
        }
        Ok(match start {
            Some((cpu_start, wall_start)) => {
                let cpu = thread_cpu_time().saturating_sub(cpu_start);
                let wall = monotonic_nanos().saturating_sub(wall_start).max(1);
                let refine = (u128::from(cpu) * u128::from(refine_wall) / u128::from(wall)) as u64;
                let refine = refine.min(cpu);
                PhaseNanos {
                    filter: cpu - refine,
                    refine,
                }
            }
            None => PhaseNanos::default(),
        })
    }

    /// The serial shape: one lane over the whole tuple list on the carried
    /// pool. `lambda` is the resolved per-query-attribute weight vector; a
    /// segmented store resolves it once, globally, so every tier admits
    /// with the weights a monolithic index would use.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_serial<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        metric: &M,
        lambda: &[f64],
        measured: bool,
        refine_batch: usize,
        carry: &mut ScanCarry,
    ) -> Result<()> {
        let (shared, prepare_nanos) = self.prepare_query_timed(query, measured)?;
        let mut lanes = [Lane::open(self, query, lambda, &shared, carry, false)?];
        let nanos = self.scan(
            table,
            &mut lanes,
            0..self.n_tuples(),
            refine_batch,
            metric,
            measured,
        )?;
        carry.stats.filter_nanos += prepare_nanos + nanos.filter;
        carry.stats.refine_nanos += nanos.refine;
        self.tier_stats_into(&shared, &mut carry.stats);
        Ok(())
    }
}

/// The next record of a fetch whose caller walks its own request list in
/// step and so knows there is one.
pub(crate) fn next_fetched<'f>(fetch: &'f mut RecordFetch<'_>) -> Result<RecordRef<'f>> {
    fetch
        .next_record()?
        .ok_or_else(|| IvaError::Corrupt("batch fetch shorter than request".into()))
}

/// The one fetch-and-replay round: pin every lane's pending candidates as
/// a single page-ordered, coalesced batch, then replay each lane's
/// admission test in scan order against its now-current pool (the module
/// doc's replay lemma), reading each admitted record in place. Returns
/// the monotonic-clock nanos it took (0 if unmeasured).
fn flush<M: Metric>(
    table: &SwtTable,
    lanes: &mut [Lane<'_>],
    metric: &M,
    ndf: f64,
    ptrs: &mut Vec<RecordPtr>,
    scratch: &mut Vec<u8>,
    measured: bool,
) -> Result<u64> {
    let start = measured.then(monotonic_nanos);
    ptrs.clear();
    for lane in lanes.iter() {
        ptrs.extend(lane.pending.iter().map(|&(p, _)| RecordPtr(p)));
    }
    let mut fetch = table.fetch(ptrs, scratch)?;
    for lane in lanes.iter_mut() {
        let ScanCarry { pool, stats } = &mut *lane.carry;
        for &(ptr, est) in &lane.pending {
            let rec = next_fetched(&mut fetch)?;
            if pool.admits(est) {
                stats.table_accesses += 1;
                let actual = bounded_distance(
                    &rec.view,
                    lane.query,
                    lane.lambda,
                    metric,
                    ndf,
                    pool.threshold(),
                    &mut lane.diffs,
                    &mut lane.locs,
                )?;
                pool.insert_at(rec.tid, actual, RecordPtr(ptr));
                if let Some(log) = &mut lane.log {
                    log.push(Candidate {
                        tid: rec.tid,
                        ptr,
                        est,
                        actual,
                    });
                }
            } else {
                stats.speculative_accesses += 1;
            }
        }
        lane.pending.clear();
    }
    Ok(start.map_or(0, |t| monotonic_nanos().saturating_sub(t)))
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

    /// The scan reads the CPU clock twice and apportions it by each
    /// flush's monotonic share: both phases are charged, and together they
    /// are the scan's CPU time, at every batch size — and an unmeasured
    /// scan reads no clock at all.
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
        let shared = index.prepare_query(&q).unwrap();
        for batch in [1usize, 64] {
            for measured in [true, false] {
                let mut carry = ScanCarry::new(10);
                let mut lanes =
                    [Lane::open(&index, &q, &[1.0], &shared, &mut carry, false).unwrap()];
                let before = crate::timing::thread_cpu_time();
                let nanos = index
                    .scan(
                        &table,
                        &mut lanes,
                        0..index.n_tuples(),
                        batch,
                        &MetricKind::L2,
                        measured,
                    )
                    .unwrap();
                let spent = crate::timing::thread_cpu_time() - before;
                if measured {
                    assert!(nanos.filter > 0 && nanos.refine > 0, "B={batch}: {nanos:?}");
                    assert!(
                        nanos.filter + nanos.refine <= spent,
                        "B={batch}: {nanos:?} > {spent}"
                    );
                } else {
                    assert_eq!((nanos.filter, nanos.refine), (0, 0), "B={batch}");
                }
            }
        }
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
        let rejected = |r: Result<()>| matches!(r, Err(IvaError::InvalidArgument(_)));

        // Serial and 2-thread segmented-parallel.
        for threads in [1usize, 2] {
            let o = QueryOptions {
                threads: Some(threads),
                ..Default::default()
            };
            let mut carry = ScanCarry::new(3);
            let r = index.query_carry_opts(&table, &q, &MetricKind::L2, &short, &o, &mut carry);
            assert!(rejected(r), "threads={threads}");
            index
                .query_carry_opts(&table, &q, &MetricKind::L2, &good, &o, &mut carry)
                .unwrap();
        }
        // Batch of two: one well-formed lane does not excuse the other.
        let shared = index.prepare_query(&q).unwrap();
        let (mut a, mut b) = (ScanCarry::new(3), ScanCarry::new(3));
        assert!(Lane::open(&index, &q, &good, &shared, &mut a, false).is_ok());
        let second = Lane::open(&index, &q, &short, &shared, &mut b, false);
        assert!(rejected(second.map(|_| ())));
    }
}
