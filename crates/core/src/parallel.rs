//! lint:scope(panic-reachability)
//! Intra-query parallel filtering: the scan spine fanned out over
//! tuple-list segments.
//!
//! The tuple list is split into `t` contiguous segments; each worker runs
//! [`IvaIndex::scan`] over its segment with one lane on a *private* top-k
//! pool, and the merge step is a **pool union**: every worker's final
//! entries are inserted into the carried pool. By the spine's
//! order-independence lemma (see [`crate::scan`]) a worker's pool holds
//! the k smallest `(dist, tid)` of its segment, each at its exact
//! distance, and the k smallest of the whole list are among those — so
//! the merged top-k is bit-identical to [`IvaIndex::query`]'s, for any
//! thread count.
//!
//! A worker's pool starts empty, so it fetches what *its segment's* top-k
//! needs, which is more than the serial scan fetches there:
//! [`crate::QueryStats::table_accesses`] sums the workers' fetches and
//! grows with the thread count — the price paid for segment parallelism.
//! Refinement rides inside the workers (a fetch happens once, where the
//! candidate is found), so the table file's [`iva_storage::IoStats`]
//! counts each physical access exactly once.

use iva_swt::SwtTable;

use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::index::{IvaIndex, QueryMatchers, QueryOutcome, ScanCarry};
use crate::metric::{Metric, WeightScheme};
use crate::query::Query;
use crate::scan::{Lane, PhaseNanos, DRAIN_AT};
use crate::timing::thread_cpu_time;

/// Smallest tuple-list segment worth a worker thread; requests for more
/// parallelism than `⌈n/64⌉` are clamped.
const MIN_SEGMENT: u64 = 64;

/// Execution knobs for [`IvaIndex::query_opts`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryOptions {
    /// Worker threads for the filter scan. `None` defers to
    /// [`crate::IvaConfig::search_threads`], and `Some(0)` means what `0`
    /// means there: one per available CPU. An effective count of 1 runs
    /// the scan on the calling thread; any count returns bit-identical
    /// results.
    pub threads: Option<usize>,
}

/// What one worker brings to the merge barrier.
struct SegmentScan {
    /// The worker lane's private pool (its segment's top-k) and counters.
    carry: ScanCarry,
    nanos: PhaseNanos,
}

impl IvaIndex {
    /// [`IvaIndex::query`] with explicit execution options: the filter
    /// scan runs on `threads` segments in parallel, the merged result is
    /// bit-identical to the serial scan.
    ///
    /// Counter stats sum across workers; phase timings take the slowest
    /// worker — measured in per-thread CPU time, so the max is the phase's
    /// critical path even when workers outnumber cores — with the merge
    /// counted as filter time.
    pub fn query_opts<M: Metric + Sync>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome> {
        let lambda = self.resolve_weights(query, weights);
        let matchers = self.query_matchers(query);
        let mut carry = ScanCarry::new(k);
        carry.stats.filter_nanos += matchers.build_nanos();
        self.query_carry_opts(table, query, &matchers, metric, &lambda, opts, &mut carry)?;
        Ok(carry.finish())
    }

    /// [`IvaIndex::query_opts`] threading the candidate pool and counters
    /// through `carry` — the segmented engine's building block (one call
    /// per tier, in tid order). Workers scan with private (initially
    /// empty) pools and the merge unions them into the carried pool, so
    /// the concatenated multi-tier scan stays bit-identical to a serial
    /// carried scan. Like `lambda`, the query's `matchers` are built once
    /// for every tier, and their build is the caller's to charge.
    #[allow(clippy::too_many_arguments)]
    pub fn query_carry_opts<M: Metric + Sync>(
        &self,
        table: &SwtTable,
        query: &Query,
        matchers: &QueryMatchers,
        metric: &M,
        lambda: &[f64],
        opts: &QueryOptions,
        carry: &mut ScanCarry,
    ) -> Result<()> {
        self.query_carry_windowed(
            table, query, matchers, metric, lambda, opts, DRAIN_AT, carry,
        )
    }

    /// [`IvaIndex::query_carry_opts`] with the spine's drain window as an
    /// argument. Test hook: the window is not an option — every engine
    /// runs the one crate-private constant — but the suites shrink it to
    /// put window boundaries inside small tables.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn query_carry_windowed<M: Metric + Sync>(
        &self,
        table: &SwtTable,
        query: &Query,
        matchers: &QueryMatchers,
        metric: &M,
        lambda: &[f64],
        opts: &QueryOptions,
        drain_at: usize,
        carry: &mut ScanCarry,
    ) -> Result<()> {
        let n = self.n_tuples();
        // A request's `0` means what the configured `0` means.
        let requested = IvaConfig {
            search_threads: opts.threads.unwrap_or(self.config().search_threads),
            ..*self.config()
        }
        .resolved_search_threads();
        let max_useful = usize::try_from(n.div_ceil(MIN_SEGMENT)).unwrap_or(usize::MAX);
        let threads = requested.min(max_useful).max(1);
        if threads == 1 {
            return self.scan_serial(table, query, matchers, metric, lambda, drain_at, carry);
        }

        let k = carry.pool.capacity();
        // One prepared table per query — the packed-mask kernels, numeric
        // codecs and the seed before the walk are immutable and shared
        // by every worker below; workers only open private scan positions.
        // The seed is the whole index's, so its limit bounds every segment.
        let (shared, seed, prepare_nanos) =
            self.prepare_query_timed(query, matchers, (lambda, metric), carry)?;
        let t = threads as u64;
        let bounds: Vec<(u64, u64)> = (0..t).map(|i| (i * n / t, (i + 1) * n / t)).collect();

        let mut slots: Vec<Option<Result<SegmentScan>>> = Vec::new();
        slots.resize_with(bounds.len(), || None);
        crossbeam::thread::scope(|s| {
            for (&(lo, hi), slot) in bounds.iter().zip(slots.iter_mut()) {
                let (shared, seed) = (&shared, seed.as_ref());
                s.spawn(move |_| {
                    // One lane over `[lo, hi)` on a private pool.
                    let mut worker = ScanCarry::new(k);
                    let lane = Lane::open(self, query, lambda, shared, seed, &mut worker);
                    let run = lane.and_then(|lane| {
                        let lanes = &mut [lane];
                        self.scan(table, lanes, lo..hi, drain_at, metric)
                    });
                    *slot = Some(run.map(|nanos| SegmentScan {
                        carry: worker,
                        nanos,
                    }));
                });
            }
        })
        .map_err(|_| IvaError::Corrupt("filter worker panicked".into()))?;

        // Merge barrier: union the workers' pools into the carried pool
        // (see the module doc for why this is the serial answer).
        let merge_start = thread_cpu_time();
        let ScanCarry { pool, stats } = carry;
        // The coordinator prepares before the workers start and merges
        // after they finish: both sit on the filter critical path.
        let mut max_filter = 0u64;
        let mut max_refine = 0u64;
        for slot in slots {
            let seg = slot.ok_or_else(|| IvaError::Corrupt("worker slot unfilled".into()))??;
            stats.tuples_scanned += seg.carry.stats.tuples_scanned;
            stats.table_accesses += seg.carry.stats.table_accesses;
            stats.walk_admits += seg.carry.stats.walk_admits;
            max_filter = max_filter.max(seg.nanos.filter);
            max_refine = max_refine.max(seg.nanos.refine);
            pool.absorb(seg.carry.pool);
        }
        max_filter += thread_cpu_time().saturating_sub(merge_start);
        stats.filter_nanos += prepare_nanos + max_filter;
        stats.refine_nanos += max_refine;
        // List bytes once for the merged plan — the workers scanned the
        // same prepared attributes, so per-worker accounting would
        // multiply them by the thread count.
        self.list_bytes_into(&shared, stats);
        Ok(())
    }
}
