//! lint:scope(panic-reachability)
//! The *sequential* filter-and-refine plan — the VA-file's strategy that
//! Sec. IV-A argues cannot work for sparse wide tables.
//!
//! "The existing process proposed in the VA-file is to scan the whole
//! VA-file to get a set of candidate tuples, and check them all in the
//! data file afterwards (sequential plan). This plan requires the
//! approximation vector to be able to provide not only a lower bound ...
//! but also a meaningful upper bound. Otherwise, the filtering step fails
//! as all tuples are in the candidate set. However, a limited length
//! vector cannot indicate any upper bound for unlimited-and-variable
//! length strings."
//!
//! We implement the plan anyway — with the only upper bound available, the
//! per-attribute worst case (the ndf penalty has no a-priori cap, so we
//! use the conservative `ndf_penalty`-everywhere bound the metric allows) —
//! so the failure mode is *measurable*: the candidate set balloons
//! relative to Algorithm 1's interleaved plan. See the
//! `ablation_query_plans` bench.

use std::collections::BTreeSet;

use iva_swt::{RecordBuf, RecordPtr, SwtTable, Tid};

use crate::error::Result;
use crate::index::{IvaIndex, QueryOutcome, SharedAttr};
use crate::layout::TOMBSTONE_PTR;
use crate::metric::{Metric, WeightScheme};
use crate::pool::ResultPool;
use crate::query::{bounded_distance, Query, QueryStats};
use crate::scan::{block_len, Bounds};
use crate::timing::thread_cpu_time;

/// One live tuple as phase 1 saw it: `(tid, ptr, lower bound, whether the
/// bound is its distance — every query attribute *ndf*)`.
type Scanned = (u64, u64, f64, bool);

impl IvaIndex {
    /// Phase 1 of the sequential plan: a full index scan collecting every
    /// tuple's lower bound that `deleted` (the table's tombstone set) does
    /// not hold, through the same per-attribute scan positions the
    /// interleaved spine reads.
    fn collect_lower_bounds<M: Metric>(
        &self,
        shared: &[SharedAttr<'_>],
        lambda: &[f64],
        metric: &M,
        deleted: &BTreeSet<Tid>,
    ) -> Result<Vec<Scanned>> {
        let ndf = self.config().ndf_penalty;
        let mut bounds = Bounds::open(self, shared, None)?;
        let mut tsrc = self.open_tuple_source(deleted)?;
        let (mut tids, mut ptrs, mut scanned) = (Vec::new(), Vec::new(), Vec::new());
        let mut left = self.n_tuples();
        while left > 0 {
            tids.clear();
            ptrs.clear();
            tsrc.next_block(block_len(left), &mut tids, &mut ptrs)?;
            bounds.fill(self.n_tuples() - left, &tids)?;
            bounds.weigh(lambda, ndf, metric);
            left = left.saturating_sub(tids.len() as u64);
            for (i, (&tid, &ptr)) in tids.iter().zip(&ptrs).enumerate() {
                if ptr != TOMBSTONE_PTR {
                    let est = bounds.ests.get(i).copied().unwrap_or(f64::NAN);
                    scanned.push((u64::from(tid), ptr, est, bounds.all_ndf(i)));
                }
            }
        }
        Ok(scanned)
    }

    /// Top-k query under the **sequential plan**: phase 1 scans the index
    /// end to end collecting every tuple whose estimated (lower-bound)
    /// distance is below the best *upper bound* obtainable during the
    /// scan; phase 2 refines the entire candidate set against the table
    /// file.
    ///
    /// The upper bound for a tuple is computed from the same vectors: for
    /// each query attribute, a defined value's difference can be anything
    /// (strings have no upper bound — the paper's point), so the only
    /// sound per-attribute cap is achieved for *ndf* cells, whose
    /// difference is exactly the ndf penalty. Consequently the running
    /// threshold barely tightens and the candidate set stays large.
    ///
    /// Results are still exact (phase 2 checks real distances); only the
    /// efficiency differs from [`IvaIndex::query`].
    pub fn query_sequential_plan<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
    ) -> Result<QueryOutcome> {
        let lambda = &self.resolve_weights(table, query, weights);
        let mut pool = ResultPool::new(k);
        let mut stats = QueryStats::default();
        let ndf = self.config().ndf_penalty;
        let start = thread_cpu_time();

        // The only finite upper bound available during the scan: an
        // all-ndf tuple's distance is exactly f(λ·ndf). Everything with a
        // defined string is unbounded above.
        let all_ndf_dist = {
            let v: Vec<f64> = lambda.iter().map(|l| l * ndf).collect();
            metric.combine(&v)
        };

        let matchers = self.query_matchers(query);
        let shared = self.prepare_query(query, &matchers)?;
        let scanned = self.collect_lower_bounds(&shared, lambda, metric, table.file().deleted())?;

        // ---- Phase 2: refine the candidate set. ----
        // Candidates: every tuple whose lower bound does not exceed the
        // best threshold phase 1 could establish (the all-ndf distance).
        // All-ndf tuples themselves have exactly that distance and need no
        // fetch. Every candidate is fetched — that is the plan — in scan
        // order, through the spine's refine step: one read in place, the
        // distance exact below the pool's cap for the tid.
        stats.tuples_scanned += scanned.len() as u64;
        let refine_start = thread_cpu_time();
        let (mut buf, mut locs) = (RecordBuf::default(), Vec::new());
        let mut diffs = vec![0.0f64; query.len()];
        let patterns: Vec<_> = shared.iter().map(SharedAttr::pattern).collect();
        let mut refine = |pool: &mut ResultPool, tid: u64, ptr: u64| -> Result<()> {
            let rec = table.read(RecordPtr(ptr), &mut buf)?;
            stats.table_accesses += 1;
            let cap = pool.refine_cap(tid);
            let actual = bounded_distance(
                &rec.view, query, &patterns, lambda, metric, ndf, cap, &mut diffs, &mut locs,
            )?;
            pool.insert_at(tid, actual, RecordPtr(ptr));
            Ok(())
        };
        let mut leftovers: Vec<(u64, u64, f64)> = Vec::new();
        for &(tid, ptr, lb, all_ndf) in &scanned {
            if all_ndf {
                pool.insert_at(tid, all_ndf_dist, RecordPtr(ptr));
            } else if lb < all_ndf_dist {
                refine(&mut pool, tid, ptr)?;
            } else {
                leftovers.push((tid, ptr, lb));
            }
        }
        // To stay exact when fewer than k candidates exist, the leftovers
        // are refined afterwards in `(lower bound, tid)` order. The order
        // ascends and the pool's worst entry only falls, so the first
        // candidate the pool no longer admits ends refinement for good.
        if leftovers.iter().any(|l| pool.admits_at(l.2, l.0)) {
            // Stable, and `leftovers` is in tid order: ties keep it.
            leftovers.sort_by(|a, b| a.2.total_cmp(&b.2));
            for &(tid, ptr, lb) in &leftovers {
                if !pool.admits_at(lb, tid) {
                    break;
                }
                refine(&mut pool, tid, ptr)?;
            }
        }
        let refine_nanos = thread_cpu_time().saturating_sub(refine_start);
        let total = thread_cpu_time().saturating_sub(start);
        stats.refine_nanos = refine_nanos;
        stats.filter_nanos = total.saturating_sub(refine_nanos);
        self.list_bytes_into(&shared, &mut stats);
        Ok(QueryOutcome {
            results: pool.into_sorted(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, IndexTarget};
    use crate::config::IvaConfig;
    use crate::metric::MetricKind;
    use crate::query::exact_distance;
    use iva_storage::{IoStats, PagerOptions};
    use iva_swt::{AttrId, Tuple, Value};

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 512,
            cache_bytes: 64 * 1024,
        }
    }

    fn table() -> SwtTable {
        let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let name = t.define_text("name").unwrap();
        let price = t.define_numeric("price").unwrap();
        for i in 0..200u32 {
            let mut tup = Tuple::new();
            if i % 3 != 0 {
                tup.set(name, Value::text(format!("product listing {i:03}")));
            }
            if i % 2 == 0 {
                tup.set(price, Value::num(f64::from(i)));
            }
            t.insert(&tup).unwrap();
        }
        t
    }

    #[test]
    fn sequential_plan_is_exact_but_fetches_more() {
        let table = table();
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let q = Query::new()
            .text(AttrId(0), "product listing 042")
            .num(AttrId(1), 42.0);
        // (k, interleaved fetches, sequential fetches): the plan's fetch
        // counts are pinned — how a fetch is carried out never moves them.
        for (k, par_accesses, seq_accesses) in [(1usize, 2, 94), (5, 6, 94), (20, 52, 94)] {
            let par = index
                .query(&table, &q, k, &MetricKind::L2, WeightScheme::Equal)
                .unwrap();
            let seq = index
                .query_sequential_plan(&table, &q, k, &MetricKind::L2, WeightScheme::Equal)
                .unwrap();
            let dp: Vec<f64> = par.results.iter().map(|e| e.dist).collect();
            let ds: Vec<f64> = seq.results.iter().map(|e| e.dist).collect();
            assert_eq!(dp.len(), ds.len());
            for (a, b) in dp.iter().zip(&ds) {
                assert!((a - b).abs() < 1e-9, "k={k}: {dp:?} vs {ds:?}");
            }
            // The sequential plan cannot exploit a tightening pool during
            // the scan: it fetches every tuple defining a query attribute.
            let accesses = (par.stats.table_accesses, seq.stats.table_accesses);
            assert_eq!(accesses, (par_accesses, seq_accesses), "k={k}");
        }
    }

    /// The sequential plan restated over owned records as a test
    /// reference: each main candidate materialized in scan order, then
    /// leftovers in lower-bound order with the per-candidate early-exit,
    /// every distance exact and unbounded. The production code — records
    /// read in place, distances capped by the pool — must match it bit
    /// for bit.
    fn reference_sequential_plan<M: crate::metric::Metric>(
        index: &IvaIndex,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
    ) -> (Vec<(u64, u64, u64)>, u64) {
        let lambda = index.resolve_weights(table, query, weights);
        let ndf = index.config().ndf_penalty;
        let all_ndf_dist = {
            let v: Vec<f64> = lambda.iter().map(|l| l * ndf).collect();
            metric.combine(&v)
        };
        let matchers = index.query_matchers(query);
        let shared = index.prepare_query(query, &matchers).unwrap();
        let scanned = index
            .collect_lower_bounds(&shared, &lambda, metric, table.file().deleted())
            .unwrap();
        let mut pool = ResultPool::new(k);
        let mut accesses = 0u64;
        let mut leftovers: Vec<(u64, u64, f64)> = Vec::new();
        for &(tid, ptr, lb, all_ndf) in &scanned {
            if all_ndf {
                pool.insert_at(tid, all_ndf_dist, RecordPtr(ptr));
            } else if lb < all_ndf_dist {
                let rec = table.get(RecordPtr(ptr)).unwrap();
                accesses += 1;
                let actual = exact_distance(&rec.tuple, query, &lambda, metric, ndf);
                pool.insert_at(tid, actual, RecordPtr(ptr));
            } else {
                leftovers.push((tid, ptr, lb));
            }
        }
        if leftovers
            .iter()
            .any(|&(tid, _, lb)| pool.admits_at(lb, tid))
        {
            leftovers.sort_by(|a, b| a.2.total_cmp(&b.2));
            for &(tid, ptr, lb) in &leftovers {
                if !pool.admits_at(lb, tid) {
                    break;
                }
                let rec = table.get(RecordPtr(ptr)).unwrap();
                accesses += 1;
                let actual = exact_distance(&rec.tuple, query, &lambda, metric, ndf);
                pool.insert_at(tid, actual, RecordPtr(ptr));
            }
        }
        let entries = pool
            .into_sorted()
            .iter()
            .map(|e| (e.tid, e.dist.to_bits(), e.ptr.0))
            .collect();
        (entries, accesses)
    }

    #[test]
    fn phase_two_matches_materializing_reference() {
        let table = table();
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        // A mixed query (main candidates + leftovers) and a numeric-only
        // one (tight bounds, early exit matters).
        let queries = [
            Query::new()
                .text(AttrId(0), "product listing 042")
                .num(AttrId(1), 42.0),
            Query::new().num(AttrId(1), 88.0),
            Query::new().text(AttrId(0), "digital camera"),
        ];
        for q in &queries {
            for k in [1usize, 5, 20, 100] {
                let (expect, ref_accesses) = reference_sequential_plan(
                    &index,
                    &table,
                    q,
                    k,
                    &MetricKind::L2,
                    WeightScheme::Equal,
                );
                let got = index
                    .query_sequential_plan(&table, q, k, &MetricKind::L2, WeightScheme::Equal)
                    .unwrap();
                let got_entries: Vec<(u64, u64, u64)> = got
                    .results
                    .iter()
                    .map(|e| (e.tid, e.dist.to_bits(), e.ptr.0))
                    .collect();
                assert_eq!(got_entries, expect, "k={k}");
                assert_eq!(got.stats.table_accesses, ref_accesses, "k={k}");
            }
        }
    }

    #[test]
    fn sequential_plan_candidate_blowup_on_text() {
        // With a text query, nothing defined can be upper-bounded, so the
        // candidate set ~ every tuple defining the attribute.
        let table = table();
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let q = Query::new().text(AttrId(0), "product listing 042");
        let par = index
            .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let seq = index
            .query_sequential_plan(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        assert!(
            seq.stats.table_accesses > par.stats.table_accesses,
            "seq {} vs par {}",
            seq.stats.table_accesses,
            par.stats.table_accesses
        );
    }
}
