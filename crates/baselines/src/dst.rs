//! DST: direct scan of the table file — the index-less baseline of Sec. V.
//!
//! Every query reads the whole table file sequentially and computes exact
//! distances; "the query processing time of DST is very stable under
//! different parameter settings, always around 30 seconds per query"
//! (Sec. V-B) — slow but parameter-insensitive, which our reproduction
//! also exhibits (scaled to the dataset size).

use std::time::Instant;

use iva_core::{
    exact_distance, Metric, PoolEntry, Query, QueryStats, Result, ResultPool, WeightScheme,
};
use iva_swt::SwtTable;

/// Result of one DST top-k query.
#[derive(Debug, Clone)]
pub struct DstOutcome {
    /// Top-k answers, ascending distance.
    pub results: Vec<PoolEntry>,
    /// Measurement counters (all time is "refine": there is no filter
    /// structure).
    pub stats: QueryStats,
}

/// The direct-scan baseline. Stateless apart from the ndf penalty.
#[derive(Debug, Clone, Copy)]
pub struct DirectScan {
    /// Difference constant for undefined cells.
    pub ndf_penalty: f64,
}

impl Default for DirectScan {
    fn default() -> Self {
        Self { ndf_penalty: 20.0 }
    }
}

impl DirectScan {
    /// Construct with the given ndf penalty.
    pub fn new(ndf_penalty: f64) -> Self {
        Self { ndf_penalty }
    }

    /// Resolve attribute weights over the table's live records.
    pub fn resolve_weights(
        &self,
        table: &SwtTable,
        query: &Query,
        scheme: WeightScheme,
    ) -> Result<Vec<f64>> {
        table_weights(table, query, scheme, table.file().live_records())
    }

    /// Top-k by full sequential scan with exact distances.
    pub fn query<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
    ) -> Result<DstOutcome> {
        let lambda = self.resolve_weights(table, query, weights)?;
        let mut pool = ResultPool::new(k);
        let mut stats = QueryStats::default();
        let start = Instant::now();
        for item in table.scan() {
            let (ptr, rec) = item?;
            stats.tuples_scanned += 1;
            if rec.deleted {
                continue;
            }
            stats.table_accesses += 1;
            let d = exact_distance(&rec.tuple, query, &lambda, metric, self.ndf_penalty);
            pool.insert_at(rec.tid, d, ptr);
        }
        stats.refine_nanos = start.elapsed().as_nanos() as u64;
        Ok(DstOutcome {
            results: pool.into_sorted(),
            stats,
        })
    }
}

/// Each queried attribute's weight under `scheme` over `total` tuples.
/// ITF counts each attribute's `df` over every record the table file
/// holds, tombstoned ones included — the count the index's attribute list
/// keeps until a rebuild drops them; EQU needs no count, so no scan.
pub(crate) fn table_weights(
    table: &SwtTable,
    query: &Query,
    scheme: WeightScheme,
    total: u64,
) -> Result<Vec<f64>> {
    let mut df = vec![0u64; query.len()];
    if scheme == WeightScheme::Itf {
        for item in table.scan() {
            let (_, rec) = item?;
            for ((attr, _), n) in query.iter().zip(&mut df) {
                *n += u64::from(rec.tuple.get(attr).is_some());
            }
        }
    }
    Ok(df.into_iter().map(|df| scheme.weight(total, df)).collect())
}
