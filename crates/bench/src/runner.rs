//! The experiment runner: builds the systems under test over one dataset
//! and measures query sets the way Sec. V-A describes (10 warm queries,
//! 40 measured; wall-clock + exact I/O counters + modeled 2009-disk time).

use std::time::Instant;

use iva_baselines::{DirectScan, SiiIndex};
use iva_core::{
    build_index, IndexTarget, IvaConfig, IvaIndex, MetricKind, Query, QueryOptions, WeightScheme,
};
use iva_storage::{DiskModel, IoSnapshot, IoStats, PagerOptions};
use iva_swt::SwtTable;
use iva_workload::{generate_query_set, Dataset, QuerySet, WorkloadConfig};

/// Everything built for one experiment configuration.
pub struct TestBed {
    /// The generated dataset (queries are sampled from it).
    pub dataset: Dataset,
    /// The sparse wide table.
    pub table: SwtTable,
    /// Table-file I/O counters.
    pub table_io: IoStats,
    /// The iVA-file under test.
    pub iva: IvaIndex,
    /// iVA-file I/O counters.
    pub iva_io: IoStats,
    /// The SII baseline.
    pub sii: SiiIndex,
    /// SII I/O counters.
    pub sii_io: IoStats,
    /// The DST baseline.
    pub dst: DirectScan,
}

/// Pager options used throughout the experiments.
pub fn bench_pager_options() -> PagerOptions {
    PagerOptions {
        page_size: 4096,
        cache_bytes: 5 * 1024 * 1024,
    }
}

/// The paper's cache regime: a 10 MB cache against a 355.7 MB table file,
/// i.e. ~2.8 % of the data is cache-resident. Experiments resize each
/// file's buffer pool to this fraction of its actual size so the cache
/// pressure — and with it the random-access cost the iVA-file saves — is
/// scale-invariant.
pub const CACHE_FRACTION: f64 = 10.0 / 355.7;

impl TestBed {
    /// Build the full test bed for a workload and index configuration.
    pub fn new(workload: &WorkloadConfig, config: IvaConfig) -> Self {
        let opts = bench_pager_options();
        let dataset = Dataset::generate(workload);
        let table_io = IoStats::new();
        let table = dataset
            .build_table(&opts, table_io.clone())
            .expect("table build");
        let iva_io = IoStats::new();
        let iva = build_index(&table, IndexTarget::Mem, &opts, iva_io.clone(), config)
            .expect("iva build");
        let sii_io = IoStats::new();
        let sii =
            SiiIndex::build(&table, &opts, sii_io.clone(), config.ndf_penalty).expect("sii build");
        let dst = DirectScan::new(config.ndf_penalty);

        // Scale each file's buffer pool to the paper's cache:data ratio
        // (with a small floor so tiny test tables still get a few pages).
        let scaled = |bytes: u64| ((bytes as f64 * CACHE_FRACTION) as usize).max(16 * 4096);
        table.file().resize_cache(scaled(table.file().size_bytes()));
        iva.resize_cache(scaled(iva.size_bytes()));
        sii.resize_cache(scaled(sii.size_bytes()));

        Self {
            dataset,
            table,
            table_io,
            iva,
            iva_io,
            sii,
            sii_io,
            dst,
        }
    }

    /// Sample a paper-shaped query set.
    pub fn query_set(&self, values_per_query: usize, total: usize, warm: usize) -> QuerySet {
        generate_query_set(
            &self.dataset,
            values_per_query,
            total,
            warm,
            0xBEEF + values_per_query as u64,
        )
    }
}

/// Per-query measurement.
#[derive(Debug, Clone, Copy)]
pub struct PerQuery {
    /// Wall-clock total, ms.
    pub total_ms: f64,
    /// Filter phase, ms.
    pub filter_ms: f64,
    /// Refine phase, ms.
    pub refine_ms: f64,
    /// Table-file fetches.
    pub table_accesses: u64,
    /// Combined I/O delta (index + table).
    pub io: IoSnapshot,
}

impl PerQuery {
    /// Modeled 2009-HDD time for this query's I/O.
    pub fn modeled_ms(&self) -> f64 {
        DiskModel::hdd_2009().modeled_ms(&self.io)
    }
}

/// Aggregated statistics over the measured queries of one point.
#[derive(Debug, Clone, Copy)]
pub struct PointStats {
    /// Mean wall-clock per query, ms.
    pub mean_ms: f64,
    /// Standard deviation of wall-clock, ms.
    pub std_ms: f64,
    /// Mean filter phase, ms.
    pub filter_ms: f64,
    /// Mean refine phase, ms.
    pub refine_ms: f64,
    /// Mean table accesses per query.
    pub table_accesses: f64,
    /// Mean modeled 2009-disk time, ms.
    pub modeled_ms: f64,
    /// Standard deviation of modeled time, ms.
    pub modeled_std_ms: f64,
}

/// Aggregate per-query samples.
pub fn aggregate(samples: &[PerQuery]) -> PointStats {
    let n = samples.len().max(1) as f64;
    let mean = |f: &dyn Fn(&PerQuery) -> f64| samples.iter().map(f).sum::<f64>() / n;
    let mean_ms = mean(&|s| s.total_ms);
    let var = samples
        .iter()
        .map(|s| (s.total_ms - mean_ms).powi(2))
        .sum::<f64>()
        / n;
    let modeled_mean = mean(&|s| s.modeled_ms());
    let modeled_var = samples
        .iter()
        .map(|s| (s.modeled_ms() - modeled_mean).powi(2))
        .sum::<f64>()
        / n;
    PointStats {
        mean_ms,
        std_ms: var.sqrt(),
        filter_ms: mean(&|s| s.filter_ms),
        refine_ms: mean(&|s| s.refine_ms),
        table_accesses: mean(&|s| s.table_accesses as f64),
        modeled_ms: modeled_mean,
        modeled_std_ms: modeled_var.sqrt(),
    }
}

/// Which system to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The iVA-file.
    Iva,
    /// The sparse inverted index baseline.
    Sii,
    /// Direct scan of the table file.
    Dst,
}

/// Run a query set against one system, returning per-measured-query
/// samples. Warm queries run first and are discarded (they populate the
/// page caches, as in Sec. V-A).
pub fn run_queries(
    bed: &TestBed,
    system: System,
    qs: &QuerySet,
    k: usize,
    metric: MetricKind,
    weights: WeightScheme,
) -> Vec<PerQuery> {
    let index_io = match system {
        System::Iva => Some(&bed.iva_io),
        System::Sii => Some(&bed.sii_io),
        System::Dst => None,
    };
    // iVA runs serially like SII and DST: a segmented scan's fetches grow
    // with its lanes, so Fig. 8's column would follow the host's cores.
    let iva_opts = QueryOptions { threads: Some(1) };
    let run_one = |q: &Query| -> PerQuery {
        let io_before = combine(index_io, &bed.table_io);
        let start = Instant::now();
        let (stats, _len) = match system {
            System::Iva => {
                let out = bed
                    .iva
                    .query_opts(&bed.table, q, k, &metric, weights, &iva_opts)
                    .expect("iva query");
                (out.stats, out.results.len())
            }
            System::Sii => {
                let out = bed
                    .sii
                    .query(&bed.table, q, k, &metric, weights)
                    .expect("sii query");
                (out.stats, out.results.len())
            }
            System::Dst => {
                let out = bed
                    .dst
                    .query(&bed.table, q, k, &metric, weights)
                    .expect("dst query");
                (out.stats, out.results.len())
            }
        };
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let io_after = combine(index_io, &bed.table_io);
        PerQuery {
            total_ms,
            filter_ms: stats.filter_ms(),
            refine_ms: stats.refine_ms(),
            table_accesses: stats.table_accesses,
            io: io_after.since(&io_before),
        }
    };
    for q in &qs.queries[..qs.warm] {
        run_one(q);
    }
    qs.measured().iter().map(run_one).collect()
}

/// One full experiment point: sample a query set of the given shape, run
/// it against `system`, and aggregate (paper defaults: 50 queries, 10
/// warm).
pub fn run_point(
    bed: &TestBed,
    system: System,
    values_per_query: usize,
    k: usize,
    metric: MetricKind,
    weights: WeightScheme,
) -> PointStats {
    let (total, warm) = crate::scale::queries_per_point();
    let qs = bed.query_set(values_per_query, total, warm);
    aggregate(&run_queries(bed, system, &qs, k, metric, weights))
}

fn combine(index_io: Option<&IoStats>, table_io: &IoStats) -> IoSnapshot {
    let t = table_io.snapshot();
    match index_io {
        None => t,
        Some(io) => {
            let i = io.snapshot();
            IoSnapshot {
                disk_page_reads: t.disk_page_reads + i.disk_page_reads,
                disk_page_writes: t.disk_page_writes + i.disk_page_writes,
                cache_hits: t.cache_hits + i.cache_hits,
                cache_misses: t.cache_misses + i.cache_misses,
                random_seeks: t.random_seeks + i.random_seeks,
                seq_bytes_read: t.seq_bytes_read + i.seq_bytes_read,
                random_bytes_read: t.random_bytes_read + i.random_bytes_read,
                bytes_written: t.bytes_written + i.bytes_written,
                logical_list_bytes: t.logical_list_bytes + i.logical_list_bytes,
                physical_list_bytes: t.physical_list_bytes + i.physical_list_bytes,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_measures() {
        let cfg = WorkloadConfig::scaled(800);
        let bed = TestBed::new(&cfg, IvaConfig::default());
        let qs = bed.query_set(3, 6, 2);
        let iva = run_queries(
            &bed,
            System::Iva,
            &qs,
            10,
            MetricKind::L2,
            WeightScheme::Equal,
        );
        let sii = run_queries(
            &bed,
            System::Sii,
            &qs,
            10,
            MetricKind::L2,
            WeightScheme::Equal,
        );
        assert_eq!(iva.len(), 4);
        assert_eq!(sii.len(), 4);
        let a = aggregate(&iva);
        let b = aggregate(&sii);
        assert!(a.mean_ms > 0.0 && b.mean_ms > 0.0);
        // The content-conscious index admits no more candidates than SII.
        assert!(a.table_accesses <= b.table_accesses);
    }

    #[test]
    fn aggregate_math() {
        let io = IoSnapshot::default();
        let samples = vec![
            PerQuery {
                total_ms: 2.0,
                filter_ms: 1.0,
                refine_ms: 1.0,
                table_accesses: 10,
                io,
            },
            PerQuery {
                total_ms: 4.0,
                filter_ms: 2.0,
                refine_ms: 2.0,
                table_accesses: 20,
                io,
            },
        ];
        let s = aggregate(&samples);
        assert_eq!(s.mean_ms, 3.0);
        assert_eq!(s.std_ms, 1.0);
        assert_eq!(s.table_accesses, 15.0);
    }
}
