//! Intra-query parallel filter scan: serial vs segmented-parallel
//! execution of Algorithm 1 over the same index.
//!
//! The engine partitions the tuple list into contiguous segments scanned
//! by worker threads and merges their candidate pools into a result that
//! is bit-identical to the serial scan (verified here for every measured
//! query). The headline is **wall clock**: `wall_speedup` is the serial
//! query's end-to-end time over the point's, on *this* machine. A point
//! asking for more workers than the host has cores is marked
//! `oversubscribed` — its wall time measures the scheduler, not the
//! decomposition — and `passes_threshold` is judged on the other points
//! only (`null` when the host has a single core). `filter_ms` stays as
//! the secondary series: `QueryStats::filter_nanos` is the phase's
//! critical path in per-thread CPU time (slowest worker's scan plus the
//! merge), i.e. what the decomposition would achieve with a core per
//! worker. All of it is recorded in `BENCH_parallel_scan.json` at the
//! repo root, along with the host core count.
//!
//! Run with: `cargo bench -p iva-bench --bench parallel_scan`
//! (the dataset is floored at 100,000 tuples regardless of `IVA_SCALE`).

use iva_storage::{write_vec, RealVfs};
use std::time::Instant;

use iva_bench::{bench_pager_options, report, scale_config};
use iva_core::{build_index, IndexTarget, IvaConfig, MetricKind, QueryOptions, WeightScheme};
use iva_storage::{IoStats, PagerOptions};
use iva_workload::{generate_query_set, Dataset, WorkloadConfig};

const MIN_TUPLES: usize = 100_000;
const K: usize = 10;
const THREADS: &[usize] = &[1, 2, 4, 8];
/// Wall-clock speedup the best point with a core per worker must reach.
const THRESHOLD: f64 = 1.5;

struct Point {
    threads: usize,
    filter_ms: f64,
    refine_ms: f64,
    wall_ms: f64,
}

fn main() {
    let mut workload = scale_config();
    if workload.n_tuples < MIN_TUPLES {
        workload = WorkloadConfig::scaled(MIN_TUPLES);
    }
    let config = IvaConfig::default();
    report::banner(
        "parallel_scan",
        "segmented parallel filter scan vs serial (ms/query)",
        &workload,
        &config,
    );

    // A generous cache keeps the scan CPU-bound: the point under test is
    // the filter computation, not the 2009 disk model.
    let opts = PagerOptions {
        cache_bytes: 256 * 1024 * 1024,
        ..bench_pager_options()
    };
    let dataset = Dataset::generate(&workload);
    let table_io = IoStats::new();
    let table = dataset
        .build_table(&opts, table_io.clone())
        .expect("table build");
    let iva_io = IoStats::new();
    let iva =
        build_index(&table, IndexTarget::Mem, &opts, iva_io.clone(), config).expect("iva build");

    let qs = generate_query_set(&dataset, 3, 14, 4, 0xC0FFEE);
    let metric = MetricKind::L2;
    let weights = WeightScheme::Equal;
    let run = |threads: usize, q: &iva_core::Query| {
        let opts = QueryOptions {
            threads: Some(threads),
        };
        let start = Instant::now();
        let out = iva
            .query_opts(&table, q, K, &metric, weights, &opts)
            .expect("query");
        (out, start.elapsed().as_secs_f64() * 1e3)
    };

    // Warm the page caches, as in Sec. V-A.
    for q in &qs.queries[..qs.warm] {
        run(1, q);
    }

    let measured = qs.measured();
    let mut points = Vec::new();
    for &threads in THREADS {
        let mut filter_ms = 0.0;
        let mut refine_ms = 0.0;
        let mut wall_ms = 0.0;
        for q in measured.iter() {
            let (serial, _) = run(1, q);
            let (par, wall) = run(threads, q);
            // The decomposition must be invisible in the answer.
            assert_eq!(serial.results.len(), par.results.len());
            for (a, b) in serial.results.iter().zip(&par.results) {
                assert_eq!(a.tid, b.tid, "parallel scan diverged from serial");
                assert_eq!(a.dist.to_bits(), b.dist.to_bits());
            }
            assert_eq!(serial.stats.tuples_scanned, par.stats.tuples_scanned);
            filter_ms += par.stats.filter_ms();
            refine_ms += par.stats.refine_ms();
            wall_ms += wall;
        }
        let n = measured.len() as f64;
        points.push(Point {
            threads,
            filter_ms: filter_ms / n,
            refine_ms: refine_ms / n,
            wall_ms: wall_ms / n,
        });
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (serial_wall, serial_filter) = (points[0].wall_ms, points[0].filter_ms);
    report::header(&[
        "threads",
        "wall",
        "wall speedup",
        "filter",
        "refine",
        "filter speedup",
    ]);
    for p in &points {
        let mark = if p.threads > cores { " (oversub.)" } else { "" };
        report::row(&[
            format!("{}{mark}", p.threads),
            report::f(p.wall_ms),
            report::ratio(serial_wall, p.wall_ms),
            report::f(p.filter_ms),
            report::f(p.refine_ms),
            report::ratio(serial_filter, p.filter_ms),
        ]);
    }

    // Judged: the parallel points this host can give a core per worker.
    let best = points
        .iter()
        .filter(|p| p.threads > 1 && p.threads <= cores)
        .map(|p| (serial_wall / p.wall_ms, p.threads))
        .max_by(|a, b| a.0.total_cmp(&b.0));
    let (best_json, passes_json) = match best {
        Some((speedup, threads)) => {
            println!(
                "\nbest wall-clock speedup with a core per worker: {speedup:.2}x at \
                 {threads} threads (host has {cores} cores; threshold {THRESHOLD}x)"
            );
            (
                format!("{{\"threads\": {threads}, \"wall_speedup\": {speedup:.3}}}"),
                (speedup >= THRESHOLD).to_string(),
            )
        }
        None => {
            println!("\nhost has {cores} core(s): every parallel point is oversubscribed");
            ("null".to_string(), "null".to_string())
        }
    };

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"threads\": {}, \"oversubscribed\": {}, \"wall_ms\": {:.4}, \
                 \"wall_speedup\": {:.3}, \"filter_ms\": {:.4}, \"refine_ms\": {:.4}, \
                 \"filter_speedup\": {:.3}}}",
                p.threads,
                p.threads > cores,
                p.wall_ms,
                serial_wall / p.wall_ms,
                p.filter_ms,
                p.refine_ms,
                serial_filter / p.filter_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"parallel_scan\",\n  \"n_tuples\": {},\n  \"n_attrs\": {},\n  \
         \"queries_measured\": {},\n  \"k\": {},\n  \"metric\": \"L2\",\n  \
         \"host_cores\": {},\n  \"headline\": \"wall_speedup: serial wall_ms over the \
         point's, judged only where threads <= host_cores\",\n  \
         \"best_wall_speedup\": {},\n  \"threshold\": {},\n  \
         \"passes_threshold\": {},\n  \"filter_ms_meaning\": \"secondary series: \
         critical path in per-thread CPU time: slowest worker's segment scan plus merge \
         (QueryStats::filter_nanos)\",\n  \"points\": [\n{}\n  ]\n}}\n",
        workload.n_tuples,
        workload.n_attrs,
        measured.len(),
        K,
        cores,
        best_json,
        THRESHOLD,
        passes_json,
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_scan.json"
    );
    write_vec(&RealVfs, std::path::Path::new(path), json).expect("write BENCH_parallel_scan.json");
    println!("recorded {path}");
}
