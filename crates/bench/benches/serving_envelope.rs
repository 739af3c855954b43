//! Latency-envelope load harness for the serving layer (`iva_file::serve`).
//!
//! A closed-loop driver runs N client threads against a [`Server`]'s
//! admission queue. Each point of the envelope runs two phases over the
//! same immutable snapshot:
//!
//! * **paced** — every client submits at `target_qps / N` and the
//!   harness records per-request latency (p50/p95/p99) plus the achieved
//!   throughput, which falls below target once the envelope is crossed;
//! * **saturation** — the same clients submit back-to-back (zero think
//!   time); completed/wall-seconds is the saturation throughput at that
//!   client count.
//!
//! Latency timestamps come from `iva_core::monotonic_nanos` (the one
//! sanctioned wall-clock shim of the serving layer); request pacing uses
//! `std::thread::sleep`, which never enters a measured interval.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p iva-bench --bench serving_envelope
//! cargo bench -p iva-bench --bench serving_envelope -- --qps 100 --secs 2   # CI smoke
//! cargo bench -p iva-bench --bench serving_envelope -- --threads 4,8 --workers 4
//! ```
//!
//! Flags (after `--`): `--qps <f64>` target per-point arrival rate
//! (default 500), `--secs <f64>` per-phase duration (default 3),
//! `--threads <a,b,c>` client-thread counts (default 1,2,4,8),
//! `--workers <n>` server workers (default 2), `--max-batch <n>` the
//! server's inert `max_batch` field (default 16; the server runs one
//! request at a time per worker whatever it holds), `--tuples <n>`
//! dataset size (default 20000). Every query scans on the worker thread
//! that runs it, so the server's workers are the only parallelism.
//! Results land in `BENCH_serving.json` (its `search_threads` key records
//! the inert field as `perf/` sets it; its `coalesced_fraction` reads 0).

use std::time::Duration;

use iva_bench::{bench_pager_options, report};
use iva_core::{monotonic_nanos, IvaConfig};
use iva_file::serve::{Client, ServeOptions, Server, Writer};
use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{IvaDb, IvaDbOptions, Query, SearchRequest};
use iva_storage::{write_vec, RealVfs};

const K: usize = 10;

struct Args {
    qps: f64,
    secs: f64,
    threads: Vec<usize>,
    workers: usize,
    max_batch: usize,
    tuples: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        qps: 500.0,
        secs: 3.0,
        threads: vec![1, 2, 4, 8],
        workers: 2,
        max_batch: 16,
        tuples: 20_000,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1);
        match (flag, value) {
            ("--qps", Some(v)) => {
                args.qps = v.parse().expect("--qps takes a number");
                i += 2;
            }
            ("--secs", Some(v)) => {
                args.secs = v.parse().expect("--secs takes a number");
                i += 2;
            }
            ("--threads", Some(v)) => {
                args.threads = v
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes a,b,c"))
                    .collect();
                i += 2;
            }
            ("--workers", Some(v)) => {
                args.workers = v.parse().expect("--workers takes a number");
                i += 2;
            }
            ("--max-batch", Some(v)) => {
                args.max_batch = v.parse().expect("--max-batch takes a number");
                i += 2;
            }
            ("--tuples", Some(v)) => {
                args.tuples = v.parse().expect("--tuples takes a number");
                i += 2;
            }
            _ => i += 1, // ignore the harness's own flags (--bench etc.)
        }
    }
    assert!(
        !args.threads.is_empty(),
        "--threads needs at least one count"
    );
    args
}

fn percentile_ms(sorted_nanos: &[u64], p: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_nanos.len() - 1) as f64 * p).round() as usize;
    sorted_nanos[idx.min(sorted_nanos.len() - 1)] as f64 / 1e6
}

struct Phase {
    latencies_nanos: Vec<u64>,
    wall_secs: f64,
}

impl Phase {
    fn qps(&self) -> f64 {
        self.latencies_nanos.len() as f64 / self.wall_secs.max(1e-9)
    }
}

/// Drive `threads` closed-loop clients for `secs`. `pace` is the target
/// per-thread inter-arrival time; `None` means zero think time.
fn drive(
    client: &Client<IvaDb>,
    queries: &[Query],
    threads: usize,
    secs: f64,
    pace: Option<Duration>,
) -> Phase {
    let deadline = monotonic_nanos() + (secs * 1e9) as u64;
    let start = monotonic_nanos();
    let lats: Vec<Vec<u64>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let client = client.clone();
                scope.spawn(move |_| {
                    let mut lat = Vec::with_capacity(4096);
                    let mut next = monotonic_nanos();
                    let mut qi = t; // stagger the query mix across threads
                    loop {
                        let now = monotonic_nanos();
                        if now >= deadline {
                            break;
                        }
                        if let Some(gap) = pace {
                            if next > now {
                                std::thread::sleep(Duration::from_nanos(next - now));
                            }
                            next += gap.as_nanos() as u64;
                        }
                        let query = &queries[qi % queries.len()];
                        qi += threads;
                        let t0 = monotonic_nanos();
                        client
                            .search(query.clone(), SearchRequest::new(K))
                            .expect("serving request failed");
                        lat.push(monotonic_nanos() - t0);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();
    let wall_secs = (monotonic_nanos() - start) as f64 / 1e9;
    let mut latencies_nanos: Vec<u64> = lats.into_iter().flatten().collect();
    latencies_nanos.sort_unstable();
    Phase {
        latencies_nanos,
        wall_secs,
    }
}

struct Point {
    threads: usize,
    achieved_qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    saturation_qps: f64,
    coalesced_fraction: f64,
    batches: u64,
    completed: u64,
}

fn main() {
    let args = parse_args();
    let workload = WorkloadConfig::scaled(args.tuples);
    let config = IvaConfig {
        search_threads: 1,
        ..IvaConfig::default()
    };
    report::banner(
        "serving_envelope",
        "closed-loop latency envelope of the admission-batching server",
        &workload,
        &config,
    );

    let dataset = Dataset::generate(&workload);
    let mut db = IvaDb::create_mem(IvaDbOptions {
        pager: bench_pager_options(),
        config,
        ..Default::default()
    })
    .expect("create db");
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let name = format!("attr_{i}");
        match ty {
            iva_file::AttrType::Text => db.define_text(&name).expect("define"),
            iva_file::AttrType::Numeric => db.define_numeric(&name).expect("define"),
        };
    }
    for t in &dataset.tuples {
        db.insert(t).expect("insert");
    }
    let writer = Writer::new(db);
    let reader = writer.reader();
    let queries: Vec<Query> = generate_query_set(&dataset, 3, 32, 0, 0x5E4E)
        .measured()
        .to_vec();

    report::header(&[
        "threads",
        "target qps",
        "achieved",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "saturation qps",
        "coalesced",
    ]);

    let mut points = Vec::new();
    for &threads in &args.threads {
        let server = Server::start(
            reader.clone(),
            ServeOptions {
                workers: args.workers,
                max_batch: args.max_batch,
            },
        );
        let client = server.client();

        // Short unrecorded warmup so page caches and thread pools settle.
        drive(&client, &queries, threads, (args.secs / 4.0).min(1.0), None);
        let before = server.stats();

        let per_thread = Duration::from_nanos((1e9 * threads as f64 / args.qps) as u64);
        let paced = drive(&client, &queries, threads, args.secs, Some(per_thread));
        let saturated = drive(&client, &queries, threads, args.secs, None);

        let stats = server.stats();
        let completed = stats.completed - before.completed;
        let coalesced = stats.coalesced - before.coalesced;
        let point = Point {
            threads,
            achieved_qps: paced.qps(),
            p50_ms: percentile_ms(&paced.latencies_nanos, 0.50),
            p95_ms: percentile_ms(&paced.latencies_nanos, 0.95),
            p99_ms: percentile_ms(&paced.latencies_nanos, 0.99),
            saturation_qps: saturated.qps(),
            coalesced_fraction: coalesced as f64 / completed.max(1) as f64,
            batches: stats.batches - before.batches,
            completed,
        };
        report::row(&[
            point.threads.to_string(),
            format!("{:.0}", args.qps),
            report::f(point.achieved_qps),
            report::f(point.p50_ms),
            report::f(point.p95_ms),
            report::f(point.p99_ms),
            report::f(point.saturation_qps),
            format!("{:.0}%", point.coalesced_fraction * 100.0),
        ]);
        server.shutdown();
        points.push(point);
    }

    let best_saturation = points
        .iter()
        .map(|p| p.saturation_qps)
        .fold(0.0f64, f64::max);
    println!(
        "\npeak saturation throughput: {best_saturation:.0} qps \
         (answers bit-identical to single-caller execution at every point)"
    );

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"threads\": {}, \"target_qps\": {:.1}, \"achieved_qps\": {:.1}, \
                 \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"saturation_qps\": {:.1}, \"coalesced_fraction\": {:.4}, \
                 \"batches\": {}, \"completed\": {}}}",
                p.threads,
                args.qps,
                p.achieved_qps,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.saturation_qps,
                p.coalesced_fraction,
                p.batches,
                p.completed
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"serving_envelope\",\n  \
         \"host\": {{\"cores\": {cores}, \"arch\": \"{}\", \"os\": \"{}\"}},\n  \
         \"n_tuples\": {},\n  \"n_attrs\": {},\n  \
         \"k\": {},\n  \"server_workers\": {},\n  \"max_batch\": {},\n  \
         \"search_threads\": 1,\n  \"phase_secs\": {},\n  \
         \"latency_source\": \"iva_core::monotonic_nanos around Client::search\",\n  \
         \"peak_saturation_qps\": {:.1},\n  \"points\": [\n{}\n  ]\n}}\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        workload.n_tuples,
        workload.n_attrs,
        K,
        args.workers,
        args.max_batch,
        args.secs,
        best_saturation,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    write_vec(&RealVfs, std::path::Path::new(path), json).expect("write BENCH_serving.json");
    println!("recorded {path}");
}
