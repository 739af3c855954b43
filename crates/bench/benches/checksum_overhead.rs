//! End-to-end cost of per-page CRC32C verification, in the paper's
//! cache regime.
//!
//! A disk-backed table + iVA-file answers a generated query workload
//! with page-checksum verification enabled (the default) and disabled
//! via the `set_verify_checksums` hooks, the passes alternating. Both
//! buffer pools are sized to the paper's 10 MB : 355.7 MB = 2.8 % of
//! their file (Sec. V-A), so pages are evicted and re-verified on
//! re-read *within* a pass — the regime where verification is actually
//! paid. (With the default 10 MB pools this dataset is resident after
//! the first query and the bench measured almost nothing.) The headline
//! is wall-clock ms per query on the stated host, verify on against
//! verify off (fastest of the passes, medians beside it). Beside it: the throughput of both CRC32C kernels, each
//! called directly, and the worst case — a pure pager scan with no query
//! work to amortize the checksum.
//!
//! Results land in `BENCH_checksum_overhead.json` at the repo root.
//!
//! Run with: `cargo bench -p iva-bench --bench checksum_overhead`

use iva_storage::{write_vec, RealVfs, Vfs};
use std::hint::black_box;
use std::time::Instant;

use iva_bench::CACHE_FRACTION;
use iva_core::{build_index, IndexTarget, IvaConfig, IvaIndex, MetricKind, WeightScheme};
use iva_storage::{
    crc32c, crc32c_append_portable, crc32c_kernel, IoStats, PageId, Pager, PagerOptions,
};
use iva_swt::SwtTable;
use iva_workload::{generate_query_set, Dataset, WorkloadConfig};

const MIN_TUPLES: usize = 10_000;
const K: usize = 10;
const REPS: usize = 15;
/// Floor of a paper-regime pool, so a small file still gets a few pages.
const MIN_CACHE_PAGES: usize = 16;

/// A pool at the paper's cache-to-table ratio (Sec. V-A) of its file.
fn paper_cache(file_bytes: u64, page_size: usize) -> usize {
    ((file_bytes as f64 * CACHE_FRACTION) as usize).max(MIN_CACHE_PAGES * page_size)
}

/// One full pass over the query set from cold pools; returns the hit
/// count so the work cannot be optimized away.
fn query_pass(table: &SwtTable, index: &IvaIndex, queries: &[&iva_core::Query]) -> usize {
    table.file().clear_cache();
    index.clear_cache();
    let mut hits = 0;
    for q in queries {
        let out = index
            .query(table, q, K, &MetricKind::L2, WeightScheme::Equal)
            .expect("query");
        hits += out.results.len();
    }
    hits
}

fn timed(mut pass: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    black_box(pass());
    start.elapsed().as_secs_f64()
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn best_secs(mut pass: impl FnMut() -> usize) -> f64 {
    fastest(&(0..REPS).map(|_| timed(&mut pass)).collect::<Vec<_>>())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// GB/s of one CRC32C kernel over a 1 MiB buffer (best of `REPS`).
fn kernel_gb_s(kernel: impl Fn(&[u8]) -> u32) -> f64 {
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 13) as u8).collect();
    let secs = best_secs(|| (0..16).map(|_| kernel(black_box(&buf)) as usize).sum());
    (buf.len() * 16) as f64 / secs / 1e9
}

/// Worst-case context figure: pure page reads through the pager with a
/// too-small cache, verify on vs off. No query work amortizes the CRC
/// here — this bounds the overhead from above.
fn raw_scan_overhead(dir: &std::path::Path) -> (f64, f64) {
    const PAGE: usize = 4096;
    const PAGES: u64 = 2048;
    let opts = PagerOptions {
        page_size: PAGE,
        cache_bytes: PAGE * 32,
    };
    let pager = Pager::create(&dir.join("raw.iva"), &opts, IoStats::new()).expect("create");
    for i in 0..PAGES {
        pager
            .append_page((0..PAGE).map(|j| (i as usize * 31 + j * 7) as u8).collect())
            .expect("append");
    }
    pager.sync().expect("sync");
    let scan = || {
        let mut acc = 0u64;
        for id in 0..PAGES {
            acc = acc.wrapping_add(u64::from(pager.read_page(PageId(id)).expect("read")[0]));
        }
        acc as usize
    };
    pager.set_verify_checksums(false);
    black_box(scan()); // warm the OS cache
    let off = best_secs(|| {
        pager.clear_cache();
        scan()
    });
    pager.set_verify_checksums(true);
    let on = best_secs(|| {
        pager.clear_cache();
        scan()
    });
    let mb = (PAGES as usize * PAGE) as f64 / (1024.0 * 1024.0);
    (mb / off, mb / on)
}

fn main() {
    let mut workload = WorkloadConfig::scaled(MIN_TUPLES);
    workload.n_tuples = workload.n_tuples.max(MIN_TUPLES);
    let config = IvaConfig::default();

    let dir = std::env::temp_dir().join(format!("iva-bench-crc-{}", std::process::id()));
    RealVfs.create_dir_all(&dir).expect("temp dir");

    // Disk-backed table + index over the generated workload.
    let dataset = Dataset::generate(&workload);
    let opts = PagerOptions::default();
    let io = IoStats::new(); // table and index together
    let mut table = SwtTable::create(&dir.join("data"), &opts, io.clone()).expect("table");
    // Mirror the generated schema and rows onto the disk table.
    let mem = dataset
        .build_table(&opts, IoStats::new())
        .expect("mem table");
    for (_, def) in mem.catalog().iter() {
        match def.ty {
            iva_swt::AttrType::Text => table.define_text(&def.name).expect("attr"),
            iva_swt::AttrType::Numeric => table.define_numeric(&def.name).expect("attr"),
        };
    }
    for tup in &dataset.tuples {
        table.insert(tup).expect("insert");
    }
    table.flush().expect("flush");
    let mut index = build_index(
        &table,
        IndexTarget::Disk(&dir.join("index.iva")),
        &opts,
        io.clone(),
        config,
    )
    .expect("index");
    index.flush().expect("flush");

    let qs = generate_query_set(&dataset, 3, 30, 5, 4242);
    let queries: Vec<&iva_core::Query> = qs.measured().iter().collect();
    let n_queries = queries.len();

    // The paper's regime: each pool holds 2.8 % of its file.
    let table_pool = paper_cache(table.file().size_bytes(), opts.page_size);
    let index_pool = paper_cache(index.size_bytes(), opts.page_size);
    table.file().resize_cache(table_pool);
    index.resize_cache(index_pool);

    let set_verify = |on: bool| {
        table.file().set_verify_checksums(on);
        index.set_verify_checksums(on);
    };
    black_box(query_pass(&table, &index, &queries)); // warm the OS cache
    let io_before = io.snapshot();
    black_box(query_pass(&table, &index, &queries));
    let page_reads = io.snapshot().since(&io_before).disk_page_reads;
    // Alternate the two settings so drift on a shared host hits both.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        set_verify(false);
        off.push(timed(|| query_pass(&table, &index, &queries)));
        set_verify(true);
        on.push(timed(|| query_pass(&table, &index, &queries)));
    }
    // Neighbours on a shared host only ever add time, so the fastest pass
    // of each setting is the headline; the medians show the spread.
    let (secs_off, secs_on) = (fastest(&off), fastest(&on));
    let overhead_pct = (secs_on / secs_off - 1.0) * 100.0;
    let (median_off, median_on) = (median(off), median(on));
    let overhead_pct_median = (median_on / median_off - 1.0) * 100.0;
    let (raw_off, raw_on) = raw_scan_overhead(&dir);
    let crc_gb_s = kernel_gb_s(crc32c);
    let portable_gb_s = kernel_gb_s(|b| crc32c_append_portable(0, b));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reads_per_query = page_reads as f64 / n_queries as f64;

    println!(
        "checksum_overhead: {n_queries} queries, {} tuples, pools at 2.8 % \
         (table {} pages, index {} pages), {reads_per_query:.0} physical page reads/query",
        workload.n_tuples,
        table_pool / opts.page_size,
        index_pool / opts.page_size,
    );
    println!(
        "  host: {cores} core(s), {}, crc32c kernel {}",
        std::env::consts::ARCH,
        crc32c_kernel()
    );
    println!(
        "  verify off: {:>9.3} ms/query (fastest of {REPS} alternating passes; median {:.3})",
        secs_off * 1e3 / n_queries as f64,
        median_off * 1e3 / n_queries as f64
    );
    println!(
        "  verify on:  {:>9.3} ms/query (median {:.3})",
        secs_on * 1e3 / n_queries as f64,
        median_on * 1e3 / n_queries as f64
    );
    println!("  overhead:   {overhead_pct:>9.2} %   (of medians: {overhead_pct_median:.2} %)");
    println!("  raw pager scan: {raw_off:.0} -> {raw_on:.0} MiB/s (worst case, no query work)");
    println!(
        "  crc32c: {crc_gb_s:.2} GB/s ({}), portable fallback {portable_gb_s:.2} GB/s",
        crc32c_kernel()
    );

    let json = format!(
        "{{\n  \"bench\": \"checksum_overhead\",\n  \
         \"host\": {{\"cores\": {cores}, \"arch\": \"{}\", \"os\": \"{}\", \
         \"storage\": \"RealVfs in the OS temp dir, page cache warm\", \
         \"crc32c_kernel\": \"{}\"}},\n  \
         \"regime\": \"table and index pools at 10/355.7 = 2.8 % of their file; cold pools at \
         the start of every pass\",\n  \"n_tuples\": {},\n  \"n_queries\": {},\n  \
         \"table_pool_pages\": {},\n  \"index_pool_pages\": {},\n  \
         \"disk_page_reads_per_query\": {:.1},\n  \
         \"wall_ms_per_query_verify_off\": {:.4},\n  \
         \"wall_ms_per_query_verify_on\": {:.4},\n  \"overhead_pct\": {:.3},\n  \
         \"wall_meaning\": \"fastest of passes_per_setting alternating passes\",\n  \
         \"median_wall_ms_per_query_verify_off\": {:.4},\n  \
         \"median_wall_ms_per_query_verify_on\": {:.4},\n  \
         \"overhead_pct_of_medians\": {:.3},\n  \
         \"passes_per_setting\": {REPS},\n  \
         \"raw_scan_mb_s_verify_off\": {:.1},\n  \"raw_scan_mb_s_verify_on\": {:.1},\n  \
         \"crc32c_gb_per_sec\": {:.2},\n  \"crc32c_portable_gb_per_sec\": {:.2}\n}}\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        crc32c_kernel(),
        workload.n_tuples,
        n_queries,
        table_pool / opts.page_size,
        index_pool / opts.page_size,
        reads_per_query,
        secs_off * 1e3 / n_queries as f64,
        secs_on * 1e3 / n_queries as f64,
        overhead_pct,
        median_off * 1e3 / n_queries as f64,
        median_on * 1e3 / n_queries as f64,
        overhead_pct_median,
        raw_off,
        raw_on,
        crc_gb_s,
        portable_gb_s,
    );
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_checksum_overhead.json"
    );
    write_vec(&RealVfs, std::path::Path::new(out), json)
        .expect("write BENCH_checksum_overhead.json");
    println!("recorded {out}");

    drop(index);
    drop(table);
    let _ = RealVfs.remove_dir_all(&dir);
}
