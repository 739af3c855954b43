//! Compressed vector lists: what the delta/bit-packed encodings buy on
//! the paper's workload.
//!
//! Builds the same dataset twice — `compress_lists` off (the raw v2
//! layout) and on (packed vector-list frames: delta/bit-packed tid
//! runs, dictionary-coded signatures, ndf run-length frames; plus the
//! delta/bit-packed tuple directory) — and runs one query sweep against
//! each, asserting bit-identical answers along the way. Records, per
//! system:
//!
//! * **end-to-end query time** — wall clock on one thread, the headline
//!   (`e2e_packed_over_raw`, with the host it ran on),
//! * **bytes on disk** — the whole index file,
//! * **filter-phase list bytes** — logical (raw-equivalent) vs physical
//!   (page-padded stored) bytes swept per query, the scan-phase
//!   currency of the paper's cost model, split into the per-query
//!   directory sweep and the vector lists it points at,
//! * **codec throughput** — MB/s of raw list bytes through the packed
//!   encoder and the whole-image decoder, measured standalone.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p iva-bench --bench list_compression
//! cargo bench -p iva-bench --bench list_compression -- --tuples 2000 --queries 24   # CI smoke
//! ```
//!
//! Flags (after `--`): `--tuples <n>` dataset size (default 20000),
//! `--queries <n>` measured queries (default 120), `--values <n>` values
//! per query (default 3), `--k <n>` top-k (default 10). Results land in
//! `BENCH_list_compression.json`. The ≥1.5× physical-bytes reduction
//! and the e2e-no-worse envelope are asserted only at full size
//! (≥ 10000 tuples); smoke runs just record.

use std::time::Instant;

use iva_bench::{bench_pager_options, report, CACHE_FRACTION};
use iva_core::{
    build_index, choose_num_type, choose_text_type, encode_num_list, encode_packed_num_list,
    encode_packed_text_list, encode_text_list, IndexTarget, IvaConfig, IvaIndex, MetricKind,
    NumericCodec, PackedReader, Query, QueryOptions, WeightScheme,
};
use iva_storage::{write_contiguous_list, write_vec, IoStats, ListReader, Pager, RealVfs};
use iva_swt::{AttrType, SwtTable, Value};
use iva_workload::{generate_query_set, Dataset, WorkloadConfig};

struct Args {
    tuples: usize,
    queries: usize,
    values: usize,
    k: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        tuples: 20_000,
        queries: 120,
        values: 3,
        k: 10,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1);
        match (flag, value) {
            ("--tuples", Some(v)) => {
                args.tuples = v.parse().expect("--tuples takes a number");
                i += 2;
            }
            ("--queries", Some(v)) => {
                args.queries = v.parse().expect("--queries takes a number");
                i += 2;
            }
            ("--values", Some(v)) => {
                args.values = v.parse().expect("--values takes a number");
                i += 2;
            }
            ("--k", Some(v)) => {
                args.k = v.parse().expect("--k takes a number");
                i += 2;
            }
            _ => i += 1,
        }
    }
    args
}

/// One system's aggregates over the measured sweep.
#[derive(Default)]
struct SweepStats {
    e2e_ms: f64,
    filter_ms: f64,
    list_bytes_logical: u64,
    list_bytes_physical: u64,
    table_accesses: u64,
}

fn run_sweep(
    index: &IvaIndex,
    table: &SwtTable,
    queries: &[Query],
    k: usize,
    expect: Option<&[Vec<(u64, u64)>]>,
) -> (SweepStats, Vec<Vec<(u64, u64)>>) {
    let opts = QueryOptions { threads: Some(1) };
    let mut out = SweepStats::default();
    let mut answers = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let start = Instant::now();
        let r = index
            .query_opts(table, q, k, &MetricKind::L2, WeightScheme::Equal, &opts)
            .expect("query");
        out.e2e_ms += start.elapsed().as_secs_f64() * 1e3;
        out.filter_ms += r.stats.filter_ms();
        out.list_bytes_logical += r.stats.list_bytes_logical;
        out.list_bytes_physical += r.stats.list_bytes_physical;
        out.table_accesses += r.stats.table_accesses;
        let keys: Vec<(u64, u64)> = r
            .results
            .iter()
            .map(|e| (e.tid, e.dist.to_bits()))
            .collect();
        if let Some(expect) = expect {
            assert_eq!(
                keys, expect[qi],
                "compressed answer differs from raw for query {qi}"
            );
        }
        answers.push(keys);
    }
    (out, answers)
}

/// Codec micro-measurement: per-attribute list images rebuilt from the
/// dataset through the public encoders, timing the packed encode and the
/// frame-wise decode against the raw layout.
struct CodecStats {
    raw_bytes: u64,
    packed_bytes: u64,
    encode_secs: f64,
    decode_secs: f64,
}

fn codec_throughput(dataset: &Dataset, config: &IvaConfig) -> CodecStats {
    let sig_codec = config.sig_codec();
    let n_attrs = dataset.attr_types.len();
    let mut text_items: Vec<Vec<(u32, Vec<Vec<u8>>)>> = vec![Vec::new(); n_attrs];
    let mut num_values: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_attrs];
    let all_tids: Vec<u32> = (0..dataset.tuples.len() as u32).collect();
    for (tid, tuple) in dataset.tuples.iter().enumerate() {
        for (attr, value) in tuple.iter() {
            match value {
                Value::Text(strings) => text_items[attr.index()].push((
                    tid as u32,
                    strings
                        .iter()
                        .map(|s| sig_codec.encode_to_vec(s.as_bytes()))
                        .collect(),
                )),
                Value::Num(v) => num_values[attr.index()].push((tid as u32, *v)),
            }
        }
    }

    let mut stats = CodecStats {
        raw_bytes: 0,
        packed_bytes: 0,
        encode_secs: 0.0,
        decode_secs: 0.0,
    };
    let pager = Pager::create_mem(&bench_pager_options(), IoStats::new());
    let n_tuples = all_tids.len() as u64;
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let (raw, packed) = match ty {
            AttrType::Text => {
                let items = &text_items[i];
                if items.is_empty() {
                    continue;
                }
                let str_count: u64 = items.iter().map(|(_, s)| s.len() as u64).sum();
                let lty = choose_text_type(str_count, items.len() as u64, n_tuples);
                let raw = encode_text_list(lty, items, &all_tids).unwrap();
                let t0 = Instant::now();
                let packed = encode_packed_text_list(lty, items, &all_tids);
                stats.encode_secs += t0.elapsed().as_secs_f64();
                let handle = write_contiguous_list(&pager, &packed).expect("write list");
                let reader = ListReader::open(pager.clone(), handle).expect("open list");
                let t0 = Instant::now();
                let decoded = PackedReader::new_text(reader, lty, &sig_codec)
                    .and_then(|r| r.decode_to_vec())
                    .expect("decode");
                stats.decode_secs += t0.elapsed().as_secs_f64();
                assert_eq!(decoded, raw, "decode mismatch on text attr {i}");
                (raw, packed)
            }
            AttrType::Numeric => {
                let values = &num_values[i];
                if values.is_empty() {
                    continue;
                }
                let (min, max) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, v)| {
                        (lo.min(*v), hi.max(*v))
                    });
                let codec = NumericCodec::new(min, max, config.numeric_code_bytes());
                let items: Vec<(u32, u64)> =
                    values.iter().map(|(t, v)| (*t, codec.encode(*v))).collect();
                let lty =
                    choose_num_type(config.numeric_code_bytes(), items.len() as u64, n_tuples);
                let raw = encode_num_list(lty, &items, &all_tids, &codec).unwrap();
                let t0 = Instant::now();
                let packed = encode_packed_num_list(lty, &items, &all_tids, &codec);
                stats.encode_secs += t0.elapsed().as_secs_f64();
                let handle = write_contiguous_list(&pager, &packed).expect("write list");
                let reader = ListReader::open(pager.clone(), handle).expect("open list");
                let t0 = Instant::now();
                let decoded = PackedReader::new_num(reader, lty, &codec)
                    .and_then(|r| r.decode_to_vec())
                    .expect("decode");
                stats.decode_secs += t0.elapsed().as_secs_f64();
                assert_eq!(decoded, raw, "decode mismatch on numeric attr {i}");
                (raw, packed)
            }
        };
        stats.raw_bytes += raw.len() as u64;
        stats.packed_bytes += packed.len() as u64;
    }
    stats
}

fn main() {
    let args = parse_args();
    let workload = WorkloadConfig::scaled(args.tuples);
    let config = IvaConfig::default();
    report::banner(
        "list_compression",
        "compressed vector lists: size, filter bytes, e2e time, codec throughput",
        &workload,
        &config,
    );

    let opts = bench_pager_options();
    let dataset = Dataset::generate(&workload);
    let table_io = IoStats::new();
    let table = dataset
        .build_table(&opts, table_io.clone())
        .expect("table build");
    let scaled = |bytes: u64| ((bytes as f64 * CACHE_FRACTION) as usize).max(16 * 4096);
    table.file().resize_cache(scaled(table.file().size_bytes()));

    let raw_io = IoStats::new();
    let raw_index = build_index(
        &table,
        IndexTarget::Mem,
        &opts,
        raw_io.clone(),
        IvaConfig {
            compress_lists: false,
            ..config
        },
    )
    .expect("raw build");
    let packed_io = IoStats::new();
    let packed_index = build_index(
        &table,
        IndexTarget::Mem,
        &opts,
        packed_io.clone(),
        IvaConfig {
            compress_lists: true,
            ..config
        },
    )
    .expect("packed build");
    // Identical, deliberately tight pools: the regime where swept bytes
    // translate into buffer-pool pressure.
    let index_cache_bytes = 32 * 4096;
    raw_index.resize_cache(index_cache_bytes);
    packed_index.resize_cache(index_cache_bytes);

    // Where the bytes live: per list organization, raw-equivalent
    // (logical) vs stored bytes after `choose_encoding`.
    {
        use std::collections::BTreeMap;
        let mut by_type: BTreeMap<(bool, u8), (u64, u64, u64, u64)> = BTreeMap::new();
        for a in 0..packed_index.n_attrs() as u32 {
            let e = packed_index.attr_entry(iva_swt::AttrId(a)).expect("entry");
            let slot = by_type
                .entry((e.is_text, e.list_type as u8))
                .or_insert((0, 0, 0, 0));
            slot.0 += 1;
            slot.1 += e.logical_len;
            slot.2 += e.vlist.len;
            slot.3 += u64::from(e.encoding == iva_core::ListEncoding::Packed);
        }
        report::header(&[
            "lists",
            "count",
            "packed",
            "logical MB",
            "stored MB",
            "ratio",
        ]);
        for ((is_text, ty), (count, logical, stored, packed)) in &by_type {
            report::row(&[
                format!("{} type {ty}", if *is_text { "text" } else { "num" }),
                count.to_string(),
                packed.to_string(),
                report::mb(*logical),
                report::mb(*stored),
                format!("{:.2}x", *logical as f64 / (*stored).max(1) as f64),
            ]);
        }
    }

    let qs = generate_query_set(&dataset, args.values, args.queries + 8, 8, 0x51C0);
    // Warm both pools on the warm prefix, then measure the suffix. Byte
    // counters are deterministic; wall-clock is best-of-3 interleaved
    // repetitions so scheduler noise doesn't decide the e2e envelope.
    run_sweep(&raw_index, &table, &qs.queries[..qs.warm], args.k, None);
    run_sweep(&packed_index, &table, &qs.queries[..qs.warm], args.k, None);
    let (mut raw_sweep, answers) = run_sweep(&raw_index, &table, qs.measured(), args.k, None);
    let (mut packed_sweep, _) =
        run_sweep(&packed_index, &table, qs.measured(), args.k, Some(&answers));
    for _ in 1..3 {
        let (r, _) = run_sweep(&raw_index, &table, qs.measured(), args.k, None);
        let (p, _) = run_sweep(&packed_index, &table, qs.measured(), args.k, Some(&answers));
        raw_sweep.e2e_ms = raw_sweep.e2e_ms.min(r.e2e_ms);
        raw_sweep.filter_ms = raw_sweep.filter_ms.min(r.filter_ms);
        packed_sweep.e2e_ms = packed_sweep.e2e_ms.min(p.e2e_ms);
        packed_sweep.filter_ms = packed_sweep.filter_ms.min(p.filter_ms);
    }
    assert_eq!(
        raw_sweep.table_accesses, packed_sweep.table_accesses,
        "compression changed refinement behaviour"
    );
    assert_eq!(
        raw_sweep.list_bytes_logical, packed_sweep.list_bytes_logical,
        "logical accounting must be encoding-independent"
    );

    let codec = codec_throughput(&dataset, &config);

    let n = qs.measured().len() as f64;
    let nq = qs.measured().len() as u64;
    // Every plan scans the tuple-list directory once per query. Under
    // `compress_lists` it is stored as delta/bit-packed frames (liveness
    // bitmaps keep in-place tombstoning), so the two systems sweep
    // different directory bytes; split it out per system so the report
    // shows where the reduction comes from.
    let page = opts.page_size as u64;
    let cap = page - iva_storage::LIST_PAGE_HEADER as u64;
    // The raw stream is exactly 12 bytes per entry, i.e. the logical size
    // of the directory in both systems.
    let dir_logical = raw_index.tuple_list_bytes();
    let raw_dir_phys = raw_index.tuple_list_bytes().div_ceil(cap) * page;
    let packed_dir_phys = packed_index.tuple_list_bytes().div_ceil(cap) * page;
    let vec_phys =
        |s: &SweepStats, dir_phys: u64| s.list_bytes_physical.saturating_sub(nq * dir_phys);
    let vec_logical = |s: &SweepStats| s.list_bytes_logical.saturating_sub(nq * dir_logical);

    let size_ratio = raw_index.size_bytes() as f64 / packed_index.size_bytes().max(1) as f64;
    let vlist_reduction = vec_phys(&raw_sweep, raw_dir_phys) as f64
        / vec_phys(&packed_sweep, packed_dir_phys).max(1) as f64;
    let dir_reduction = raw_dir_phys as f64 / packed_dir_phys.max(1) as f64;
    let physical_reduction =
        raw_sweep.list_bytes_physical as f64 / packed_sweep.list_bytes_physical.max(1) as f64;
    let e2e_ratio = packed_sweep.e2e_ms / raw_sweep.e2e_ms.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let enc_mbps = codec.raw_bytes as f64 / 1e6 / codec.encode_secs.max(1e-9);
    let dec_mbps = codec.raw_bytes as f64 / 1e6 / codec.decode_secs.max(1e-9);

    report::header(&[
        "system",
        "e2e ms/query",
        "filter ms/query",
        "index MB",
        "filter MB/query (physical)",
        "dir MB/query",
        "vlist MB/query",
    ]);
    report::row(&[
        "raw".to_string(),
        report::f(raw_sweep.e2e_ms / n),
        report::f(raw_sweep.filter_ms / n),
        report::mb(raw_index.size_bytes()),
        report::mb((raw_sweep.list_bytes_physical as f64 / n) as u64),
        report::mb(raw_dir_phys),
        report::mb((vec_phys(&raw_sweep, raw_dir_phys) as f64 / n) as u64),
    ]);
    report::row(&[
        "packed".to_string(),
        report::f(packed_sweep.e2e_ms / n),
        report::f(packed_sweep.filter_ms / n),
        report::mb(packed_index.size_bytes()),
        report::mb((packed_sweep.list_bytes_physical as f64 / n) as u64),
        report::mb(packed_dir_phys),
        report::mb((vec_phys(&packed_sweep, packed_dir_phys) as f64 / n) as u64),
    ]);
    println!(
        "\nper-query logical filter bytes (identical in both): {}",
        report::mb((raw_sweep.list_bytes_logical as f64 / n) as u64)
    );
    println!(
        "e2e packed/raw {e2e_ratio:.2}x (wall clock, {cores} cores); index size ratio \
         {size_ratio:.2}x, filter-phase bytes reduction {physical_reduction:.2}x \
         (directory {dir_reduction:.2}x, vector lists {vlist_reduction:.2}x)"
    );
    println!(
        "codec: encode {enc_mbps:.0} MB/s, whole-image decode {dec_mbps:.0} MB/s \
         ({} raw -> {} packed bytes)",
        codec.raw_bytes, codec.packed_bytes
    );
    if args.tuples >= 10_000 {
        assert!(
            physical_reduction >= 1.5,
            "tentpole acceptance: expected >=1.5x filter-phase bytes-scanned reduction, got \
             {physical_reduction:.2}x"
        );
        assert!(
            e2e_ratio <= 1.10,
            "tentpole acceptance: compressed e2e time must be no worse than raw \
             (ratio {e2e_ratio:.2}x)"
        );
    }

    let system_json = |name: &str, index: &IvaIndex, s: &SweepStats, dir_phys: u64| {
        format!(
            "    {{\"system\": \"{name}\", \"e2e_ms_mean\": {:.6}, \"filter_ms_mean\": {:.6}, \
             \"index_bytes\": {}, \
             \"list_bytes_logical\": {}, \"list_bytes_physical\": {}, \
             \"dir_bytes_physical\": {dir_phys}, \
             \"vlist_bytes_logical\": {}, \"vlist_bytes_physical\": {}, \
             \"table_accesses\": {}}}",
            s.e2e_ms / n,
            s.filter_ms / n,
            index.size_bytes(),
            s.list_bytes_logical,
            s.list_bytes_physical,
            vec_logical(s),
            vec_phys(s, dir_phys),
            s.table_accesses,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"list_compression\",\n  \
         \"host\": {{\"cores\": {cores}, \"arch\": \"{}\", \"os\": \"{}\"}},\n  \
         \"headline\": \"e2e_packed_over_raw: wall-clock ms per query, packed over raw \
         (one thread, best of 3 interleaved sweeps)\",\n  \
         \"e2e_packed_over_raw\": {e2e_ratio:.4},\n  \
         \"n_tuples\": {},\n  \"n_attrs\": {},\n  \
         \"k\": {},\n  \"queries\": {},\n  \"values_per_query\": {},\n  \
         \"index_cache_bytes\": {index_cache_bytes},\n  \
         \"size_ratio\": {size_ratio:.4},\n  \"filter_physical_reduction\": {physical_reduction:.4},\n  \
         \"directory_physical_reduction\": {dir_reduction:.4},\n  \
         \"vlist_physical_reduction\": {vlist_reduction:.4},\n  \
         \"codec\": {{\"raw_bytes\": {}, \"packed_bytes\": {}, \
         \"encode_mb_per_s\": {enc_mbps:.1}, \"decode_mb_per_s\": {dec_mbps:.1}}},\n  \
         \"systems\": [\n{}\n  ]\n}}\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        workload.n_tuples,
        workload.n_attrs,
        args.k,
        qs.measured().len(),
        args.values,
        codec.raw_bytes,
        codec.packed_bytes,
        [
            system_json("raw", &raw_index, &raw_sweep, raw_dir_phys),
            system_json("packed", &packed_index, &packed_sweep, packed_dir_phys),
        ]
        .join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_list_compression.json"
    );
    write_vec(&RealVfs, std::path::Path::new(path), json)
        .expect("write BENCH_list_compression.json");
    println!("recorded {path}");
}
