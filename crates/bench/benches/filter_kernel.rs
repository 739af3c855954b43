//! Filter-phase estimation kernel: packed-mask word kernel vs the scalar
//! reference, on the signatures of a 100,000-tuple workload.
//!
//! Three variants evaluate the same query against the same signature set:
//!
//!   1. `scalar`       — [`QueryStringMatcher::estimate_scalar`], the
//!      retained per-bit reference implementation;
//!   2. `kernel`       — [`PreparedMatcher::estimate`], the fixed-shape
//!      `(sig & mask) == mask` word kernel on per-signature views;
//!   3. `kernel_block` — [`PreparedMatcher::estimate_block`], the batch
//!      entry point over stride-packed signature cells.
//!
//! Every variant runs on one thread, as the engine runs the kernel: a
//! query's walk never leaves the thread that issued it.
//!
//! Beside each full-column figure stands `first_256_looped`: the same
//! variant over a column made of the full column's first 256 signatures
//! repeated to its length — as many cells, as many bytes streamed, so the
//! caches see the same thing. A branch predictor memorises a 256-signature
//! pattern and cannot memorise 100,000, so a kernel whose cost depends on
//! the signature it reads (a trip count per `cL`, a length-dependent copy,
//! a `max` compiled as a jump) shows up as a gap between the two; a
//! fixed-shape kernel reads the same on both (`full_over_looped` ≈ 1).
//!
//! Results are checked bit-identical across variants on every signature
//! (the CI gate), then ns/signature and signatures/sec are recorded in
//! `BENCH_filter_kernel.json` at the repo root with the host's core count.
//!
//! Run with: `cargo bench -p iva-bench --bench filter_kernel`
//! (the dataset is floored at 100,000 tuples regardless of `IVA_SCALE`).

use iva_storage::{write_vec, RealVfs};
use std::hint::black_box;
use std::time::Instant;

use iva_bench::{report, scale_config};
use iva_core::IvaConfig;
use iva_text::{QueryStringMatcher, SigCodec};
use iva_workload::{Dataset, WorkloadConfig};

const MIN_TUPLES: usize = 100_000;
const QUERY: &[u8] = b"product listing number 42";
const REPS: usize = 5;
/// Signatures of the looped series: short enough to memorise.
const LOOPED: usize = 256;

/// A column of signatures in both shapes the variants read: one heap
/// blob per signature, and stride-packed cells for the block entry point.
struct Column {
    sigs: Vec<Vec<u8>>,
    block: Vec<u8>,
}

impl Column {
    fn new(sigs: Vec<Vec<u8>>, stride: usize) -> Self {
        let mut block = vec![0u8; sigs.len() * stride];
        for (cell, sig) in block.chunks_exact_mut(stride).zip(&sigs) {
            cell[..sig.len()].copy_from_slice(sig);
        }
        Self { sigs, block }
    }
}

struct Point {
    variant: &'static str,
    ns_per_sig: f64,
    sigs_per_sec: f64,
}

fn main() {
    let mut workload = scale_config();
    if workload.n_tuples < MIN_TUPLES {
        workload = WorkloadConfig::scaled(MIN_TUPLES);
    }
    let config = IvaConfig::default();
    report::banner(
        "filter_kernel",
        "packed-mask estimation kernel vs scalar reference (ns/signature)",
        &workload,
        &config,
    );

    // Every text value of the workload, encoded once. This is exactly the
    // signature stream the filter phase decodes during a full scan.
    let codec = SigCodec::new(config.alpha, config.n);
    let dataset = Dataset::generate(&workload);
    let mut sigs: Vec<Vec<u8>> = Vec::new();
    'outer: for t in &dataset.tuples {
        for (_, v) in t.iter() {
            if let iva_swt::Value::Text(ss) = v {
                for s in ss {
                    sigs.push(codec.encode_to_vec(s.as_bytes()));
                    if sigs.len() >= MIN_TUPLES {
                        break 'outer;
                    }
                }
            }
        }
    }
    let n_sigs = sigs.len();

    let builder = QueryStringMatcher::new(&codec, QUERY);
    let prepared = builder.prepare(&codec);
    let stride = codec.max_encoded_len();

    // The memorisable column: the first `LOOPED` signatures repeated to the
    // column's length — the same number of cells and bytes streamed, so
    // the two series differ in predictability and in nothing else.
    let looped_sigs: Vec<Vec<u8>> = sigs
        .iter()
        .take(LOOPED)
        .cycle()
        .take(n_sigs)
        .cloned()
        .collect();
    let (full, repeated) = (Column::new(sigs, stride), Column::new(looped_sigs, stride));

    // The kernel must be invisible in the numbers it produces.
    let mut out = vec![0.0f64; n_sigs];
    prepared
        .estimate_block(&full.block, stride, &mut out)
        .expect("block estimate");
    for (i, sig) in full.sigs.iter().enumerate() {
        let scalar = builder.estimate_scalar(&codec, sig).expect("scalar");
        let kernel = prepared.estimate(sig).expect("kernel");
        assert_eq!(scalar.to_bits(), kernel.to_bits(), "sig {i}");
        assert_eq!(scalar.to_bits(), out[i].to_bits(), "sig {i} (block)");
    }

    // One pass of a variant over a whole column; `out` is the block entry
    // point's output.
    type Pass<'a> = &'a dyn Fn(&Column, &mut [f64]) -> f64;
    let scalar_pass = |col: &Column, _: &mut [f64]| -> f64 {
        let mut acc = 0.0;
        for sig in &col.sigs {
            acc += builder.estimate_scalar(&codec, sig).expect("scalar");
        }
        acc
    };
    let kernel_pass = |col: &Column, _: &mut [f64]| -> f64 {
        let mut acc = 0.0;
        for sig in &col.sigs {
            acc += prepared.estimate(sig).expect("kernel");
        }
        acc
    };
    let block_pass = |col: &Column, out: &mut [f64]| -> f64 {
        prepared
            .estimate_block(&col.block, stride, out)
            .expect("block");
        out.iter().sum()
    };
    let variants: [(&'static str, Pass); 3] = [
        ("scalar", &scalar_pass),
        ("kernel", &kernel_pass),
        ("kernel_block", &block_pass),
    ];

    // One pass of a variant over a whole column; ns/signature.
    let mut time_once = |pass: Pass, col: &Column| -> f64 {
        let start = Instant::now();
        black_box(pass(col, &mut out));
        start.elapsed().as_nanos() as f64 / n_sigs as f64
    };

    // The fastest of `REPS` passes after a warm-up (the steady-state
    // figure). The full and the repeated column are timed in alternation,
    // so a noisy moment on a shared host hits both sides of
    // `full_over_looped` alike.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut points: Vec<Point> = Vec::new();
    let mut looped: Vec<(&str, f64)> = Vec::new();
    for (variant, pass) in variants {
        let (mut ns, mut ns_repeated) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..=REPS {
            let (full_ns, repeated_ns) = (time_once(pass, &full), time_once(pass, &repeated));
            if rep > 0 {
                (ns, ns_repeated) = (ns.min(full_ns), ns_repeated.min(repeated_ns));
            }
        }
        looped.push((variant, ns_repeated));
        points.push(Point {
            variant,
            ns_per_sig: ns,
            sigs_per_sec: 1e9 / ns,
        });
    }

    let ns_of = |variant: &str| {
        points
            .iter()
            .find(|p| p.variant == variant)
            .map(|p| p.ns_per_sig)
            .expect("point")
    };
    let speedup1 = ns_of("scalar") / ns_of("kernel");
    let speedup1_block = ns_of("scalar") / ns_of("kernel_block");

    report::header(&["variant", "ns/sig", "Msig/s", "vs scalar"]);
    for p in &points {
        report::row(&[
            p.variant.to_string(),
            format!("{:.1}", p.ns_per_sig),
            format!("{:.2}", p.sigs_per_sec / 1e6),
            format!("{:.2}x", ns_of("scalar") / p.ns_per_sig),
        ]);
    }
    println!(
        "\nsingle-thread kernel speedup: {speedup1:.2}x \
         (block entry point: {speedup1_block:.2}x) over {n_sigs} signatures \
         (host has {cores} cores)"
    );
    report::header(&[
        "variant",
        "full column",
        "first 256 looped",
        "full / looped",
    ]);
    for (variant, ns) in &looped {
        report::row(&[
            variant.to_string(),
            format!("{:.1}", ns_of(variant)),
            format!("{ns:.1}"),
            format!("{:.2}x", ns_of(variant) / ns),
        ]);
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"variant\": \"{}\", \"ns_per_sig\": {:.2}, \"sigs_per_sec\": {:.0}}}",
                p.variant, p.ns_per_sig, p.sigs_per_sec
            )
        })
        .collect();
    let looped_rows: Vec<String> = looped
        .iter()
        .map(|(variant, ns)| {
            format!(
                "    {{\"variant\": \"{variant}\", \"ns_per_sig\": {ns:.2}, \
                 \"full_over_looped\": {:.3}}}",
                ns_of(variant) / ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"filter_kernel\",\n  \"n_signatures\": {},\n  \
         \"query_bytes\": {},\n  \"alpha\": {},\n  \"n\": {},\n  \"host_cores\": {},\n  \
         \"headline\": \"single-thread ns_per_sig\",\n  \
         \"single_thread_speedup\": {:.3},\n  \
         \"single_thread_speedup_block\": {:.3},\n  \"threshold\": 2.0,\n  \
         \"passes_threshold\": {},\n  \"points\": [\n{}\n  ],\n  \
         \"first_256_looped\": [\n{}\n  ]\n}}\n",
        n_sigs,
        QUERY.len(),
        config.alpha,
        config.n,
        cores,
        speedup1,
        speedup1_block,
        speedup1 >= 2.0,
        rows.join(",\n"),
        looped_rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_filter_kernel.json"
    );
    write_vec(&RealVfs, std::path::Path::new(path), json).expect("write BENCH_filter_kernel.json");
    println!("recorded {path}");
}
