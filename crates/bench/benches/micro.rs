//! Criterion microbenchmarks of the hot kernels: signature encoding, the
//! hit-gram estimator, edit distance, numeric quantization, the
//! interpreted record codec, and a small end-to-end query.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use iva_core::{
    build_index, IndexTarget, IvaConfig, MetricKind, NumericCodec, Query, WeightScheme,
};
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{decode_record, encode_record, AttrId, SwtTable, Tuple, Value};
use iva_text::{
    edit_distance_bytes, edit_distance_capped, PreparedMatcher, PreparedPattern, SigCodec,
};

fn bench_signatures(c: &mut Criterion) {
    let codec = SigCodec::new(0.2, 2);
    let s = b"canon powershot a590";
    c.bench_function("sig/encode_20B_string", |b| {
        let mut out = Vec::with_capacity(16);
        b.iter(|| {
            out.clear();
            codec.encode(black_box(s), &mut out);
            black_box(&out);
        })
    });

    let sigs: Vec<Vec<u8>> = (0..256)
        .map(|i| codec.encode_to_vec(format!("product listing number {i}").as_bytes()))
        .collect();
    c.bench_function("sig/estimate_256_signatures", |b| {
        b.iter_batched(
            || PreparedMatcher::new(&codec, b"product listing number 42"),
            |m| {
                let mut acc = 0.0;
                for sig in &sigs {
                    acc += m.estimate(sig).unwrap();
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_edit_distance(c: &mut Criterion) {
    let (q, s) = (b"digital camera xx", b"digtal camera xyz");
    c.bench_function("text/edit_distance_17B", |b| {
        b.iter(|| edit_distance_bytes(black_box(q), black_box(s)))
    });
    c.bench_function("text/edit_distance_17B_cap8", |b| {
        b.iter(|| edit_distance_capped(black_box(q), black_box(s), 8))
    });
    // The refine step's case: the query string's masks built once.
    let pattern = PreparedPattern::new(q);
    c.bench_function("text/edit_distance_17B_prepared", |b| {
        b.iter(|| black_box(&pattern).distance(black_box(s), usize::MAX))
    });
}

fn bench_numeric(c: &mut Criterion) {
    let codec = NumericCodec::new(0.0, 100_000.0, 2);
    c.bench_function("numeric/encode_and_bound", |b| {
        b.iter(|| {
            let code = codec.encode(black_box(12_345.6));
            black_box(codec.lower_bound_dist(code, black_box(54_321.0)))
        })
    });
}

fn bench_record_codec(c: &mut Criterion) {
    let tuple = Tuple::new()
        .with(AttrId(3), Value::text("Digital Camera"))
        .with(AttrId(17), Value::num(230.0))
        .with(AttrId(42), Value::texts(["Canon", "PowerShot"]))
        .with(AttrId(99), Value::num(10_000_000.0));
    let mut buf = Vec::new();
    encode_record(&tuple, &mut buf).unwrap();
    c.bench_function("record/encode_4_fields", |b| {
        let mut out = Vec::with_capacity(128);
        b.iter(|| {
            out.clear();
            encode_record(black_box(&tuple), &mut out).unwrap();
            black_box(&out);
        })
    });
    c.bench_function("record/decode_4_fields", |b| {
        b.iter(|| decode_record(black_box(&buf)).unwrap())
    });
}

fn bench_end_to_end_query(c: &mut Criterion) {
    let opts = PagerOptions {
        page_size: 4096,
        cache_bytes: 4 * 1024 * 1024,
    };
    let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
    let name = table.define_text("name").unwrap();
    let price = table.define_numeric("price").unwrap();
    for i in 0..2_000u32 {
        table
            .insert(
                &Tuple::new()
                    .with(name, Value::text(format!("catalog item {i:05}")))
                    .with(price, Value::num(f64::from(i))),
            )
            .unwrap();
    }
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts,
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = Query::new()
        .text(name, "catalog item 00777")
        .num(price, 777.0);
    c.bench_function("query/top10_of_2000_tuples", |b| {
        b.iter(|| {
            index
                .query(
                    &table,
                    black_box(&q),
                    10,
                    &MetricKind::L2,
                    WeightScheme::Equal,
                )
                .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_signatures,
    bench_edit_distance,
    bench_numeric,
    bench_record_codec,
    bench_end_to_end_query
);
criterion_main!(benches);
