//! Criterion microbenchmarks of the hot kernels: signature encoding, the
//! hit-gram estimator, edit distance, numeric quantization, the
//! interpreted record codec, the walk's weigh + admit step over one block,
//! and a small end-to-end query.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use iva_core::{
    build_index, IndexTarget, IvaConfig, Metric, MetricKind, NumericCodec, Query, ResultPool,
    WeightScheme, TOMBSTONE_PTR,
};
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{decode_record, encode_record, AttrId, SwtTable, Tuple, Value};
use iva_text::{
    edit_distance_bytes, edit_distance_capped, PreparedMatcher, PreparedPattern, SigCodec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The floor of the walk's weigh + admit step: one 256-position block of
/// three columns of bounds, half of them *ndf* (`NaN`), under L2 against
/// a full k = 10 pool whose worst entry is 29. `per_position`
/// is the shape the walk ran before the block pass — per candidate, weigh
/// its three terms, `combine`, `admits_at` — and `block_pass` the walk's
/// now: a terms pass per column, `combine_block`, and the survivors mask
/// — estimates past the pool's threshold dropped 8 at a time, then the
/// pool's `Admission` on what is left. An iteration weighs the
/// block 1,000 times, so ns per position and list = ns/iter ÷ 768,000.
fn bench_block_weigh(c: &mut Criterion) {
    const N: usize = 256;
    const REPS: usize = 1_000;
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let mut bound = || match rng.random_range(0..2) {
        0 => f64::NAN,
        _ => rng.random_range(0.0..12.0),
    };
    let lbs: Vec<f64> = (0..3 * N).map(|_| bound()).collect();
    let (lambda, ndf, metric, limit) = ([1.0, 0.8, 1.25], 20.0, MetricKind::L2, f64::INFINITY);
    let (tids, ptrs): (Vec<u64>, Vec<u64>) = (0..N as u64).map(|t| (t, t * 64)).unzip();
    let mut pool = ResultPool::new(10);
    for tid in 0..10 {
        pool.insert(1_000 + tid, 20.0 + tid as f64);
    }
    c.bench_function("weigh/per_position_1000_blocks", |b| {
        let mut diffs = [0.0; 3];
        b.iter(|| {
            let (mut admitted, mut exacts) = (0u32, 0u32);
            for _ in 0..REPS {
                let lbs = black_box(&lbs);
                for (i, (&tid, &ptr)) in tids.iter().zip(&ptrs).enumerate() {
                    let mut exact = true;
                    for ((d, &lam), col) in diffs.iter_mut().zip(&lambda).zip(lbs.chunks_exact(N)) {
                        let lb = col[i];
                        exact &= lb.is_nan();
                        *d = lam * if lb.is_nan() { ndf } else { lb };
                    }
                    let est = metric.combine(&diffs);
                    if ptr == TOMBSTONE_PTR || est > limit {
                        continue;
                    }
                    admitted += u32::from(pool.admits_at(est, tid));
                    exacts += u32::from(exact);
                }
            }
            (admitted, exacts)
        })
    });
    c.bench_function("weigh/block_pass_1000_blocks", |b| {
        let (mut terms, mut ests) = (vec![0.0; 3 * N], vec![0.0; N]);
        b.iter(|| {
            let mut admitted = 0u32;
            for _ in 0..REPS {
                let lbs = black_box(&lbs);
                for (out, (col, &lam)) in terms
                    .chunks_exact_mut(N)
                    .zip(lbs.chunks_exact(N).zip(&lambda))
                {
                    for (t, &lb) in out.iter_mut().zip(col) {
                        *t = lam * if lb.is_nan() { ndf } else { lb };
                    }
                }
                metric.combine_block(&terms, &mut ests);
                let (bar, cut) = (pool.admission(), pool.threshold().min(limit));
                for ((tids, ptrs), ests) in
                    tids.chunks(64).zip(ptrs.chunks(64)).zip(ests.chunks(64))
                {
                    let mut bits = u64::MAX;
                    for (k, ests) in ests.chunks_exact(8).enumerate() {
                        let past = ests.iter().enumerate();
                        bits &=
                            !(past.fold(0, |b, (j, &e)| b | u64::from(e > cut) << j) << (8 * k));
                    }
                    let mut left = bits;
                    while left != 0 {
                        let j = left.trailing_zeros() as usize;
                        left &= left - 1;
                        let pass = (ptrs[j] != TOMBSTONE_PTR) & bar.admits(ests[j], tids[j]);
                        bits &= !(u64::from(!pass) << j);
                    }
                    admitted += bits.count_ones();
                }
            }
            admitted
        })
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
    bench_block_weigh,
    bench_end_to_end_query
);
criterion_main!(benches);
