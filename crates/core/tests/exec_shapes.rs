//! The execution shapes of the scan spine against the serial scan on one
//! fixed table: segmented-parallel (`query_opts` at 2+ threads) and batch
//! (`query_batch`). The randomized sweep over list organizations,
//! encodings and tier states lives in `properties.rs`.

mod common;

use common::assert_bit_identical;
use iva_core::{
    build_index, BatchItem, IndexTarget, IvaConfig, MetricKind, Query, QueryOptions, QueryOutcome,
    WeightScheme,
};
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{AttrId, SwtTable, Tuple, Value};

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 512,
        cache_bytes: 256 * 1024,
    }
}

/// A table wide enough to exercise every list type: a dense text
/// attribute (Type III), a sparse one (I or II), a dense numeric
/// (Type IV) and a sparse numeric (Type I).
fn table(n: u32) -> SwtTable {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let dense_txt = t.define_text("title").unwrap();
    let sparse_txt = t.define_text("note").unwrap();
    let dense_num = t.define_numeric("price").unwrap();
    let sparse_num = t.define_numeric("stock").unwrap();
    for i in 0..n {
        let mut tup = Tuple::new();
        if i % 5 != 0 {
            tup.set(dense_txt, Value::text(format!("product listing {i:04}")));
        }
        if i % 13 == 0 {
            tup.set(sparse_txt, Value::text(format!("note {i}")));
        }
        if i % 2 == 0 {
            tup.set(dense_num, Value::num(f64::from(i % 97)));
        }
        if i % 11 == 0 {
            tup.set(sparse_num, Value::num(f64::from(i)));
        }
        t.insert(&tup).unwrap();
    }
    t
}

fn probe() -> Query {
    Query::new()
        .text(AttrId(0), "product listing 0042")
        .text(AttrId(1), "note 39")
        .num(AttrId(2), 42.0)
        .num(AttrId(3), 33.0)
}

#[test]
fn parallel_matches_serial_bit_for_bit() {
    let table = table(600);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = probe();
    for k in [1usize, 5, 20] {
        let serial = index
            .query(&table, &q, k, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let o = QueryOptions {
                threads: Some(threads),
                measured: true,
                refine_batch: None,
            };
            let par = index
                .query_opts(&table, &q, k, &MetricKind::L2, WeightScheme::Equal, &o)
                .unwrap();
            assert_bit_identical(&serial, &par, &format!("k={k} threads={threads}"));
        }
    }
}

#[test]
fn parallel_matches_serial_with_tombstones_and_appends() {
    let table = table(400);
    let mut index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    // Tombstone a spread of tuples, including segment-boundary areas.
    for tid in [0u64, 99, 100, 101, 199, 200, 350, 399] {
        assert!(index.delete(tid).unwrap());
    }
    let q = probe();
    let serial = index
        .query(&table, &q, 10, &MetricKind::L1, WeightScheme::Equal)
        .unwrap();
    for threads in [2usize, 3, 7] {
        let o = QueryOptions {
            threads: Some(threads),
            measured: false,
            refine_batch: None,
        };
        let par = index
            .query_opts(&table, &q, 10, &MetricKind::L1, WeightScheme::Equal, &o)
            .unwrap();
        assert_bit_identical(&serial, &par, &format!("threads={threads}"));
        assert_eq!(par.stats.filter_nanos, 0, "unmeasured run read the clock");
        assert_eq!(par.stats.refine_nanos, 0);
    }
}

#[test]
fn thread_count_clamps_to_segment_floor() {
    let table = table(100); // ⌈100/64⌉ = 2 useful segments
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = probe();
    let serial = index
        .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    let o = QueryOptions {
        threads: Some(64),
        measured: true,
        refine_batch: None,
    };
    let par = index
        .query_opts(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal, &o)
        .unwrap();
    assert_bit_identical(&serial, &par, "clamped");
}

#[test]
fn speculative_accesses_only_in_parallel_runs() {
    let table = table(600);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = probe();
    let serial = index
        .query(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert_eq!(serial.stats.speculative_accesses, 0);
    let o = QueryOptions {
        threads: Some(4),
        measured: true,
        refine_batch: None,
    };
    let par = index
        .query_opts(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal, &o)
        .unwrap();
    // Workers 2..4 start with empty pools, so they must over-fetch at
    // least their warm-up candidates.
    assert!(par.stats.speculative_accesses > 0);
    assert_eq!(par.stats.table_accesses, serial.stats.table_accesses);
}

/// A spread of distinct probes so batch members chase different
/// candidates and flush on different schedules.
fn probes() -> Vec<Query> {
    vec![
        Query::new()
            .text(AttrId(0), "product listing 0042")
            .num(AttrId(2), 42.0),
        Query::new().text(AttrId(1), "note 39").num(AttrId(3), 33.0),
        Query::new()
            .text(AttrId(0), "product listing 0511")
            .text(AttrId(1), "note 13")
            .num(AttrId(2), 7.0),
        Query::new().num(AttrId(2), 90.0).num(AttrId(3), 121.0),
    ]
}

#[test]
fn batch_matches_solo_bit_for_bit() {
    let table = table(600);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let qs = probes();
    let ks = [3usize, 10, 1, 5];
    let solo: Vec<QueryOutcome> = qs
        .iter()
        .zip(ks)
        .map(|(q, k)| {
            index
                .query(&table, q, k, &MetricKind::L2, WeightScheme::Equal)
                .unwrap()
        })
        .collect();
    for refine_batch in [1usize, 2, 7, 64, 1024] {
        let o = QueryOptions {
            threads: Some(1),
            measured: true,
            refine_batch: Some(refine_batch),
        };
        let items: Vec<BatchItem<'_>> = qs
            .iter()
            .zip(ks)
            .map(|(query, k)| BatchItem {
                query,
                k,
                weights: WeightScheme::Equal,
            })
            .collect();
        let batch = index
            .query_batch(&table, &items, &MetricKind::L2, &o)
            .unwrap();
        assert_eq!(batch.len(), solo.len());
        for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
            assert_bit_identical(s, b, &format!("B={refine_batch} item={i}"));
        }
    }
}

#[test]
fn batch_matches_solo_with_tombstones() {
    let table = table(400);
    let mut index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    for tid in [0u64, 99, 100, 101, 199, 200, 350, 399] {
        assert!(index.delete(tid).unwrap());
    }
    let qs = probes();
    let solo: Vec<QueryOutcome> = qs
        .iter()
        .map(|q| {
            index
                .query(&table, q, 10, &MetricKind::L1, WeightScheme::Equal)
                .unwrap()
        })
        .collect();
    let o = QueryOptions {
        threads: Some(1),
        measured: false,
        refine_batch: Some(16),
    };
    let items: Vec<BatchItem<'_>> = qs
        .iter()
        .map(|query| BatchItem {
            query,
            k: 10,
            weights: WeightScheme::Equal,
        })
        .collect();
    let batch = index
        .query_batch(&table, &items, &MetricKind::L1, &o)
        .unwrap();
    for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
        assert_bit_identical(s, b, &format!("item={i}"));
        assert_eq!(b.stats.filter_nanos, 0, "unmeasured run read the clock");
        assert_eq!(b.stats.refine_nanos, 0);
    }
}

#[test]
fn empty_and_singleton_batches() {
    let table = table(200);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let o = QueryOptions::default();
    assert!(index
        .query_batch(&table, &[], &MetricKind::L2, &o)
        .unwrap()
        .is_empty());
    let q = Query::new().text(AttrId(0), "product listing 0042");
    let solo = index
        .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    let batch = index
        .query_batch(
            &table,
            &[BatchItem {
                query: &q,
                k: 5,
                weights: WeightScheme::Equal,
            }],
            &MetricKind::L2,
            &o,
        )
        .unwrap();
    assert_bit_identical(&solo, &batch[0], "singleton");
}

#[test]
fn identical_members_get_identical_answers() {
    let table = table(300);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = Query::new()
        .text(AttrId(0), "product listing 0123")
        .num(AttrId(2), 23.0);
    let items = vec![
        BatchItem {
            query: &q,
            k: 7,
            weights: WeightScheme::Equal,
        };
        3
    ];
    let o = QueryOptions {
        threads: Some(1),
        measured: true,
        refine_batch: Some(8),
    };
    let batch = index
        .query_batch(&table, &items, &MetricKind::L2, &o)
        .unwrap();
    let solo = index
        .query(&table, &q, 7, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    for b in &batch {
        assert_bit_identical(&solo, b, "identical member");
    }
}
