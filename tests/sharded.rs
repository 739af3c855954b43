//! Tests of the horizontally partitioned deployment (the paper's Sec. VI
//! claim): sharded search must be exact — identical top-k distances to a
//! single-node database over the same data — under parallel execution.

use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{
    IvaDb, IvaDbOptions, Metric, MetricKind, Query, SearchRequest, ShardedIvaDb, Tuple, Value,
    WeightScheme,
};

fn fill_both(n: usize, shards: usize) -> (IvaDb, ShardedIvaDb, Dataset) {
    let cfg = WorkloadConfig::scaled(n);
    let dataset = Dataset::generate(&cfg);
    let mut single = IvaDb::create_mem(IvaDbOptions::default()).unwrap();
    let mut sharded = ShardedIvaDb::create_mem(shards, IvaDbOptions::default()).unwrap();
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let name = format!("attr_{i}");
        match ty {
            iva_file::AttrType::Text => {
                single.define_text(&name).unwrap();
                sharded.define_text(&name).unwrap();
            }
            iva_file::AttrType::Numeric => {
                single.define_numeric(&name).unwrap();
                sharded.define_numeric(&name).unwrap();
            }
        }
    }
    for t in &dataset.tuples {
        single.insert(t).unwrap();
        sharded.insert(t).unwrap();
    }
    (single, sharded, dataset)
}

#[test]
fn sharded_matches_single_node() {
    let (single, sharded, dataset) = fill_both(2_000, 4);
    assert_eq!(single.len(), sharded.len());
    let qs = generate_query_set(&dataset, 3, 12, 2, 77);
    for q in qs.measured() {
        for k in [1usize, 5, 20] {
            let req = SearchRequest::new(k)
                .metric(MetricKind::L2)
                .weights(WeightScheme::Equal);
            let a = single.execute(q, &req).unwrap().hits;
            let b = sharded.execute(q, &req).unwrap().hits;
            assert_eq!(a.len(), b.len(), "k={k}");
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x.dist - y.dist).abs() < 1e-9,
                    "k={k}: single {:?} vs sharded {:?}",
                    a.iter().map(|h| h.dist).collect::<Vec<_>>(),
                    b.iter().map(|h| h.dist).collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn sharded_crud() {
    let mut db = ShardedIvaDb::create_mem(3, IvaDbOptions::default()).unwrap();
    let name = db.define_text("name").unwrap();
    let mut ids = Vec::new();
    for i in 0..30 {
        ids.push(
            db.insert(&Tuple::new().with(name, Value::text(format!("item {i}"))))
                .unwrap(),
        );
    }
    assert_eq!(db.len(), 30);
    // Round-robin placement touches every shard.
    assert_eq!(ids[0].shard, 0);
    assert_eq!(ids[1].shard, 1);
    assert_eq!(ids[2].shard, 2);
    assert_eq!(ids[3].shard, 0);

    let got = db.get(ids[7]).unwrap().unwrap();
    assert_eq!(got.get(name), Some(&Value::text("item 7")));

    assert!(db.delete(ids[7]).unwrap());
    assert!(!db.delete(ids[7]).unwrap());
    assert_eq!(db.len(), 29);
    assert!(db.get(ids[7]).unwrap().is_none());

    let hits = db
        .execute(&Query::new().text(name, "item 8"), &SearchRequest::new(1))
        .unwrap()
        .hits;
    assert_eq!(hits[0].dist, 0.0);
    assert_eq!(hits[0].id, ids[8]);
}

#[test]
fn single_shard_degenerates_to_plain_db() {
    let mut db = ShardedIvaDb::create_mem(1, IvaDbOptions::default()).unwrap();
    let a = db.define_text("a").unwrap();
    db.insert(&Tuple::new().with(a, Value::text("only")))
        .unwrap();
    let hits = db
        .execute(&Query::new().text(a, "only"), &SearchRequest::new(3))
        .unwrap()
        .hits;
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].dist, 0.0);
}

#[test]
fn zero_shards_rejected() {
    assert!(ShardedIvaDb::create_mem(0, IvaDbOptions::default()).is_err());
}

#[test]
fn sharded_cleanup_runs_per_shard() {
    let mut db = ShardedIvaDb::create_mem(
        2,
        IvaDbOptions {
            cleaning_threshold: 0.3,
            ..Default::default()
        },
    )
    .unwrap();
    let name = db.define_text("name").unwrap();
    let mut ids = Vec::new();
    for i in 0..20 {
        ids.push(
            db.insert(&Tuple::new().with(name, Value::text(format!("x{i}"))))
                .unwrap(),
        );
    }
    for id in ids.iter().take(10) {
        db.delete(*id).unwrap();
    }
    db.maybe_clean().unwrap();
    // β-cleanups fire inside delete() as thresholds are crossed, so after
    // the final sweep every shard sits below the threshold.
    for i in 0..2 {
        let frac = db.shard(i).unwrap().index().deleted_fraction();
        assert!(frac < 0.3, "shard {i} above threshold: {frac}");
    }
    assert_eq!(db.len(), 10);
}

#[test]
fn sharded_merge_breaks_distance_ties_deterministically() {
    // 12 byte-identical tuples round-robined over 3 shards: every hit ties
    // at distance 0, so the answer order is decided purely by the merge's
    // tie-break (distance, then local tid, then shard). That order must be
    // stable across runs and across thread budgets.
    let mut db = ShardedIvaDb::create_mem(3, IvaDbOptions::default()).unwrap();
    let name = db.define_text("name").unwrap();
    for _ in 0..12 {
        db.insert(&Tuple::new().with(name, Value::text("same")))
            .unwrap();
    }
    let query = db.query_builder().text("name", "same").build().unwrap();

    let reference = db
        .execute(&query, &SearchRequest::new(12).threads(1))
        .unwrap();
    assert_eq!(reference.hits.len(), 12);
    for hit in &reference.hits {
        assert_eq!(hit.dist, 0.0);
    }
    // (tid, shard) lexicographic: tid 0 of shards 0..3, then tid 1, ...
    let ids: Vec<(u64, usize)> = reference
        .hits
        .iter()
        .map(|h| (h.id.tid, h.id.shard as usize))
        .collect();
    let expected: Vec<(u64, usize)> = (0..4u64)
        .flat_map(|t| (0..3).map(move |s| (t, s)))
        .collect();
    assert_eq!(ids, expected);

    for threads in [1usize, 2, 3, 8] {
        for _ in 0..3 {
            let run = db
                .execute(&query, &SearchRequest::new(12).threads(threads))
                .unwrap();
            let got: Vec<(u64, usize)> = run
                .hits
                .iter()
                .map(|h| (h.id.tid, h.id.shard as usize))
                .collect();
            assert_eq!(
                got, expected,
                "non-deterministic merge at threads={threads}"
            );
        }
    }
}

/// L1, except that an exact match has no distance at all.
struct NanAtZero;

impl Metric for NanAtZero {
    fn combine(&self, weighted_diffs: &[f64]) -> f64 {
        let sum: f64 = weighted_diffs.iter().sum();
        if sum == 0.0 {
            f64::NAN
        } else {
            sum
        }
    }
}

/// Regression: the merge sorted with `partial_cmp(..).unwrap_or(Equal)`,
/// which is not a total order once a caller's metric yields a NaN — a NaN
/// hit compared equal to everything and ranked by tid alone. The merge
/// order is the pool's: `total_cmp` on distance, then tid, then shard.
#[test]
fn sharded_merge_ranks_nan_distances_last() {
    let mut db = ShardedIvaDb::create_mem(2, IvaDbOptions::default()).unwrap();
    let x = db.define_numeric("x").unwrap();
    // Round-robin: value i lands on shard i % 2 as local tid i / 2.
    for v in [5.0, 5.0, 1.0, 2.0, 3.0, 5.0] {
        db.insert(&Tuple::new().with(x, Value::num(v))).unwrap();
    }
    let out = db
        .execute_metric(
            &Query::new().num(x, 5.0),
            &NanAtZero,
            &SearchRequest::new(6),
        )
        .unwrap();
    let got: Vec<(u64, u64, u32)> = out
        .hits
        .iter()
        .map(|h| (h.dist.to_bits(), h.id.tid, h.id.shard))
        .collect();
    let nan = f64::NAN.to_bits();
    let want = vec![
        (2f64.to_bits(), 2, 0),
        (3f64.to_bits(), 1, 1),
        (4f64.to_bits(), 1, 0),
        (nan, 0, 0),
        (nan, 0, 1),
        (nan, 2, 1),
    ];
    assert_eq!(got, want);
}

/// Regression: `threads(0)` fell through the shard split's `.max(1)` to
/// the serial plan, while a configured `search_threads = 0` means one
/// worker per CPU. Both now resolve through the same rule, so the lanes
/// that ran — visible in `table_accesses` — are those of the CPU count.
#[test]
fn zero_threads_means_one_per_cpu() {
    let (_, sharded, dataset) = fill_both(600, 1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let qs = generate_query_set(&dataset, 3, 6, 1, 11);
    for q in qs.measured() {
        let run = |threads: usize| {
            let req = SearchRequest::new(10).threads(threads);
            sharded.execute(q, &req).unwrap()
        };
        let (serial, auto, explicit) = (run(1), run(0), run(cpus));
        let keys = |o: &iva_file::ShardedSearchOutcome| -> Vec<(u64, u64)> {
            o.hits
                .iter()
                .map(|h| (h.dist.to_bits(), h.id.tid))
                .collect()
        };
        assert_eq!(keys(&auto), keys(&serial));
        assert_eq!(auto.stats.table_accesses, explicit.stats.table_accesses);
    }
}
