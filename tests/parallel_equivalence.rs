//! Serial/parallel equivalence of the segmented filter scan, end to end
//! through the `SearchRequest` API: at any thread count the top-k results
//! must be **bit-identical** to the single-threaded scan. How many records
//! a plan fetches (`table_accesses`) depends on how many lanes the tuple
//! list is split into and is not compared here.

use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{IvaDb, IvaDbOptions, MetricKind, SearchRequest, WeightScheme};
use proptest::prelude::*;

fn db_from_workload(n: usize) -> (IvaDb, Dataset) {
    let cfg = WorkloadConfig::scaled(n);
    let dataset = Dataset::generate(&cfg);
    let mut db = IvaDb::create_mem(IvaDbOptions::default()).unwrap();
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let name = format!("attr_{i}");
        match ty {
            iva_file::AttrType::Text => db.define_text(&name).unwrap(),
            iva_file::AttrType::Numeric => db.define_numeric(&name).unwrap(),
        };
    }
    for t in &dataset.tuples {
        db.insert(t).unwrap();
    }
    (db, dataset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn parallel_topk_and_accesses_match_serial(seed in 0u64..10_000, k in 1usize..25) {
        let (db, dataset) = db_from_workload(700);
        let qs = generate_query_set(&dataset, 3, 10, 2, seed);
        for q in qs.measured() {
            for metric in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
                let base = db
                    .execute_metric(
                        q,
                        &metric,
                        &SearchRequest::new(k).weights(WeightScheme::Itf).threads(1),
                    )
                    .unwrap();
                for threads in [2usize, 4, 8] {
                    let par = db
                        .execute_metric(
                            q,
                            &metric,
                            &SearchRequest::new(k)
                                .weights(WeightScheme::Itf)
                                .threads(threads),
                        )
                        .unwrap();
                    prop_assert_eq!(base.hits.len(), par.hits.len());
                    for (a, b) in base.hits.iter().zip(&par.hits) {
                        prop_assert_eq!(a.tid, b.tid);
                        prop_assert_eq!(a.dist.to_bits(), b.dist.to_bits());
                    }
                    prop_assert_eq!(base.stats.tuples_scanned, par.stats.tuples_scanned);
                }
            }
        }
    }
}

#[test]
fn parallel_equivalence_survives_deletes() {
    let (mut db, dataset) = db_from_workload(500);
    // Tombstone a band of tuples without triggering the β rebuild.
    let qs = generate_query_set(&dataset, 2, 10, 2, 9);
    for tid in (0u64..500).step_by(51) {
        db.delete(tid).unwrap();
    }
    for q in qs.measured() {
        let base = db.execute(q, &SearchRequest::new(10).threads(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let par = db
                .execute(q, &SearchRequest::new(10).threads(threads))
                .unwrap();
            assert_eq!(base.hits.len(), par.hits.len());
            for (a, b) in base.hits.iter().zip(&par.hits) {
                assert_eq!((a.tid, a.dist.to_bits()), (b.tid, b.dist.to_bits()));
            }
            assert_eq!(base.stats.tuples_scanned, par.stats.tuples_scanned);
        }
    }
}
