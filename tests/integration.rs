//! Whole-system integration tests: `IvaDb` lifecycle, persistence,
//! automatic cleanup, agreement with the baselines on generated
//! workloads, and what an `LsmDb` define commits.

use std::path::Path;
use std::sync::Arc;

use iva_file::baselines::{DirectScan, SiiIndex};
use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{
    IvaDb, IvaDbOptions, LsmDb, LsmOptions, MetricKind, PagerOptions, Query, SearchRequest, Tuple,
    Value, WeightScheme,
};
use iva_storage::{MemVfs, RealVfs, Vfs};

fn mem_db() -> IvaDb {
    IvaDb::create_mem(IvaDbOptions::default()).unwrap()
}

#[test]
fn crud_lifecycle() {
    let mut db = mem_db();
    let name = db.define_text("name").unwrap();
    let price = db.define_numeric("price").unwrap();

    let t1 = db
        .insert(
            &Tuple::new()
                .with(name, Value::text("alpha"))
                .with(price, Value::num(10.0)),
        )
        .unwrap();
    let t2 = db
        .insert(
            &Tuple::new()
                .with(name, Value::text("beta"))
                .with(price, Value::num(20.0)),
        )
        .unwrap();
    assert_eq!(db.len(), 2);

    // Read back.
    let got = db.get(t1).unwrap().unwrap();
    assert_eq!(got.get(name), Some(&Value::text("alpha")));

    // Update gives a fresh id (paper Sec. IV-B).
    let t3 = db
        .update(
            t2,
            &Tuple::new()
                .with(name, Value::text("beta v2"))
                .with(price, Value::num(21.0)),
        )
        .unwrap();
    assert_ne!(t2, t3);
    assert!(db.get(t2).unwrap().is_none());
    assert!(db.get(t3).unwrap().is_some());

    // Delete.
    assert!(db.delete(t1).unwrap());
    assert!(!db.delete(t1).unwrap());
    assert_eq!(db.len(), 1);

    // Search still exact.
    let hits = db
        .execute(&Query::new().text(name, "beta v2"), &SearchRequest::new(5))
        .unwrap()
        .hits;
    assert_eq!(hits[0].tid, t3);
    assert_eq!(hits[0].dist, 0.0);
}

#[test]
fn update_of_unknown_tuple_fails() {
    let mut db = mem_db();
    let name = db.define_text("name").unwrap();
    assert!(db
        .update(42, &Tuple::new().with(name, Value::text("x")))
        .is_err());
}

#[test]
fn auto_cleanup_triggers_at_beta() {
    let mut db = IvaDb::create_mem(IvaDbOptions {
        cleaning_threshold: 0.10,
        ..Default::default()
    })
    .unwrap();
    let name = db.define_text("name").unwrap();
    let mut tids = Vec::new();
    for i in 0..50 {
        tids.push(
            db.insert(&Tuple::new().with(name, Value::text(format!("item {i}"))))
                .unwrap(),
        );
    }
    // Delete 4 tuples: fraction 8% < β, no cleanup.
    for &t in &tids[..4] {
        db.delete(t).unwrap();
    }
    assert_eq!(db.deleted(), 4);
    // The 5th deletion crosses 10%: rebuild fires and tombstones vanish.
    db.delete(tids[4]).unwrap();
    assert_eq!(db.deleted(), 0);
    assert_eq!(db.len(), 45);
    // Content preserved.
    let hits = db
        .execute(&Query::new().text(name, "item 30"), &SearchRequest::new(1))
        .unwrap()
        .hits;
    assert_eq!(hits[0].dist, 0.0);
}

/// β ≥ 1 turns automatic cleaning off, even once every tuple is deleted
/// (the deleted fraction then reaches 1); β = 0.5 cleans on the way.
#[test]
fn beta_of_one_never_cleans() {
    for (beta, cleans) in [(1.0, false), (0.5, true)] {
        let mut db = IvaDb::create_mem(IvaDbOptions {
            cleaning_threshold: beta,
            ..Default::default()
        })
        .unwrap();
        let name = db.define_text("name").unwrap();
        let tuple = |i| Tuple::new().with(name, Value::text(format!("item {i}")));
        let tids: Vec<_> = (0..20).map(|i| db.insert(&tuple(i)).unwrap()).collect();
        for tid in tids {
            assert!(db.delete(tid).unwrap());
        }
        assert_eq!(db.len(), 0);
        let tombstones = db.deleted();
        assert_eq!(
            tombstones == 0,
            cleans,
            "β = {beta}: {tombstones} tombstones"
        );
    }
}

#[test]
fn disk_persistence_full_cycle() {
    let dir = std::env::temp_dir().join(format!("iva-db-int-{}", std::process::id()));
    let _ = RealVfs.remove_dir_all(&dir);
    let name_attr;
    {
        let mut db = IvaDb::create(&dir, IvaDbOptions::default()).unwrap();
        name_attr = db.define_text("name").unwrap();
        let year = db.define_numeric("year").unwrap();
        for i in 0..100 {
            db.insert(
                &Tuple::new()
                    .with(name_attr, Value::text(format!("record number {i}")))
                    .with(year, Value::num(1990.0 + f64::from(i % 30))),
            )
            .unwrap();
        }
        db.delete(7).unwrap();
        db.flush().unwrap();
    }
    {
        let mut db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
        assert_eq!(db.len(), 99);
        let hits = db
            .execute(
                &Query::new().text(name_attr, "record number 42"),
                &SearchRequest::new(1),
            )
            .unwrap()
            .hits;
        assert_eq!(hits[0].dist, 0.0);
        assert!(db.get(7).unwrap().is_none());
        // Mutate after reopen; rebuild on disk; reopen again.
        db.insert(&Tuple::new().with(name_attr, Value::text("post-reopen insert")))
            .unwrap();
        db.rebuild().unwrap();
        db.flush().unwrap();
        assert_eq!(db.len(), 100);
    }
    let db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
    assert_eq!(db.len(), 100);
    let hits = db
        .execute(
            &Query::new().text(name_attr, "post-reopen insert"),
            &SearchRequest::new(1),
        )
        .unwrap()
        .hits;
    assert_eq!(hits[0].dist, 0.0);
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// An `LsmDb` define is a mutation only when it grows the catalog: a new
/// attribute is committed by the next flush, with nothing to seal, and
/// reopens; a define of a known name neither stales a prepared plan nor
/// rewrites the manifest.
#[test]
fn lsm_define_commits_only_a_new_attribute() {
    let (mem, dir) = (MemVfs::new(), Path::new("lsm"));
    let manifest = dir.join("manifest.ivls");
    let opts = LsmOptions {
        memtable_limit: 1,
        compact_fanout: 0,
        ..Default::default()
    };
    let open = || LsmDb::open_with_vfs(Arc::new(mem.clone()), dir, opts.clone()).unwrap();
    let mut db = LsmDb::create_with_vfs(Arc::new(mem.clone()), dir, opts.clone()).unwrap();
    let price = db.define_numeric("price").unwrap();
    db.flush().unwrap();
    assert!(db.segments().is_empty());
    let mut db = open();
    assert_eq!(db.attr("price"), Some(price));

    db.insert(&Tuple::new().with(price, Value::num(4.0)))
        .unwrap();
    let plan = db.plan_maintenance().unwrap().expect("a seal");
    assert_eq!(db.define_numeric("price").unwrap(), price);
    assert!(db.publish_maintenance(plan).unwrap());
    let written = db.manifest_io().snapshot().bytes_written;
    let bytes = mem.contents(&manifest).unwrap();
    assert_eq!(db.define_numeric("price").unwrap(), price);
    db.flush().unwrap();
    assert_eq!(db.manifest_io().snapshot().bytes_written, written);
    assert_eq!(mem.contents(&manifest).unwrap(), bytes);

    // A new name does both.
    db.insert(&Tuple::new().with(price, Value::num(5.0)))
        .unwrap();
    let plan = db.plan_maintenance().unwrap().expect("a seal");
    let year = db.define_numeric("year").unwrap();
    assert!(
        db.publish_maintenance(plan).is_err(),
        "a stale plan published"
    );
    db.flush().unwrap();
    assert!(db.manifest_io().snapshot().bytes_written > written);
    assert_eq!(open().attr("year"), Some(year));
}

/// A store written over many sessions — open, insert one tuple, flush,
/// drop, a hundred times, as `ivactl insert` does — so that its table
/// spills onto a second page between two sessions, then rebuilt and
/// reopened: every tuple survives and reads back.
#[test]
fn rebuild_keeps_a_table_written_across_sessions() {
    let dir = std::env::temp_dir().join(format!("iva-db-sessions-{}", std::process::id()));
    let _ = RealVfs.remove_dir_all(&dir);
    let title = {
        let mut db = IvaDb::create(&dir, IvaDbOptions::default()).unwrap();
        let title = db.define_text("title").unwrap();
        db.flush().unwrap();
        title
    };
    let text = |i: u64| format!("product listing number {i}");
    let mut tids = Vec::new();
    for i in 1..=100 {
        let mut db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
        tids.push(
            db.insert(&Tuple::new().with(title, Value::text(text(i))))
                .unwrap(),
        );
        db.flush().unwrap();
    }
    {
        let mut db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
        assert_eq!(db.len(), 100);
        db.rebuild().unwrap();
        assert_eq!(db.len(), 100);
    }
    let db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
    assert_eq!(db.len(), 100);
    for (i, &tid) in (1..=100).zip(&tids) {
        let got = db.get(tid).unwrap().expect("live tuple");
        assert_eq!(got.get(title), Some(&Value::text(text(i))), "tid {tid}");
    }
    let hits = db
        .execute(
            &Query::new().text(title, "product listing number 100"),
            &SearchRequest::new(1),
        )
        .unwrap()
        .hits;
    assert_eq!((hits[0].tid, hits[0].dist), (tids[99], 0.0));
    RealVfs.remove_dir_all(&dir).unwrap();
}

#[test]
fn generated_workload_agreement_with_baselines() {
    let cfg = WorkloadConfig::scaled(3_000);
    let dataset = Dataset::generate(&cfg);
    let opts = PagerOptions::default();
    let table = dataset
        .build_table(&opts, iva_file::IoStats::new())
        .unwrap();
    let index = iva_file::build_index(
        &table,
        iva_file::IndexTarget::Mem,
        &opts,
        iva_file::IoStats::new(),
        iva_file::IvaConfig::default(),
    )
    .unwrap();
    let sii = SiiIndex::build(&table, &opts, iva_file::IoStats::new(), 20.0).unwrap();
    let dst = DirectScan::new(20.0);

    let qs = generate_query_set(&dataset, 3, 15, 5, 1234);
    for q in qs.measured() {
        let a = index
            .query(&table, q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let b = sii
            .query(&table, q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let c = dst
            .query(&table, q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let da: Vec<f64> = a.results.iter().map(|e| e.dist).collect();
        let db_: Vec<f64> = b.results.iter().map(|e| e.dist).collect();
        let dc: Vec<f64> = c.results.iter().map(|e| e.dist).collect();
        for ((x, y), z) in da.iter().zip(&db_).zip(&dc) {
            assert!(
                (x - y).abs() < 1e-9 && (x - z).abs() < 1e-9,
                "{da:?} {db_:?} {dc:?}"
            );
        }
        // And the sampled query must have a strong match somewhere (its
        // values came from the data).
        assert!(!a.results.is_empty());
    }
}

#[test]
fn search_hits_materialize_matching_tuples() {
    let mut db = mem_db();
    let brand = db.define_text("brand").unwrap();
    for b in ["Canon", "Sony", "Nikon", "Cannon"] {
        db.insert(&Tuple::new().with(brand, Value::text(b)))
            .unwrap();
    }
    let hits = db
        .execute(&Query::new().text(brand, "Canon"), &SearchRequest::new(2))
        .unwrap()
        .hits;
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].tuple.get(brand), Some(&Value::text("Canon")));
    assert_eq!(hits[1].tuple.get(brand), Some(&Value::text("Cannon")));
}

#[test]
fn empty_database_searches_cleanly() {
    let mut db = mem_db();
    let a = db.define_text("a").unwrap();
    assert!(db.is_empty());
    let hits = db
        .execute(&Query::new().text(a, "nothing"), &SearchRequest::new(5))
        .unwrap()
        .hits;
    assert!(hits.is_empty());
}

#[test]
fn failed_update_rolls_back_to_old_tuple() {
    let mut db = mem_db();
    let name = db.define_text("name").unwrap();
    let price = db.define_numeric("price").unwrap();
    let tid = db
        .insert(
            &Tuple::new()
                .with(name, Value::text("keep me"))
                .with(price, Value::num(7.0)),
        )
        .unwrap();
    assert_eq!(db.len(), 1);

    // The replacement references an attribute that was never defined, so
    // the insert half of the delete+insert update fails. The old tuple
    // must survive (under a fresh id, as any update would assign).
    let bogus = Tuple::new().with(iva_file::AttrId(999), Value::text("x"));
    let err = db.update(tid, &bogus).unwrap_err();
    assert!(
        err.to_string().contains("unknown attribute"),
        "unexpected error: {err}"
    );

    assert_eq!(db.len(), 1, "old tuple lost by failed update");
    let hits = db
        .execute(&Query::new().text(name, "keep me"), &SearchRequest::new(1))
        .unwrap()
        .hits;
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].dist, 0.0);
    assert_eq!(hits[0].tuple.get(price), Some(&Value::num(7.0)));
}

#[test]
fn execute_metric_agrees_with_metric_override() {
    // `execute` with a request-level metric override must match
    // `execute_metric` with the same metric passed directly.
    let mut db = mem_db();
    let name = db.define_text("name").unwrap();
    for i in 0..20 {
        db.insert(&Tuple::new().with(name, Value::text(format!("gadget {i}"))))
            .unwrap();
    }
    let q = Query::new().text(name, "gadget 7");
    let req = SearchRequest::new(3)
        .metric(MetricKind::L2)
        .weights(WeightScheme::Equal);
    let via_execute = db.execute(&q, &req).unwrap().hits;

    let direct = db
        .execute_metric(
            &q,
            &MetricKind::L2,
            &SearchRequest::new(3).weights(WeightScheme::Equal),
        )
        .unwrap();

    assert_eq!(direct.hits.len(), via_execute.len());
    for (a, b) in direct.hits.iter().zip(&via_execute) {
        assert_eq!(a.tid, b.tid);
        assert_eq!(a.dist.to_bits(), b.dist.to_bits());
    }
    assert!(direct.stats.tuples_scanned > 0);
}
