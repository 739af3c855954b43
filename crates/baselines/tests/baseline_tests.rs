//! Cross-system equivalence: iVA-file, SII, DST and the VA-file must all
//! return identical top-k distances (they are all exact filter-and-refine
//! methods) — and the VA-file must be the size outlier the paper says it
//! is.

use iva_baselines::{DirectScan, SiiIndex, VaFile};
use iva_core::{build_index, IndexTarget, IvaConfig, MetricKind, Query, WeightScheme};
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{AttrId, SwtTable, Tuple, Value};

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 512,
        cache_bytes: 64 * 1024,
    }
}

/// Deterministic pseudo-random sparse table: `n` tuples over 12 attributes
/// (8 text / 4 numeric), ~4 defined per tuple, with value sharing.
fn make_table(n: u32, seed: u64) -> SwtTable {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let mut text_attrs = Vec::new();
    let mut num_attrs = Vec::new();
    for i in 0..8 {
        text_attrs.push(t.define_text(&format!("T{i}")).unwrap());
    }
    for i in 0..4 {
        num_attrs.push(t.define_numeric(&format!("N{i}")).unwrap());
    }
    let words = [
        "canon",
        "cannon",
        "sony",
        "nikon",
        "camera",
        "album",
        "google",
        "red",
        "wide-angle",
    ];
    let mut state = seed;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n {
        let mut tuple = Tuple::new();
        let fields = 1 + rnd() % 5;
        for _ in 0..fields {
            if rnd() % 3 == 0 {
                let a = num_attrs[(rnd() % 4) as usize];
                tuple.set(a, Value::num((rnd() % 1000) as f64 / 3.0));
            } else {
                let a = text_attrs[(rnd() % 8) as usize];
                let w = words[(rnd() % words.len() as u64) as usize];
                if rnd() % 5 == 0 {
                    let w2 = words[(rnd() % words.len() as u64) as usize];
                    tuple.set(a, Value::texts([w, w2]));
                } else {
                    tuple.set(a, Value::text(w));
                }
            }
        }
        t.insert(&tuple).unwrap();
    }
    t
}

fn queries() -> Vec<Query> {
    vec![
        Query::new().text(AttrId(0), "canon"),
        Query::new().text(AttrId(1), "camera").num(AttrId(9), 100.0),
        Query::new().num(AttrId(8), 50.0).num(AttrId(10), 200.0),
        Query::new()
            .text(AttrId(2), "wide-angle")
            .text(AttrId(3), "sony")
            .num(AttrId(11), 10.0),
    ]
}

#[test]
fn all_four_methods_agree() {
    let table = make_table(400, 7);
    let iva = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let sii = SiiIndex::build(&table, &opts(), IoStats::new(), 20.0).unwrap();
    let dst = DirectScan::new(20.0);
    let va = VaFile::build(&table, &opts(), IoStats::new(), 2, 20.0).unwrap();

    for q in queries() {
        for metric in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
            for w in [WeightScheme::Equal, WeightScheme::Itf] {
                let k = 10;
                let a = iva.query(&table, &q, k, &metric, w).unwrap();
                let b = sii.query(&table, &q, k, &metric, w).unwrap();
                let c = dst.query(&table, &q, k, &metric, w).unwrap();
                let d = va.query(&table, &q, k, &metric, w).unwrap();
                let da: Vec<f64> = a.results.iter().map(|e| e.dist).collect();
                let db: Vec<f64> = b.results.iter().map(|e| e.dist).collect();
                let dc: Vec<f64> = c.results.iter().map(|e| e.dist).collect();
                let dd: Vec<f64> = d.results.iter().map(|e| e.dist).collect();
                for (x, y) in da.iter().zip(&db) {
                    assert!((x - y).abs() < 1e-9, "iva vs sii: {da:?} {db:?}");
                }
                for (x, y) in da.iter().zip(&dc) {
                    assert!((x - y).abs() < 1e-9, "iva vs dst: {da:?} {dc:?}");
                }
                for (x, y) in da.iter().zip(&dd) {
                    assert!((x - y).abs() < 1e-9, "iva vs va: {da:?} {dd:?}");
                }
            }
        }
    }
}

#[test]
fn iva_filters_better_than_sii() {
    // The headline claim (Fig. 8): content-conscious filtering admits far
    // fewer candidates than defined/ndf-only filtering.
    let table = make_table(2000, 11);
    let iva = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let sii = SiiIndex::build(&table, &opts(), IoStats::new(), 20.0).unwrap();

    let mut iva_total = 0u64;
    let mut sii_total = 0u64;
    for q in queries() {
        let a = iva
            .query(&table, &q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let b = sii
            .query(&table, &q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        iva_total += a.stats.table_accesses;
        sii_total += b.stats.table_accesses;
    }
    assert!(
        iva_total * 2 < sii_total,
        "iVA accesses ({iva_total}) not clearly below SII ({sii_total})"
    );
}

#[test]
fn sii_update_paths_stay_exact() {
    let mut table = make_table(100, 3);
    let mut sii = SiiIndex::build(&table, &opts(), IoStats::new(), 20.0).unwrap();
    let dst = DirectScan::new(20.0);

    // Inserts (including on a brand-new attribute).
    let color = table.define_text("Color").unwrap();
    for i in 0..20u32 {
        let tuple = Tuple::new()
            .with(AttrId(0), Value::text(format!("new item {i}")))
            .with(color, Value::text(if i % 2 == 0 { "red" } else { "blue" }));
        let (tid, ptr) = table.insert(&tuple).unwrap();
        sii.insert(tid, ptr, &tuple, table.catalog()).unwrap();
    }
    // Deletes.
    for tid in [5u64, 50, 105] {
        if sii.lookup_ptr(tid).unwrap().is_some() {
            assert!(table.delete(tid).unwrap());
            assert!(sii.delete(tid).unwrap());
        }
    }
    assert!(sii.deleted_fraction() > 0.0);

    for q in [
        Query::new().text(color, "red"),
        Query::new().text(AttrId(0), "new item 7"),
    ] {
        let a = sii
            .query(&table, &q, 8, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let b = dst
            .query(&table, &q, 8, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let da: Vec<f64> = a.results.iter().map(|e| e.dist).collect();
        let db: Vec<f64> = b.results.iter().map(|e| e.dist).collect();
        for (x, y) in da.iter().zip(&db) {
            assert!((x - y).abs() < 1e-9, "{da:?} vs {db:?}");
        }
    }
}

#[test]
fn vafile_size_exceeds_table_on_sparse_data() {
    // Sec. V: "The VA-file is excluded from our evaluations as its size far
    // exceeds that of the table file." Reproduce on a sparse, wide table.
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    for i in 0..200 {
        t.define_numeric(&format!("N{i}")).unwrap();
    }
    // 300 tuples, each defining only 5 of the 200 attributes.
    let mut state = 99u64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    for _ in 0..300 {
        let mut tuple = Tuple::new();
        for _ in 0..5 {
            tuple.set(
                AttrId((rnd() % 200) as u32),
                Value::num((rnd() % 1000) as f64),
            );
        }
        t.insert(&tuple).unwrap();
    }
    let va = VaFile::build(&t, &opts(), IoStats::new(), 2, 20.0).unwrap();
    let iva = build_index(
        &t,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let table_size = t.file().size_bytes();
    assert!(
        va.size_bytes() > table_size,
        "VA-file {} should exceed table {}",
        va.size_bytes(),
        table_size
    );
    assert!(
        iva.size_bytes() < va.size_bytes(),
        "iVA {} should be far below VA {}",
        iva.size_bytes(),
        va.size_bytes()
    );
}

#[test]
fn dst_is_parameter_insensitive() {
    let table = make_table(500, 23);
    let dst = DirectScan::new(20.0);
    let q1 = Query::new().text(AttrId(0), "canon");
    let q3 = queries()[3].clone();
    let a = dst
        .query(&table, &q1, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    let b = dst
        .query(&table, &q3, 25, &MetricKind::L1, WeightScheme::Itf)
        .unwrap();
    // Same number of tuples touched regardless of query shape or k.
    assert_eq!(a.stats.tuples_scanned, b.stats.tuples_scanned);
    assert_eq!(a.stats.table_accesses, b.stats.table_accesses);
}
