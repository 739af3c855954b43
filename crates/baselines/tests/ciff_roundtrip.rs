//! CIFF-style interchange round-trips: export → import must reproduce
//! bit-identical top-k answers for both the iVA-file and the SII
//! baseline, the serialization must be canonical (re-exporting an
//! imported index yields the same bytes), and malformed containers must
//! error — never panic.

use iva_baselines::{export_iva, export_sii, import_iva, import_sii, SiiIndex};
use iva_core::{
    build_index, IndexTarget, IvaConfig, IvaError, MetricKind, Query, WeightScheme, TOMBSTONE_PTR,
};
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{AttrId, SwtTable, Tuple, Value};

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 512,
        cache_bytes: 64 * 1024,
    }
}

/// Deterministic pseudo-random sparse table: mixed densities force all
/// four list organizations, multi-string values exercise grouped
/// signatures.
fn make_table(n: u32) -> SwtTable {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let dense_txt = t.define_text("dense_txt").unwrap();
    let sparse_txt = t.define_text("sparse_txt").unwrap();
    let dense_num = t.define_numeric("dense_num").unwrap();
    let sparse_num = t.define_numeric("sparse_num").unwrap();
    for i in 0..n {
        let mut tup = Tuple::new();
        if i % 7 != 0 {
            tup.set(dense_txt, Value::text(format!("product listing {i:04}")));
        }
        if i % 11 == 0 {
            tup.set(
                sparse_txt,
                Value::texts([format!("note {i}"), "extra".to_string()]),
            );
        }
        if i % 10 != 9 {
            tup.set(dense_num, Value::num(f64::from(i % 89)));
        }
        if i % 13 == 0 {
            tup.set(sparse_num, Value::num(f64::from(i)));
        }
        t.insert(&tup).unwrap();
    }
    t
}

fn queries() -> Vec<Query> {
    vec![
        Query::new().text(AttrId(0), "product listing 0042"),
        Query::new().text(AttrId(1), "note 33").num(AttrId(2), 42.0),
        Query::new().num(AttrId(2), 7.0).num(AttrId(3), 26.0),
    ]
}

/// Build the fixture pair: a table and an updated (insert + delete)
/// compressed iVA index over it — mixed raw/packed segments, tombstones.
fn iva_fixture() -> (SwtTable, iva_core::IvaIndex) {
    let mut table = make_table(300);
    let mut index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    for i in 0..10u32 {
        let mut tup = Tuple::new();
        tup.set(AttrId(0), Value::text(format!("appended listing {i}")));
        if i % 2 == 0 {
            tup.set(AttrId(2), Value::num(f64::from(40 + i)));
        }
        let (tid, ptr) = table.insert(&tup).unwrap();
        index.insert(tid, ptr, &tup, table.catalog()).unwrap();
    }
    // The table's tombstones: the index keeps no liveness to export.
    for tid in [3u64, 77, 150] {
        assert!(table.delete(tid).unwrap());
    }
    (table, index)
}

#[test]
fn iva_roundtrip_reproduces_topk() {
    let (table, index) = iva_fixture();
    let bytes = export_iva(&index).unwrap();
    let imported = import_iva(&bytes, IndexTarget::Mem, &opts(), IoStats::new()).unwrap();

    assert_eq!(imported.n_tuples(), index.n_tuples());
    assert_eq!(imported.table_watermark(), index.table_watermark());
    for q in &queries() {
        for k in [1usize, 5, 20] {
            let a = index
                .query(&table, q, k, &MetricKind::L2, WeightScheme::Itf)
                .unwrap();
            let b = imported
                .query(&table, q, k, &MetricKind::L2, WeightScheme::Itf)
                .unwrap();
            assert_eq!(a.results.len(), b.results.len());
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.tid, y.tid);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
            assert_eq!(a.stats.table_accesses, b.stats.table_accesses);
            assert_eq!(a.stats.tuples_scanned, b.stats.tuples_scanned);
        }
    }
}

/// An iVA-file lists only live tuples, so content whose tuple list marks
/// an element dead — as an export from a build that kept liveness in the
/// directory did — is refused with a typed error, not imported as live.
#[test]
fn iva_import_refuses_a_dead_element() {
    let (_table, index) = iva_fixture();
    let mut parts = iva_core::export_index(&index).unwrap();
    assert!(parts.tuple_entries.iter().all(|e| e.1 != TOMBSTONE_PTR));
    parts.tuple_entries[77].1 = TOMBSTONE_PTR;
    let got = iva_core::import_index(IndexTarget::Mem, &opts(), IoStats::new(), &parts);
    match got {
        Err(IvaError::InvalidArgument(m)) => assert!(m.contains("marked deleted"), "{m}"),
        Err(e) => panic!("untyped refusal: {e}"),
        Ok(_) => panic!("a dead element imported as live"),
    }
}

#[test]
fn iva_serialization_is_canonical() {
    let (_table, index) = iva_fixture();
    let bytes = export_iva(&index).unwrap();
    let imported = import_iva(&bytes, IndexTarget::Mem, &opts(), IoStats::new()).unwrap();
    // The interchange erases physical organization (lazy tails, raw
    // insert frames); an imported index is a canonical rebuild, so
    // re-exporting it must reproduce the container byte-for-byte.
    assert_eq!(export_iva(&imported).unwrap(), bytes);
}

#[test]
fn iva_import_preserves_compression() {
    let (_table, index) = iva_fixture();
    let bytes = export_iva(&index).unwrap();
    let imported = import_iva(&bytes, IndexTarget::Mem, &opts(), IoStats::new()).unwrap();
    // The fixture's dense attributes compress; the canonical rebuild
    // must store them in fewer bytes than their logical length, as the
    // exporting index did.
    let compressed = |index: &iva_core::IvaIndex| {
        let entry = |a: u32| index.attr_entry(AttrId(a)).unwrap().clone();
        let entries = (0..4u32).map(entry);
        entries.filter(|e| e.vlist.len < e.logical_len).count()
    };
    assert!(
        compressed(&imported) >= 1,
        "import stored no list compressed"
    );
    assert_eq!(compressed(&imported), compressed(&index));
}

#[test]
fn sii_roundtrip_reproduces_topk() {
    let mut table = make_table(300);
    let mut sii = SiiIndex::build(&table, &opts(), IoStats::new(), 20.0).unwrap();
    for i in 0..8u32 {
        let mut tup = Tuple::new();
        tup.set(AttrId(1), Value::text(format!("late note {i}")));
        let (tid, ptr) = table.insert(&tup).unwrap();
        sii.insert(tid, ptr, &tup, table.catalog()).unwrap();
    }
    for tid in [5u64, 121] {
        assert!(sii.lookup_ptr(tid).unwrap().is_some());
        assert!(table.delete(tid).unwrap());
        assert!(sii.delete(tid).unwrap());
    }

    let bytes = export_sii(&sii).unwrap();
    let imported = import_sii(&bytes, &opts(), IoStats::new()).unwrap();
    assert_eq!(imported.n_tuples(), sii.n_tuples());
    assert_eq!(imported.deleted_fraction(), sii.deleted_fraction());
    for q in &queries() {
        let a = sii
            .query(&table, q, 10, &MetricKind::L2, WeightScheme::Itf)
            .unwrap();
        let b = imported
            .query(&table, q, 10, &MetricKind::L2, WeightScheme::Itf)
            .unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.tid, y.tid);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
        assert_eq!(a.stats.table_accesses, b.stats.table_accesses);
    }
    // Canonical here too.
    assert_eq!(export_sii(&imported).unwrap(), bytes);
}

#[test]
fn flavors_do_not_cross() {
    let (_table, index) = iva_fixture();
    let iva_bytes = export_iva(&index).unwrap();
    assert!(import_sii(&iva_bytes, &opts(), IoStats::new()).is_err());

    let table = make_table(50);
    let sii = SiiIndex::build(&table, &opts(), IoStats::new(), 20.0).unwrap();
    let sii_bytes = export_sii(&sii).unwrap();
    assert!(import_iva(&sii_bytes, IndexTarget::Mem, &opts(), IoStats::new()).is_err());
}

/// Decoding a hostile container must never panic: every truncation
/// errors, and every single-byte corruption either errors or imports a
/// structurally valid index.
#[test]
fn corrupted_containers_never_panic() {
    let (_table, index) = iva_fixture();
    let bytes = export_iva(&index).unwrap();
    for end in 0..bytes.len() {
        assert!(
            import_iva(&bytes[..end], IndexTarget::Mem, &opts(), IoStats::new()).is_err(),
            "truncation at {end} did not error"
        );
    }
    let step = (bytes.len() / 251).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x2d;
        let _ = import_iva(&bad, IndexTarget::Mem, &opts(), IoStats::new());
    }

    let table = make_table(60);
    let sii = SiiIndex::build(&table, &opts(), IoStats::new(), 20.0).unwrap();
    let sii_bytes = export_sii(&sii).unwrap();
    for end in 0..sii_bytes.len() {
        assert!(
            import_sii(&sii_bytes[..end], &opts(), IoStats::new()).is_err(),
            "SII truncation at {end} did not error"
        );
    }
    for pos in 0..sii_bytes.len() {
        let mut bad = sii_bytes.clone();
        bad[pos] ^= 0x2d;
        let _ = import_sii(&bad, &opts(), IoStats::new());
    }
}
