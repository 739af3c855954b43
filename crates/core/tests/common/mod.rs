//! Helpers shared by the integration suites (each test crate uses a
//! subset).
#![allow(dead_code)]

use iva_core::QueryOutcome;
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{SwtTable, Tuple, Value};

/// The bit-identity contract between two executions of one query: same
/// ranked tids, record pointers and distance *bits*, same `tuples_scanned`.
/// Holds across every execution shape and list encoding.
/// How many records were fetched to get there is a property of the drain
/// schedule, compared only by [`assert_same_plan`].
pub fn assert_bit_identical(a: &QueryOutcome, b: &QueryOutcome, label: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{label}: result count");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.tid, y.tid, "{label}");
        assert_eq!(x.ptr, y.ptr, "{label}");
        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{label}");
    }
    assert_eq!(a.stats.tuples_scanned, b.stats.tuples_scanned, "{label}");
}

/// [`assert_bit_identical`] plus equal `table_accesses`: for two runs whose
/// drain schedule is the same by construction — raw vs packed lists where
/// no dictionary seeds the query, a batch member vs its solo run.
pub fn assert_same_plan(a: &QueryOutcome, b: &QueryOutcome, label: &str) {
    assert_bit_identical(a, b, label);
    assert_eq!(a.stats.table_accesses, b.stats.table_accesses, "{label}");
}

/// Small pages so even a few hundred tuples span many of them.
pub fn small_pages() -> PagerOptions {
    PagerOptions {
        page_size: 256,
        cache_bytes: 32 * 1024,
    }
}

/// A table whose attribute densities force every vector-list organization:
/// a dense text attribute (Type III), a sparse multi-string one (I or II),
/// a dense numeric (Type IV) and a sparse numeric (Type I).
pub fn all_list_types_table(n: u32) -> SwtTable {
    let mut t = SwtTable::create_mem(&small_pages(), IoStats::new()).unwrap();
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
        // 90 % density keeps Type IV the winner even at the widest code
        // the suites' α range produces (4 B at α = 0.5).
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
